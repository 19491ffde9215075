(** CAN: content-addressable network over the unit torus.

    Every member node owns exactly one zone; the zones tile the space.
    Zones form a binary split tree (split dimension cycles with depth), so
    every zone is identified by its {e path} — the bit string of split
    decisions from the full space down to the zone.  Paths double as the
    prefix scheme eCAN builds its high-order zones on.

    The structure is a simulator-global view: node ids are the underlying
    physical node ids, and operations mutate shared state directly, but
    [join] and [route] walk the overlay hop by hop so logical path lengths
    are faithful. *)

type node = private {
  id : int;
  mutable zone : Geometry.Zone.t;
  mutable path : int array;  (** split bits, root to leaf *)
  mutable neighbors : int list;  (** ids of CAN neighbors, unordered *)
}

type t

val max_depth : int
(** Zone paths are capped at 60 bits; a join that would split deeper
    raises. *)

val create :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  ?trace:Engine.Trace.t ->
  dims:int ->
  int ->
  t
(** [create ~dims first] starts an overlay whose sole member [first] owns
    the entire space.

    With [metrics], the overlay maintains [route_requests] /
    [route_failures] counters and [route_hops] / [join_hops] histograms,
    labeled [overlay=can] plus any extra [labels].  With [trace], every
    successful {!route} additionally emits one [Route_hop] span per
    forwarding step.

    Node ids are non-negative ([Invalid_argument] otherwise): {!node} and
    {!mem} read a dense id-indexed array beside the member table. *)

val dims : t -> int
val size : t -> int

val depth_mark : t -> int
(** A high-water mark of member path length: no member's path is longer.
    Only {!join} raises it, to the depth of the split it makes; a
    {!leave} never lowers it. *)

val mem : t -> int -> bool
(** O(1): an array load.  [false] for negative ids, ids beyond every
    member's and departed ids. *)

val node : t -> int -> node
(** O(1), like {!mem}.  Raises [Not_found] for non-members. *)

val node_ids : t -> int array
(** Current members, in unspecified order. *)

val owner_of : t -> Geometry.Point.t -> int
(** The member whose zone contains the point (O(depth), via the split
    tree — no routing). *)

val owner_within : t -> prefix:int array -> Geometry.Point.t -> int
(** [owner_within t ~prefix p] is [owner_of t p], found faster when [p]
    lies in the zone of the path prefix [prefix] and some member's path
    begins with it: the descent then starts at the prefix's depth, with
    no probe above it.  Otherwise it is the plain {!owner_of} descent. *)

val join : t -> ?start:int -> int -> Geometry.Point.t -> int list
(** [join t ~start id p]: new member [id] picks point [p], the overlay
    routes from [start] (default: the first member) to the owner of [p],
    whose zone splits; the newcomer takes the half containing [p].
    Returns the logical route walked (node ids, start to old owner).
    Raises [Invalid_argument] if [id] is negative or already a member. *)

type leave_effect = {
  survivor : int;  (** node whose zone grew by the merge *)
  backfilled : int option;
      (** node relocated into the vacated zone ([None] when the leaver's
          own sibling absorbed it directly) *)
}

val leave : t -> int -> leave_effect
(** Remove a member.  The vacated zone is taken over CAN-style: the
    deepest leaf pair of the tree merges and the freed node backfills the
    vacated zone (one-zone-per-node is preserved).  O(size).  The returned
    effect names the nodes whose zones (and hence routing state) changed,
    so higher layers can rebuild their tables. *)

(** {2 Routing}

    Every route of an overlay ({!route}, {!route_proximity} and the walk
    inside {!join}) shares one {!Cursor.t} of the overlay: a
    generation-stamped visited set and a hop buffer, so a route allocates
    only the hop list it returns.  So no two routes of one overlay may
    interleave: a [dist] callback must not route on the same overlay. *)

module Cursor : sig
  type t
  (** A route's visited set and hop buffer, reused from route to route.
      Starting a route is one stamp increment, not a fresh table. *)

  val create : unit -> t

  val start : t -> unit
  (** Begin a route: nothing visited, no hops. *)

  val push : t -> int -> unit
  (** Append a hop and mark it visited.  Ids must be non-negative. *)

  val visited : t -> int -> bool
  (** Pushed since the last {!start}. *)

  val hops : t -> int list
  (** The hops pushed since the last {!start}, in order, as a fresh
      list. *)

  val length : t -> int
  (** The number of hops pushed since the last {!start}. *)

  val get : t -> int -> int
  (** [get c i] is the [i]-th hop pushed since the last {!start}, for
      [0 <= i < length c]. *)
end

val greedy_step : t -> Cursor.t -> revisit:bool -> node -> Geometry.Point.t -> int
(** [greedy_step t c ~revisit u p] is one greedy CAN hop from [u] toward
    [p]: the neighbor not visited by [c] whose zone is nearest [p] on the
    torus, ties to the lower id.  When every neighbor is visited it is
    [-1], or with [revisit] the nearest neighbor overall (same tie
    rule); [-1] also when [u] has no neighbors.  Allocates nothing. *)

val route : t -> src:int -> Geometry.Point.t -> int list option
(** Greedy routing from [src] to the owner of a point.  Returns the hop
    list including both endpoints ([None] only if greedy forwarding fails,
    which does not happen on consistent state).  Each hop is a
    {!greedy_step} without revisits. *)

val route_proximity :
  t -> dist:(int -> int -> float) -> src:int -> Geometry.Point.t -> int list option
(** {e Proximity routing} (Castro et al.'s second category, evaluated in
    the taxonomy ablation): the overlay is built topology-blind, but each
    hop picks the {e physically closest} neighbor among those that make
    geometric progress toward the target ([dist u v] is the physical
    latency between nodes).  Falls back to plain greedy when no
    progressing neighbor exists. *)

val path_of_point : t -> depth:int -> Geometry.Point.t -> int array
(** First [depth] split bits of the point's location — the target "digit
    string" used by eCAN expressway routing. *)

val path_of_point_into : t -> depth:int -> Geometry.Point.t -> int array -> unit
(** [path_of_point_into t ~depth p bits] writes the first [depth] split
    bits of [p] into [bits], the same bits as {!path_of_point}, and
    allocates nothing; [bits] past [depth] are left as they were.  A bit
    at depth [d] depends only on [p] and [d].  Raises [Invalid_argument]
    unless [0 <= depth <= Array.length bits]. *)

val zone_of_path : dims:int -> int array -> Geometry.Zone.t
(** The dyadic box a path denotes. *)

val path_key : int array -> int -> int
(** [path_key bits len] encodes the first [len] bits of a path (MSB
    first) as an int behind a leading sentinel bit, so paths of different
    lengths never collide.  The one key every per-region table uses: this
    overlay's prefix index, the soft-state store's maps and the bus's
    subscriptions. *)

val region_key : int array -> int
(** [path_key bits (Array.length bits)]. *)

module Members : sig
  type t
  (** The members of one path prefix, the set behind
      {!members_with_prefix}.  Exposed so its snapshot contract can be
      tested on its own; the overlay keeps one per prefix. *)

  val singleton : int -> t

  val add : t -> int -> unit
  (** Append a member at the newest end. *)

  val remove : t -> int -> unit
  (** Drop a member, keeping the others' order; absent ids are ignored. *)

  val newest_first : t -> int array
  (** The members, newest first: a snapshot built on the first call after
      an {!add} or a {!remove} that changed the set and shared by every
      call until the next one.  Read-only; later changes replace it and
      never write to it. *)
end

val members_with_prefix : t -> int array -> int array
(** Members whose path starts with the given bits (the population of a
    high-order zone).  O(result) on the first call after a membership
    change, O(depth) after that.

    The array is a shared snapshot, not a copy: two calls with no join
    or leave in between return the physically same array, so callers
    must treat it as read-only.  The next {!join} or {!leave} that
    changes the prefix's membership makes the following call return a
    fresh array; arrays handed out earlier keep their contents.

    The order is newest-indexed first: a member moves to the front of
    every prefix of its path when it joins, when its zone splits or
    merges, and when it backfills a vacated zone.  Random selectors that
    [Rng.pick] from this array depend on the order, so it is part of the
    contract. *)

val check_invariants : t -> (unit, string) result
(** Testing hook: zones tile the space (volumes sum to 1, paths form an
    exact prefix-free tree cover), every node's zone matches its path,
    neighbor lists are symmetric and geometrically correct, the dense id
    array holds exactly the members, and no member's path is longer than
    {!depth_mark}. *)
