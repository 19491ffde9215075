(** Koorde-style constant-degree de Bruijn overlay on a Chord identifier
    ring.

    Keys live on a ring of [2^key_bits] identifiers; [degree] (k, a power
    of two) fixes the de Bruijn fanout, so a key is a string of
    [key_bits / log2 k] base-k digits.  Routing follows Kaashoek &
    Karger's imaginary-node walk: a node picks the imaginary position
    inside its own domain [(key, successor key]] that already agrees with
    the longest prefix of the target (fewest digits left to feed), then
    each hop shifts one more digit of the target into the register —
    position [i] becomes [k*i + digit] — and forwards to the member in
    charge of the new position, with successor hops correcting whenever
    the register leaves the current node's domain.  Routes therefore take
    about [log_k N] digit hops plus O(1) corrections.

    Each node's de Bruijn state is its {e cover}: the charge of its image
    arc's start plus every member whose key lands in the image arc
    [(k*(key+1), k*(successor key) + k - 1]] — about k entries.  Like the
    Chord fingers, {e which} cover entry a hop enters through is free:
    {!build_fingers} lets a selector pick one preferred entry (the
    proximity-neighbor-selection hook), and routing uses it whenever it
    does not overshoot the wanted position, paying successor corrections
    to reach the exact charge.  With only ~k candidates per node, this is
    the constant-degree frontier of the paper's generality claim.

    Membership and placement live in a {!Chord.Keyring.t}, the same
    identifier ring Chord uses; this module adds the cover, the preferred
    entry and the de Bruijn routing on top. *)

type t

type selector = node:int -> arc:int * int -> candidates:int array -> int option
(** [selector ~node ~arc:(lo, span) ~candidates] picks the preferred de
    Bruijn entry of [node] for its image arc (ring positions
    [lo, lo + span)).  [candidates] is never empty and excludes [node]
    itself. *)

val create :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  ?trace:Engine.Trace.t ->
  ?key_bits:int ->
  ?degree:int ->
  unit ->
  t
(** Empty overlay; [key_bits] defaults to 24 and [degree] to 2.  [degree]
    must be a power of two in [[2, 64]] dividing [key_bits] by its log —
    the default key width supports k ∈ {{2, 4, 8, 16}}.

    With [metrics], {!route} maintains [route_requests] /
    [route_failures] counters and a [route_hops] histogram labeled
    [overlay=koorde] plus any extra [labels].  With [trace], successful
    routes emit one [Route_hop] span per forwarding step. *)

val keyring : t -> Chord.Keyring.t
(** The identifier ring underneath, shared, not copied: membership
    changes made here show through it (e.g. to a {!Chord.Softmap.t}). *)

val key_bits : t -> int
val degree : t -> int
val size : t -> int

val add_node : t -> rng:Prelude.Rng.t -> int -> unit
(** Add a member under a fresh random ring key.  Raises
    [Invalid_argument] if the node is already a member. *)

val add_node_at : t -> int -> key:int -> unit
(** Add a member at an explicit ring key (hand-built test rings).  Raises
    [Invalid_argument] on duplicates or out-of-range keys. *)

val remove_node : t -> int -> unit
(** Remove a member.  Other members' cover entries and preferred picks
    that pointed at it are cleared (to be repaired by
    {!build_fingers}). *)

val mem : t -> int -> bool
val node_ids : t -> int array

val key_of : t -> int -> int
(** Ring key of a member. *)

val successor_node : t -> int -> int
val charge_node : t -> int -> int
val arc_members : t -> lo:int -> span:int -> int array
(** {!Chord.Keyring.successor_node}, {!Chord.Keyring.charge_node} and
    {!Chord.Keyring.arc_members} on {!keyring}. *)

val image_arc : t -> int -> int * int
(** [(lo, span)] of a member's de Bruijn image arc: the ring positions
    its domain maps onto under one digit shift. *)

val build_fingers : t -> selector:selector -> unit
(** (Re)build every member's cover and preferred entry with the given
    selection policy. *)

val cover : t -> int -> int array
(** A member's cover list, anchor (charge of the image-arc start)
    first. *)

val preferred : t -> int -> int option
(** The policy-chosen preferred entry, if any. *)

val route : t -> src:int -> key:int -> int list option
(** Imaginary-node de Bruijn routing; ends at [successor_node t key].
    Returns the hop list including both endpoints. *)

val check_invariants : t -> (unit, string) result
(** Successors consistent with the key order; cover entries live and
    inside their image arcs; preferred entries live and inside the
    cover.  Valid after {!build_fingers}; membership changes in between
    may legitimately shift arc geometry. *)
