(** Chord ring with proximity-aware finger selection.

    Keys live on a ring of [2^key_bits] identifiers.  Classic Chord fixes
    finger [i] of a node with key [k] to [successor (k + 2^i)]; the
    proximity-neighbor-selection variant used here may pick {e any} member
    of the arc [[k + 2^i, k + 2^(i+1))] — routing stays O(log n) while the
    choice within the arc is free, which is the hook the paper's
    soft-state hybrid selection plugs into (landmark numbers are stored as
    keys on the ring, so arc members close in landmark number are stored
    close together).  Membership and placement live in a {!Keyring.t};
    this module adds the fingers and the routing on top. *)

type t

type selector = node:int -> arc:int * int -> candidates:int array -> int option
(** [selector ~node ~arc:(lo, span) ~candidates] picks the finger entry of
    [node] for the arc starting at [lo] (ring positions [lo, lo + span)).
    [candidates] is never empty. *)

val create :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  ?trace:Engine.Trace.t ->
  ?key_bits:int ->
  unit ->
  t
(** Empty ring; [key_bits] defaults to 30.

    With [metrics], {!route} maintains [route_requests] /
    [route_failures] counters and a [route_hops] histogram labeled
    [overlay=chord] plus any extra [labels].  With [trace], successful
    routes emit one [Route_hop] span per forwarding step. *)

val keyring : t -> Keyring.t
(** The identifier ring underneath, shared, not copied: membership
    changes made here show through it. *)

val key_bits : t -> int
val size : t -> int

val add_node : t -> rng:Prelude.Rng.t -> int -> unit
(** Add a member under a fresh random ring key.  Raises
    [Invalid_argument] if the node is already a member. *)

val remove_node : t -> int -> unit
(** Remove a member.  Its fingers disappear; other members' fingers that
    pointed at it are cleared (to be repaired by [build_fingers]). *)

val mem : t -> int -> bool
val node_ids : t -> int array
val key_of : t -> int -> int
(** Ring key of a member. *)

val successor_node : t -> int -> int
val arc_members : t -> lo:int -> span:int -> int array
(** {!Keyring.successor_node} and {!Keyring.arc_members} on
    {!keyring}. *)

val build_fingers : t -> selector:selector -> unit
(** (Re)build every member's finger table with the given selection
    policy.  Fingers for empty arcs stay unset. *)

val fingers : t -> int -> (int * int) list
(** Filled fingers of a node as [(level, target node)]. *)

val route : t -> src:int -> key:int -> int list option
(** Greedy clockwise routing: hop to the known node (finger or successor)
    that most closely precedes the key; ends at [successor_node t key].
    Returns hop list including both endpoints. *)

val check_invariants : t -> (unit, string) result
(** Fingers live inside their arcs; successors are consistent with the key
    order. *)
