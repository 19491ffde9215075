(** Pastry overlay with proximity-neighbor selection.

    Node ids are strings of [num_digits] digits, each of [digit_bits]
    bits.  A node's routing table has one row per digit: row [r] holds,
    for every digit value [c] other than the node's own, a member sharing
    the first [r] digits and having digit [c] at position [r] — any such
    member qualifies, which is the selection freedom the soft-state maps
    exploit (one map per id prefix, the paper's "region" for Pastry).  A
    small leaf set of numerically adjacent ids completes routing. *)

type t

type selector = node:int -> prefix:int array -> candidates:int array -> int option
(** [selector ~node ~prefix ~candidates] picks the entry for the region
    identified by [prefix] (digit string).  [candidates] is never
    empty. *)

val create :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  ?trace:Engine.Trace.t ->
  ?digit_bits:int ->
  ?num_digits:int ->
  unit ->
  t
(** Defaults: 2-bit digits (base 4), 15 digits (30-bit ids).  The leaf
    set is the 4 nearest ids on each side (8 leaves, fewer in rings of
    under 9 members).

    With [metrics], {!route} maintains [route_requests] /
    [route_failures] counters and a [route_hops] histogram labeled
    [overlay=pastry] plus any extra [labels].  With [trace], successful
    routes emit one [Route_hop] span per forwarding step. *)

val digit_bits : t -> int
val num_digits : t -> int
val size : t -> int
val mem : t -> int -> bool
val node_ids : t -> int array

val add_node : t -> rng:Prelude.Rng.t -> int -> unit
(** Add a member under a fresh random Pastry id. *)

val remove_node : t -> int -> unit
(** Remove a member; dangling table entries are cleared and leaf sets
    rebuilt. *)

val pastry_id : t -> int -> int
val digit : t -> int -> int -> int
(** [digit t pid r] is digit [r] (most significant first) of a Pastry
    id. *)

val shared_prefix_len : t -> int -> int -> int
(** Length (in digits) of the common prefix of two Pastry ids. *)

val members_with_prefix : t -> int array -> int array
(** Members whose id starts with the given digit string. *)

val owner_of : t -> int -> int
(** Member whose Pastry id is numerically closest (circularly) to the
    key; ties go to the lower id.  Raises [Failure] on an empty mesh. *)

val build_tables : t -> selector:selector -> unit
(** (Re)build all routing tables and leaf sets. *)

val table_entries : t -> int -> (int * int * int) list
(** Filled routing entries of a node as [(row, digit, target)]. *)

val leaves : t -> int -> int array
(** Current leaf set of a node. *)

val route : t -> src:int -> key:int -> int list option
(** Prefix routing to [owner_of t key]; hop list includes both
    endpoints. *)

val check_invariants : t -> (unit, string) result
