(** eCAN: expressway-augmented CAN with logarithmic routing.

    High-order zones are prefix regions of the CAN split tree: grouping
    the split bits into digits of [span_bits] bits (so every [2^span_bits]
    order-i zones form one order-(i+1) zone), a node's routing table has
    one row per digit of its own path, and each row holds one
    representative node for each sibling region at that level — exactly
    Pastry's prefix-routing structure laid over the Cartesian space.

    The choice of representative is the {e proximity-neighbor selection}
    the paper is about, so it is pluggable: [build_tables] takes a
    [selector] callback (random / soft-state hybrid / optimal are wired in
    the [core] library). *)

type t

type selector = node:int -> region:int array -> candidates:int array -> int option
(** [selector ~node ~region ~candidates] picks the routing-table entry
    that [node] uses as its representative for the high-order zone
    [region] (a path prefix).  [candidates] are the current members of the
    region and is never empty.  Returning [None] leaves the entry
    unfilled. *)

val create :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  ?trace:Engine.Trace.t ->
  ?span_bits:int ->
  Can.Overlay.t ->
  t
(** Wrap a CAN overlay; [span_bits] (default 2, i.e. k = 4 zones per
    higher-order zone) is the number of path bits per routing digit.

    With [metrics], expressway routing maintains [route_requests] /
    [route_failures] counters and a [route_hops] histogram labeled
    [overlay=ecan] plus any extra [labels] (independent of the wrapped
    CAN's own instruments).  With [trace], successful routes emit one
    [Route_hop] span per forwarding step. *)

val can : t -> Can.Overlay.t
val span_bits : t -> int

val rows : t -> int -> int
(** Number of complete routing-table rows of a node ([path length /
    span_bits]). *)

val own_digit : t -> int -> row:int -> int
(** The node's own digit at a row. *)

val region_prefix : t -> int -> row:int -> digit:int -> int array
(** The path prefix of the sibling region a table slot points into. *)

val iter_slots : t -> int -> (row:int -> digit:int -> unit) -> unit
(** [iter_slots t id f] calls [f ~row ~digit] for every slot of [id]'s
    table under its current path: rows ascending, digits ascending,
    skipping the node's own digit at each row.  [f] must not change the
    node's membership or zone. *)

val in_region : t -> region:int array -> int -> bool
(** [in_region t ~region target]: [target] is a live member whose path
    starts with [region] — the test for "this slot's entry still belongs
    to the slot". *)

val entry : t -> int -> row:int -> digit:int -> int option
(** Current table entry, [None] if unfilled or never built. *)

val set_entry : t -> int -> row:int -> digit:int -> int option -> unit
(** Overwrite one entry (used by pub/sub driven re-selection).  Raises
    [Invalid_argument] if the slot does not exist or the target is
    negative.  This is the one writer of single entries —
    {!build_table_for} clears a table and fills it through it — so the
    reverse-entry index behind {!referrers} always holds exactly the
    filled slots.  An update is O(1); it allocates only when a node
    first gets a table or first becomes a target, never per write.  A
    node's entries are one flat [int array] (slot [row * fan + digit])
    and its referrer links a record; both live in arrays indexed by node
    id, so their memory grows with the largest id that holds a table or
    is a target. *)

val referrers : t -> int -> (int * int * int) list
(** [referrers t target]: the slots [(holder, row, digit)] whose entry is
    [target], read from the reverse-entry index in time proportional to
    the filled slots that point at [target].  Only slots {!entries}
    reports are returned: the holder is a current member and the row
    lies under its current path (a departed holder's table, and rows a
    shrunk path left behind, are skipped).  Order unspecified (callers
    that need one sort). *)

val entries : t -> int -> (int * int * int) list
(** All filled entries of a node as [(row, digit, target)]. *)

val iter_selections :
  t -> int -> (row:int -> digit:int -> region:int array -> candidates:int array -> unit) -> unit
(** [iter_selections t id f] calls [f] once for every selector call
    [build_table_for t ~selector id] would make, in the same order: the
    slots of {!iter_slots} whose region has members, with the region's
    prefix and its {!Can.Overlay.members_with_prefix}.  It writes no
    table. *)

val build_table_for : t -> selector:selector -> int -> unit
(** (Re)build one node's table from the current overlay state.  The
    table is cleared first; its arrays are reused when the node's row
    count is unchanged and reallocated for the current rows otherwise. *)

val build_tables : t -> selector:selector -> unit
(** (Re)build every member's table: {!build_table_for} over
    {!Can.Overlay.node_ids}, in that order.  A whole fill with the same
    overlay therefore asks its selector about the slots of
    {!iter_selections} over the same ids, in the same order. *)

val route : t -> src:int -> Geometry.Point.t -> int list option
(** Expressway routing: hop along the table entry that extends the shared
    digit prefix with the target; fall back to a greedy CAN hop
    ({!Can.Overlay.greedy_step} with revisits) when no table entry helps.
    Entries that point at departed, visited or the current node count as
    missing.  Returns the hop list including both endpoints, or [None]
    after [4 * size] hops without reaching the owner.  Raises
    [Not_found] if [src] is not a member.

    Each expressway owns one route cursor — a {!Can.Overlay.Cursor.t} of
    visit stamps and a hop buffer — reused by every route, so a route
    allocates only the list it returns, and two routes of one expressway
    may not interleave.  A route packs the target's split bits into one
    int, only down to {!Can.Overlay.depth_mark}: a hop compares digits
    only above the visited member's path length.  A hop reads the CAN's
    flat copies ({!Can.Overlay.contains}, {!Can.Overlay.path_key_of},
    {!Can.Overlay.path_length}) and the member's entry array, finding the
    first differing digit by one XOR of the packed paths, so it reads no
    node record unless it falls back to a greedy hop.  Expressways over
    the same CAN have separate cursors and may route in any
    interleaving. *)

val table_size : t -> int -> int
(** Number of filled entries (routing state) of a node. *)

val check_invariants : t -> (unit, string) result
(** Testing hook: each node's entry array holds one int per slot of its
    table's rows (none without a table), its referrer links two, and
    the reverse-entry index holds exactly the filled slots: every link
    on a node's referrer list is a slot whose entry is that node, with a
    consistent back link, and there are as many links as filled
    slots. *)
