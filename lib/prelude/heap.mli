(** Imperative binary min-heap over an order given at creation.

    The one general priority queue in the repo: [Engine.Sim]'s event
    queue (ordered by [(time, seq)]) and the soft-state store's TTL
    expiry heaps (ordered by the stamp each record was pushed with) both
    run on it.  Elements are stored directly; nothing is boxed beside
    them.  Dijkstra keeps its own structure-of-arrays heap (DESIGN.md
    §13, "SoA Dijkstra").

    [before] is a strict order: the heap moves an element up past its
    parent, or down to a child, only when [before] holds, and on a tie
    between the two children it takes the left one.  Equal elements so
    pop in a deterministic order fixed by the push/pop sequence, but not
    in push order: an order that must be FIFO among equals, as the event
    queue's, breaks its ties itself. *)

type 'a t

val create : ?capacity:int -> before:('a -> 'a -> bool) -> dummy:'a -> unit -> 'a t
(** Fresh empty heap ordered by [before] ([before a b]: [a] pops first).
    [dummy] fills every vacant slot of the backing array, so an element
    that {!pop} has returned is no longer reachable from the heap; it is
    never returned or passed to [before].  [capacity] (default 0) sizes
    the first backing array allocation so heaps with a known
    steady-state population skip the grow-copy doublings; it never
    limits growth. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Insert an element.  O(log n). *)

val pop : 'a t -> 'a option
(** Remove and return a minimum element.  O(log n). *)

val peek : 'a t -> 'a option
(** A minimum element, without removing it (the one {!pop} would
    return).  O(1). *)

val iter : ('a -> unit) -> 'a t -> unit
(** Visit every element in unspecified (array) order.  O(n); for audits
    and invariant checks, not for ordered traversal. *)
