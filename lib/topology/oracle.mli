(** Exact constant-time distance oracle for strict transit-stub topologies.

    Exploits the hierarchy: any path between nodes in different stubs must
    traverse both access links, so
    [d(u,v) = d_stub(u,gw_u) + w_u + d_core(t_u,t_v) + w_v + d_stub(gw_v,v)].
    Per-stub all-pairs and the transit-core all-pairs are precomputed; a
    query then costs O(1).  A property test checks agreement with
    {!Dijkstra} on random pairs.

    The oracle doubles as the simulated measurement infrastructure: [dist]
    is free "ground truth" (used for optimal baselines and stretch
    denominators) while [measure] answers the same query but counts it as a
    real RTT probe, so experiments can account for measurement budgets the
    way the paper does. *)

type t

val build : Transit_stub.t -> t
(** Precompute the oracle (runs Dijkstra within each stub and the core). *)

val of_graph : Graph.t -> t
(** Dense oracle over an arbitrary connected graph: all-pairs distances by
    one Dijkstra per source.  O(n^2) memory — intended for flat topologies
    of a few thousand nodes (the Waxman robustness ablation). *)

val topology : t -> Transit_stub.t option
(** The transit-stub structure behind a [build] oracle; [None] for
    [of_graph] oracles. *)

val node_count : t -> int

val dist : t -> int -> int -> float
(** Exact shortest-path latency between two nodes; not counted as a
    measurement. *)

val measure : t -> int -> int -> float
(** Same as [dist] but increments the RTT-measurement counter.  No pool
    task measures today (the probe plane measures on the calling
    domain); the counter stays atomic and [dist] is a pure lookup, so
    [measure] remains safe to call from any domain and the count stays
    independent of execution order. *)

val measurements : t -> int
(** Number of [measure] calls since creation or the last reset. *)

val reset_measurements : t -> unit

val nearest : t -> int -> int array -> (int * float) option
(** [nearest o u candidates] is the candidate (with its distance) closest
    to [u], excluding [u] itself; [None] when no other candidate exists.
    Not counted as measurements (ground truth).

    Deterministic tie-breaking guarantee: among equally-near candidates
    the one with the {e smallest node id} wins, independent of the order
    of the [candidates] array — so optimal-baseline selections are stable
    across candidate enumeration orders (ties are common under the manual
    latency model's small integer link weights). *)
