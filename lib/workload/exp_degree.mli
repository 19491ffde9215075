(** Constant-degree frontier: sweep the per-hop choice budget k.

    For k in 2, 4, 8, 16 every backend builds its tables with at most k
    RTT probes per slot (for Koorde, k is additionally the de Bruijn
    fanout, so its candidate set and probe budget shrink together) and
    reports topology-aware vs random-selection stretch, the RTT probes /
    repair work spent, and churn-repair latency under the standard
    seeded storm — all through the churn experiment's drivers, so rows
    are directly comparable with the churn table.  Plain greedy CAN is
    the zero-flexibility control (aware = random, ratio pinned at 1.0). *)

val run : ?seed:int -> Run.t -> Tableout.block list
(** One row per (backend, k) cell, eCAN/CAN/Chord/Pastry/Koorde at each k
    in ascending-k order, whose cells are [degree_*] gauges (labelled
    [backend] / [k]), plus the headline [degree_random_over_aware_k<k>]
    gauges for the Koorde rows; the registry entry.  The eCAN cells drive
    the full soft-state stack, which reports into the run's registry
    under [experiment=degree] / [k=<k>] labels (never colliding with the
    churn experiment's instruments). *)
