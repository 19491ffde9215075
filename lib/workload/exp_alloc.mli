(** Allocation microbench: exact [Gc.minor_words] budgets for the
    simulation hot paths — one eCAN expressway route, one greedy CAN
    route to a map host, one [Probe.rtt] cache hit, one TTL sweep over
    a 64-entry expired burst, one Dijkstra single-source run of the kind
    [Oracle.build] issues in a loop, one soft-state lookup, one CAN join,
    one store rehost after a join and one bus unsubscribe-plus-subscribe.

    Records [alloc_minor_words_per_route] / [_can_route] / [_rtt_hit] /
    [_sweep] / [_sssp] / [_lookup] / [_join] / [_rehost] /
    [_resubscribe] as counters, which
    [bench/compare.exe]'s allocation-budget section holds to {e exact}
    integer equality: any allocation regression on a hot path fails the
    gate. *)

val run : ?scale:int -> unit -> Tableout.block list
(** Registry entry; [scale] is accepted for registry uniformity but the
    op fixtures are fixed-size (budgets must be exact, not
    scale-dependent). *)
