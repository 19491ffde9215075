(** Figures 3-6: finding the nearest neighbor — expanding-ring search vs
    the landmark+RTT hybrid, on tsk-large and tsk-small.

    Stretch here is the NN-search stretch: distance to the node the
    algorithm returns over the distance to the true nearest node,
    averaged over query nodes, as a function of the RTT-measurement
    budget. *)

val fig3 : Run.t -> Tableout.block list
(** ERS vs hybrid on tsk-large (moderate budgets). *)

val fig4 : Run.t -> Tableout.block list
(** ERS alone on tsk-large, budgets into the thousands. *)

val fig5 : Run.t -> Tableout.block list
(** Hybrid on tsk-small. *)

val fig6 : Run.t -> Tableout.block list
(** ERS alone on tsk-small, budgets into the thousands. *)

val data : Run.t -> Ctx.topology_variant -> float array * float array
(** The averaged best-so-far stretch curves [(ers, hybrid)] behind the
    figures ([curve.(k-1)] = stretch after [k] measurements), cached by
    variant, scale and seed; used by the cost experiment.  Records the
    probes each algorithm spent as [rtt_probes] counters in the run's
    registry, cached or not. *)

val stretch_curves :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  seed:int ->
  query_count:int ->
  ers_budget:int ->
  hybrid_budget:int ->
  Topology.Oracle.t ->
  float array list * float array list
(** The figures' setting over every node of the oracle: a 2-d CAN, then
    15 landmarks, then [query_count] query nodes, all drawn in that order
    from [Rng.create seed].  Returns each query's ERS and hybrid
    best-so-far stretch curves ({!Sweep.nn_stretch}), in draw order, with
    [metrics] and [labels] passed to the searches. *)
