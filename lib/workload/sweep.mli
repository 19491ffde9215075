(** The two stretch sweeps the evaluation is made of, each with one
    owner: overlay routing stretch of a builder's tables under a
    neighbour-selection strategy (Figs 10-16, §5.4), and nearest-neighbour
    stretch averaged at a list of RTT budgets (Figs 3-6, §5.5). *)

val route :
  ?fill:Core.Strategy.t ->
  ?into:Engine.Metrics.histogram ->
  pairs:int ->
  Core.Builder.t ->
  Core.Measure.report
(** [route ?fill ?into ~pairs b]: one route cell.  With [fill], first
    refill [b]'s tables under that strategy ({!Core.Builder.rebuild_tables},
    which draws its fallback picks from the builder's rng); then measure
    {!Core.Measure.route_stretch} over [pairs] pairs.  With [into] (a
    histogram of the run's registry), every pair's stretch is also
    observed there, so [bench --json] holds the distribution and not
    only the mean. *)

val mean : Core.Measure.report -> float
(** The report's mean stretch. *)

val nn_stretch :
  Topology.Oracle.t ->
  candidates:int array ->
  queries:int array ->
  (int -> Proximity.Search.curve) ->
  float array list
(** [nn_stretch oracle ~candidates ~queries curve]: for each query, in
    array order, [curve query]'s stretch over the distance to the query's
    true nearest candidate ({!Proximity.Search.stretch_curve}). *)

val nn_average : budgets:int list -> float array list -> float array
(** [nn_average ~budgets curves]: entry [i] is the mean over [curves] of
    each curve's value after [List.nth budgets i] measurements.  A curve
    shorter than a budget keeps its last value.  Sums in list order, so
    the caller's list order fixes the float result. *)

val nn_table :
  experiment:string ->
  title:string ->
  first:string ->
  budgets:int list ->
  (string * string * float array) list ->
  Tableout.t
(** [nn_table ~experiment ~title ~first ~budgets columns]: one row per
    budget, headed [first], then one cell per [(header, algo, values)]
    column: [values.(i)] for the [i]th budget, as the [nn_stretch] gauge
    labelled [experiment], [algo] and [rtts] (the budget). *)
