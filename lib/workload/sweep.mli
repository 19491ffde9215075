(** The two stretch sweeps the evaluation is made of, each with one
    owner: overlay routing stretch of a builder's tables under a
    neighbour-selection strategy (Figs 10-16, §5.4), and nearest-neighbour
    stretch averaged at a list of RTT budgets (Figs 3-6, §5.5).  Both
    record into {!Engine.Metrics.global}. *)

val gauge : ?labels:Engine.Metrics.labels -> string -> float -> unit
(** Set the gauge [name] under [labels] in the global registry. *)

(** Where a route cell records its measurement. *)
type record =
  | Gauge of string * Engine.Metrics.labels
      (** the mean stretch, as the gauge of this name *)
  | Histogram of Engine.Metrics.labels
      (** every pair's stretch, in the [route_stretch] histogram, so
          [bench --json] holds the distribution and not only the mean *)

val route :
  ?fill:Core.Strategy.t -> ?record:record -> pairs:int -> Core.Builder.t -> Core.Measure.report
(** [route ?fill ?record ~pairs b]: one route cell.  With [fill], first
    refill [b]'s tables under that strategy ({!Core.Builder.rebuild_tables},
    which draws its fallback picks from the builder's rng); then measure
    {!Core.Measure.route_stretch} over [pairs] pairs and record it as
    [record] says (nothing without [record]). *)

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

val nn_gauge : experiment:string -> algo:string -> int -> float -> unit
(** Record one NN-stretch cell: the [nn_stretch] gauge labelled
    [experiment], [algo] and [rtts] (the budget). *)
