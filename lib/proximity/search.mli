(** Nearest-neighbor search algorithms under comparison (paper §4).

    All three algorithms spend a budget of RTT measurements and return the
    closest node found; the interesting output is the whole {e curve} of
    best-so-far distance as a function of measurements spent, which is
    what Figures 3–6 plot.

    - {e Expanding-ring search} (ERS) floods outward over overlay links,
      blindly probing every visited node.
    - {e Landmark ordering} picks the single candidate whose landmark
      vector is closest (1 RTT to confirm) — the first point of the hybrid
      curve.
    - The {e hybrid} uses landmark clustering as pre-selection: probe
      candidates in order of landmark-space distance. *)

type curve = {
  found : int array;  (** [found.(i)]: best node after [i+1] measurements *)
  dist : float array;  (** physical distance to [found.(i)] *)
  elapsed : float;
      (** modelled wall-clock cost (ms) of the probes under the prober's
          schedule: the sum of the measured RTTs for a window-1 prober *)
}
(** Best-so-far trajectory; both arrays have length = measurements
    actually spent (at most the budget). *)

val true_nearest : Topology.Oracle.t -> query:int -> candidates:int array -> int * float
(** Ground truth nearest candidate (excluding the query itself).  Raises
    [Invalid_argument] if there is no other candidate. *)

val ers_curve :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  Engine.Probe.t ->
  Can.Overlay.t ->
  query:int ->
  budget:int ->
  curve
(** Expanding-ring search over the CAN neighbor graph, starting at the
    query node (which must be a member): breadth-first rings, probing
    every ring member until the budget runs out.  Deterministic (rings
    scanned in node-id order).

    Every curve function measures through its prober, which owns the
    measurement function: each breadth-first ring (one batch for the
    pre-selection searches) is issued concurrently under the prober's
    window, and the modelled wall-clock accumulates into
    [curve.elapsed].  Budget accounting, probe order and probed values
    do not depend on the window, so the curve itself is the same for
    every window — the plane only prices it.  A probe the prober fails
    spends budget without improving the best-so-far.  With [metrics],
    each probe increments an [rtt_probes] counter labeled
    [algo=<algorithm>] plus any extra [labels]. *)

val hybrid_curve :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  Engine.Probe.t ->
  vector_of:(int -> float array) ->
  candidates:int array ->
  query:int ->
  budget:int ->
  curve
(** Landmark+RTT hybrid: rank [candidates] (minus the query) by
    landmark-vector distance to the query's vector and probe in that
    order.  [hybrid_curve ... ~budget:1] is the landmark-ordering-only
    baseline. *)

val ranked_curve :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  ?algo:string ->
  Engine.Probe.t ->
  score:(int -> float) ->
  candidates:int array ->
  query:int ->
  budget:int ->
  curve
(** Generalised pre-selection: probe candidates in ascending [score]
    order, ties to the lower node id.  {!hybrid_curve} is [ranked_curve]
    with the landmark-vector distance as score; the §5.5 optimisations
    (landmark groups, hierarchical landmark spaces) plug in their own
    scores.  [algo] (default ["ranked"]) names the algorithm in the
    [rtt_probes] metric label. *)

val hill_climb_curve :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  Engine.Probe.t ->
  Can.Overlay.t ->
  query:int ->
  budget:int ->
  curve
(** Hill climbing over overlay links (the "heuristic approach" of §1):
    probe the current node's CAN neighbors one {!Engine.Probe.rtt} at a
    time and move to the closest; stop at a local minimum even if budget
    remains — exhibiting exactly the local-minimum pitfall the paper
    warns about. *)

val stretch_curve : curve -> optimal:float -> float array
(** Pointwise [dist /. optimal]; when the optimal distance is 0 the
    stretch is defined as 1 if found coincides, else infinity. *)
