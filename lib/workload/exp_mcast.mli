(** Dissemination-tree comparison over the soft-state maps.

    Runs one {!Engine.Mcast} group — same subscribers, same seeded
    publish schedule, same churn storm — over six backend rows: eCAN trees
    with soft-state-aware placement, the same eCAN overlay with random
    placement (the control arm), plain greedy CAN, Chord, Pastry and
    Koorde (the constant-degree de Bruijn frontier).
    The static phase (before the storm) delivers to an identical group
    on the aware and random rows, so the stretch / link-stress /
    delivered-latency gaps are pure placement; the churn phase crashes,
    departs and joins group members, with parent loss detected through
    real [Departure_of] watches on the pub/sub bus (a crashed parent's
    entries must TTL-expire and be swept first), so the reported regraft
    latency includes the soft-state plane's genuine detection delay.

    Per-row metrics land under [experiment=mcast] / [backend=<label>]
    (the [mcast_*] counters and histograms from {!Engine.Mcast.create});
    {!run} adds the per-row [mcast_*] gauges (labelled
    [backend=<label>]) and the headline gauges the CI gate holds —
    [mcast_random_over_aware_p50] / [_p99] / [_stretch_p50] / [_stress]
    (all > 1 when placement pays) and [mcast_delivered_equal]. *)

type stats = {
  label : string;  (** backend row name, e.g. ["ecan aware"] *)
  static_lat : float array;  (** per-delivery latency, ms, static phase *)
  static_stretch : float array;  (** per-delivery stretch vs direct route *)
  static_delivered : int;
  static_stress_max : int;  (** most traversals of one link in one publish *)
  static_stress_mean : float;  (** traversals per distinct physical link *)
  static_traversals : int;  (** total physical link traversals *)
  static_cost_ms : float;
      (** resource usage over the static phase (sum of per-publish
          {!Engine.Mcast.delivery}[.cost_ms]) — the aggregate network
          cost the aware/random stress gauge compares *)
  churn_lat : float array;  (** per-delivery latency during the storm *)
  regrafts : int;  (** orphaned subtrees re-attached *)
  regraft : Engine.Repair.dist;
      (** orphanhood durations (fault to regraft), correlated from the
          [Mcast_regraft] trace spans by {!Engine.Repair.analyze} *)
}

val backend_of : Backend.service -> Engine.Mcast.backend
(** The tree rows' projection of the shared service adapter: every
    field but [home_of] and the upkeep hooks carries over; the rows
    apply [on_remove]/[on_join] themselves on each churn event. *)

val data :
  ?seed:int ->
  ?group_size:int ->
  ?degree:int ->
  ?policy:Engine.Mcast.policy ->
  Run.t ->
  stats list
(** Run the comparison and return one {!stats} per backend row, in table
    order.  [policy] restricts the eCAN pair to one placement arm
    (default: both, first [Aware] then [Random]).  [degree] is the tree
    fanout bound (default 3), [group_size] the subscriber count (default
    scales with the run's scale, clamped to the overlay).  Every row
    records into the run's registry.  The determinism contract (DESIGN
    §12) holds: on a fresh run the metrics JSON is byte-identical across
    repeated same-seed runs. *)

val run :
  ?seed:int ->
  ?group_size:int ->
  ?degree:int ->
  ?policy:Engine.Mcast.policy ->
  Run.t ->
  Tableout.block list
(** {!data} as a table whose cells are per-row [mcast_*] gauges and
    the tree's own counters, labelled [backend=<label>], in the run's
    registry; also the row gauges no column prints
    ([mcast_stretch_p99], [mcast_stress_max], [mcast_traversals],
    [mcast_churn_delivery_p50_ms] / [_p99_ms] and, only when the row
    re-grafted anything, [mcast_regraft_p99_ms]) and the headline
    aware-vs-random gauges (only when both eCAN rows ran). *)

