(** Trace-driven repair-latency sweep and adaptive-maintenance comparison.

    Runs the eCAN + pub/sub stack under a seeded churn storm once per
    maintenance configuration — a grid over refresh period x sweep period
    x digest window, plus one adaptive run ({!Core.Maintenance.start}'s
    [?adapt]) — and, instead of a convergence oracle, measures repair from
    the {!Engine.Trace} span stream itself: {!Engine.Repair.analyze}
    correlates every injected fault with the departure notifications that
    repaired it and reports the latency tail (p50/p95/p99/max) per
    configuration.  The printed table is the experiment's product; the
    same numbers land in the metrics registry (histograms
    [repair_latency_ms] / [repair_detection_ms] / [repair_first_notify_ms]
    and counters [repair_faults] / [repair_repaired] /
    [repair_unrepaired], labelled [experiment=repair] and
    [config=<label>]) so [bench --json] can gate the tail against a
    baseline. *)

type config = {
  label : string;  (** metrics label and table row name *)
  refresh : float;  (** refresh period, ms *)
  sweep : float;  (** sweep period, ms *)
  digest_window : float;  (** notification digest window, ms *)
  adapt : Engine.Repair.policy option;  (** adaptive controller, or fixed periods *)
}

type result = {
  config : config;
  report : Engine.Repair.report;
  final_refresh : float;  (** period armed when the run ended *)
  final_sweep : float;
  adaptations : int;  (** controller decisions that moved a period (0 when fixed) *)
}

val adaptive : config
(** The adaptive run: starts from the hand-picked constants and lets a
    bounded controller retune them from observed repair latencies
    (refresh clamped below the soft-state TTL so live entries never
    flap). *)

val run_config : ?scale:int -> ?seed:int -> ?metrics:Engine.Metrics.t -> config -> result
(** One storm under one configuration.  Deterministic: the same (scale,
    seed, config) always yields the same report and — with a fresh
    [metrics] registry — byte-identical metrics JSON.  [metrics] defaults
    to {!Engine.Metrics.global}. *)

val run : ?scale:int -> ?seed:int -> unit -> Tableout.block list
(** The whole sweep into one table: the fixed-period grid (refresh
    {20 s, 40 s} x sweep {2.5 s, 5 s, 10 s} x digest {0, 50 ms}, twelve
    configurations including the hand-picked churn-experiment constants,
    labelled ["r20/s5/d0"]), {!adaptive}, and an
    adaptive run that decides on the delivered window's 90th percentile
    and also tunes the bus digest window.  The adaptive row's p99 is
    compared against the hand-picked constants'. *)
