(** Trace-driven repair-latency analysis and adaptive maintenance tuning.

    The maintenance plane (soft-state maps + pub/sub notifications) earns
    its keep only if stale routing state is repaired {e quickly} after
    churn.  This module measures that claim from {!Trace} span streams
    instead of trusting hand-picked refresh/sweep constants: it correlates
    each injected fault with the notification traffic that repairs it and
    reports the repair-latency distribution, and it packages the inverse —
    a bounded multiplicative controller that {e tunes} the refresh and
    sweep periods from observed repair latencies
    ({!Core.Maintenance.start}'s [?adapt]).

    {2 Correlation rules}

    The analyzer consumes a span list (usually [Trace.spans tracer]) and
    matches the typed payloads the engine's emitters attach:

    - a [Fault_inject Crash] or [Fault_inject Leave] span with
      [node >= 0] is a {e resolved fault}: the subject node is the victim
      and [at] is the injection time ({!Core.Maintenance.node_crashes} /
      [node_departs] emit these; the plan-level spans of
      {!Engine.Faults} have [node = -1] and are not faults);
    - a [Map_publish {region}] span names the published member in
      [peer]; the set of regions a victim ever published into is its
      {e region set};
    - a [Notify {change = Departed; entry; region}] span ({!Pubsub.Bus})
      about the victim, sent at or after the injection (and, when the
      victim's region set is known, in one of its regions), is
      {e repair traffic}: its [at] is the send time (the instant the
      system {e detected} the fault) and [at +. dur] the delivery time.
      [Published] and [Load_changed] notifications never are;
    - [Ttl_sweep] spans between injection and detection are the sweep
      passes the detection had to wait for;
    - an [Mcast_regraft {lost_parent}] span is structural repair of the
      fault whose victim is [lost_parent].

    Per fault the analyzer reports detection time (first correlated
    notification sent), first-notify and last-notify delivery times (last
    delivery = full repair: every watcher has been told), the count of
    correlated notifications, and the number of republishes into the
    victim's regions up to full repair.  Faults with no correlated
    notification are {e unrepaired}; repaired + unrepaired always equals
    the number of resolved fault spans.  Notifications are attributed to
    the {e latest} fault of that victim at or before their send time, so
    re-injected victims do not cross-talk. *)

type fault_kind = Crash | Leave

type fault = {
  victim : int;
  kind : fault_kind;
  injected_at : float;  (** virtual ms of the resolved [Fault_inject] span *)
}

type record = {
  fault : fault;
  regions : string list;
      (** victim's region set as {!Engine.Trace.region_label}s, sorted (may be
          empty) *)
  detected_at : float;  (** send time of the first correlated notification; nan if unrepaired *)
  first_notify : float;  (** earliest delivery completion; nan if unrepaired *)
  last_notify : float;  (** latest delivery completion = full repair; nan if unrepaired *)
  notifies : int;  (** correlated departure notifications *)
  sweeps : int;  (** [Ttl_sweep] spans in (injection, detection] *)
  republishes : int;  (** [Map_publish] spans into the victim's regions in (injection, last_notify] *)
  regraft_ms : float list;
      (** orphanhood durations of [Mcast_regraft] spans whose
          [lost_parent] is this fault's victim (attributed to
          the latest fault at or before the span, like notifications) —
          the {e structural} repair latency when the victim was a
          dissemination-tree interior node; [[]] when no tree was
          traced *)
}

val repaired : record -> bool
(** At least one correlated notification was sent. *)

val detection_ms : record -> float
(** [detected_at -. injected_at]; nan if unrepaired. *)

val first_notify_ms : record -> float
(** [first_notify -. injected_at]; nan if unrepaired. *)

val repair_ms : record -> float
(** [last_notify -. injected_at] — the full repair latency; nan if
    unrepaired. *)

type dist = { n : int; p50 : float; p95 : float; p99 : float; max : float }
(** Quantiles over a latency sample set ({!Prelude.Stats.percentile}
    semantics); all-zero when empty. *)

val dist_of : float array -> dist

type report = {
  records : record list;  (** one per resolved fault, in injection order *)
  repair : dist;  (** full-repair latencies of the repaired faults *)
  detection : dist;  (** detection latencies of the repaired faults *)
  regraft : dist;  (** tree-regraft latencies attributed to any fault *)
  unrepaired : int;
}

val analyze : Trace.span list -> report
(** Correlate one span stream.  Spans may arrive in any order; the
    analyzer sorts by [(at, seq)] internally.  Deterministic: the same
    span list always yields the same report. *)

val record_metrics : ?labels:Metrics.labels -> Metrics.t -> report -> unit
(** Publish a report: [repair_latency_ms] / [repair_detection_ms] /
    [repair_first_notify_ms] histograms (one sample per repaired fault, in
    injection order) and [repair_faults] / [repair_repaired] /
    [repair_unrepaired] counters.  When the report has correlated tree
    regrafts, additionally a [repair_regraft_ms] histogram and a
    [repair_regrafts] counter — registered only then, so a span stream
    without a dissemination tree keeps its instrument set unchanged. *)

(** {2 Adaptive maintenance policy}

    A {!controller} turns observed repair latencies into bounded
    multiplicative adjustments of the two maintenance periods.  The
    control direction follows the soft-state arithmetic: a crashed node's
    entries expire at [last_refresh +. ttl] and are detected by the next
    sweep after that, so when the observed tail is {e over} target the
    controller {e lengthens} the refresh period (staler entries expire
    sooner after a crash) and {e shortens} the sweep period (expiry is
    noticed sooner); comfortably {e under} target it steps both back
    toward the cheap configuration.  Every step multiplies or divides by
    [step] and clamps into the per-period bounds, so the periods can never
    run away — the property the qcheck suite pins down. *)

type policy = {
  target_ms : float;  (** repair-latency ceiling the controller chases; > 0 *)
  headroom : float;
      (** in (0, 1]: relax only when the decision statistic
          < [headroom *. target_ms] *)
  window : int;  (** observed samples per adjustment decision; >= 1 *)
  sample_pct : float;
      (** the decision statistic: the window's [sample_pct] percentile,
          in (0, 100].  100 (the default) is the window max — the
          original worst-sample rule, byte-identical arithmetic.  Lower
          it (e.g. 90) to tune on the delivered-latency {e tail} while
          ignoring the stray worst sample a lossy channel produces. *)
  step : float;  (** multiplicative step per adjustment; > 1 *)
  min_refresh : float;  (** refresh-period clamp, 0 < min <= max *)
  max_refresh : float;
  min_sweep : float;  (** sweep-period clamp, 0 < min <= max *)
  max_sweep : float;
  min_digest : float;
      (** digest-window clamp.  [max_digest = 0] (the default) disables
          digest tuning entirely: the controller never moves the digest
          window and {!digest_window} is [None].  Enabled
          ([max_digest > 0]) requires [0 < min_digest <= max_digest]. *)
  max_digest : float;
}

val default_policy : policy
(** target 25,000 ms, headroom 0.5, window 3, sample_pct 100, step 2.0,
    refresh in [2,500, 120,000] ms, sweep in [500, 60,000] ms, digest
    tuning off. *)

val tunes_digest : policy -> bool
(** [max_digest > 0]. *)

type controller

val controller : ?refresh:float -> ?sweep:float -> ?digest:float -> policy -> controller
(** Fresh controller starting from the given periods (defaults: the
    maintenance defaults, 200,000 / 100,000 ms, digest window 0), clamped
    into the policy bounds (the digest only when tuning is enabled).
    Raises [Invalid_argument] on out-of-range policy fields. *)

val observe : controller -> float -> bool
(** Feed one observed repair latency (ms).  Every [window]-th sample the
    controller decides on the window's [sample_pct] percentile: over
    target tightens (refresh up, sweep down, digest down), under
    [headroom *. target] relaxes, otherwise hold.  Returns [true] iff
    any period changed (the caller should re-arm its timers and, when
    digest tuning is on, push the new window into the bus). *)

val refresh_period : controller -> float
val sweep_period : controller -> float

val digest_window : controller -> float option
(** The controller's current digest window; [None] when the policy does
    not tune it ([max_digest = 0]). *)

val adjustments : controller -> int
(** Decisions that actually moved a period. *)

val observed : controller -> int
(** Samples fed so far. *)
