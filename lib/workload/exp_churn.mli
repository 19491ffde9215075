(** Churn & fault-injection experiment: failure storms over every overlay.

    The paper's central claim (§3.3–3.4, §5.2) is that global soft-state
    plus publish/subscribe maintenance keeps topology-aware overlays
    accurate {e under change}.  This workload drives all five overlays —
    eCAN with the full soft-state/pub-sub machinery, plain CAN on the same
    substrate, and Chord / Pastry / Koorde under periodic stabilisation —
    through
    the {e same} seeded fault storm (fail-stop crashes, graceful leaves,
    join bursts, stale-state injection, lossy/delayed notification
    delivery) and reports, per overlay:

    - routing stretch before the storm, right after it, and once repaired;
    - {e repair latency}: time from the end of the storm until the
      convergence oracle first passes;
    - {e repair work}: slot re-selections (eCAN) or stabilisation
      selector invocations (Chord/Pastry/Koorde);
    - notification overhead and channel drops (eCAN's pub/sub plane).

    Everything is deterministic from the seed: re-running with the same
    seed reproduces the metrics bit for bit. *)

type outcome = {
  overlay : string;
  stretch_before : float;
  stretch_storm : float;  (** measured at the end of the storm, pre-repair *)
  stretch_repaired : float;  (** measured at the settle horizon *)
  repair_ms : float;  (** convergence time after storm end; nan if never *)
  repair_work : int;
  notifications : int;  (** pub/sub notifications sent (eCAN only) *)
  drops : int;  (** notifications lost to the faulty channel *)
  converged : bool;
}

val ecan_convergence : Core.Builder.t -> (unit, string) result
(** Convergence oracle for the eCAN: snapshot the (post-churn) expressway
    tables, rebuild them from scratch under the builder's strategy,
    compare, and restore the snapshot.  Passes when the churned tables
    match the clean rebuild within 2%: at most
    that fraction of slots may hold a dead / out-of-region representative,
    be unfilled where the rebuild fills them, or be filled where the
    rebuild cannot. *)

val ring_convergence : seed:int -> Backend.t -> (unit, string) result
(** Convergence oracle for Chord, Pastry and Koorde: the backend's
    invariants hold (structure plus table completeness, see
    {!Backend.t}) and 64 seeded random routes all terminate at the key's
    owner. *)

type actions = {
  crash : int -> unit;  (** fail-stop removal of the victim *)
  leave : int -> unit;  (** graceful departure of the victim *)
  join : int -> unit;  (** arrival of the newcomer *)
  expire : float -> string;
      (** a staleness burst of this fraction; returns the trace note *)
}
(** How one overlay applies a resolved fault. *)

val install_storm :
  Engine.Faults.t ->
  sim:Engine.Sim.t ->
  storm:Engine.Faults.storm ->
  rng:Prelude.Rng.t ->
  nodes:int ->
  members:(unit -> int array) ->
  actions ->
  unit
(** The one fault resolver: draw the storm's plan from the injector and
    install it on [sim], resolving each fired event against live state.
    A crash or leave picks its victim with [Rng.pick rng] over
    [members ()], and only while more than 8 members remain.  A join takes
    the next joiner: physical nodes below [nodes] outside the membership
    at install time, in id order, until they run out.  Every resolution is
    {!Engine.Faults.note}d (["crash node 17"], ["leave node 3"], ["join
    node 40"], then the [expire] action's own note), so the injector's
    trace digest records what each event did. *)

val install_ecan_storm :
  Engine.Faults.t ->
  sim:Engine.Sim.t ->
  storm:Engine.Faults.storm ->
  rng:Prelude.Rng.t ->
  Core.Maintenance.t ->
  Core.Builder.t ->
  unit
(** {!install_storm} for an eCAN under maintenance: the members are the
    CAN's, crashes, leaves and joins go through {!Core.Maintenance}, and a
    staleness burst ages store entries with
    {!Softstate.Store.inject_staleness}, drawing on the same [rng] as the
    victim picks. *)

type phase = Before | Storm | Repaired

type 'a timeline = {
  before : 'a;  (** measured before the storm *)
  storm : 'a;  (** measured at the end of the storm, pre-repair *)
  repaired : 'a;  (** measured at the settle horizon *)
  repair_ms : float;  (** storm end to the first passing check; nan if never *)
  converged : bool;
}

val storm_timeline :
  Engine.Sim.t ->
  storm:Engine.Faults.storm ->
  measure:(phase -> 'a) ->
  converged:(unit -> (unit, string) result) ->
  'a timeline
(** The one storm timeline every churn row runs, on a simulation whose
    storm is already installed: [measure Before], run to the storm's end,
    [measure Storm], arm a convergence check every 10 s that cancels
    itself the first time [converged] passes, run 240 s to the settle
    horizon, [measure Repaired].  A check that never passed in the window
    gets one more try at the horizon, which counts as [repair_ms = 240000]
    if it passes. *)

val ecan_outcomes :
  ?size:int ->
  ?seed:int ->
  ?storm:Engine.Faults.storm ->
  ?channel:Engine.Faults.channel ->
  ?shards:int ->
  ?digest_window:float ->
  ?probe_window:int ->
  ?labels:(string * string) list ->
  ?strategy:Core.Strategy.t ->
  Topology.Oracle.t ->
  outcome * outcome
(** Drive an eCAN (with pub/sub repair, liveness polling, TTL sweeps and
    periodic table audit) through the storm; the second outcome is the
    plain-CAN greedy-routing baseline measured on the same substrate at
    the same instants.  [size] defaults to 256 members.  [shards]
    (default 1) shards the soft-state store's TTL machinery
    ({!Softstate.Store.create}); [digest_window] (default 0, i.e. off)
    batches notifications into per-(subscriber, region) digests
    ({!Pubsub.Bus.create}); [probe_window] (default 1, i.e. sequential)
    sets the probe plane's concurrency ({!Engine.Probe}) — it changes
    modelled probe wall-clock only, never which probes are sent.  [labels] (default [[("experiment", "churn")]]) is
    the label set the whole eCAN stack reports under in the global
    registry, so other experiments (e.g. the big-scale rows) can reuse
    this driver without colliding with the churn experiment's
    instruments.  [strategy]
    (default: the builder's default hybrid selection) overrides the
    neighbor-selection strategy — the degree experiment sweeps RTT
    budgets through it. *)

val hybrid : prober:Engine.Probe.t -> vector_of:(int -> float array) -> Backend.pick
(** The churn rows' selection policy: {!Backend.hybrid_pick} with a
    budget of 5 RTT probes. *)

val ring_outcome :
  size:int ->
  seed:int ->
  storm:Engine.Faults.storm ->
  pick:(prober:Engine.Probe.t -> vector_of:(int -> float array) -> Backend.pick) ->
  Backend.kind ->
  Topology.Oracle.t ->
  outcome
(** A Chord, Pastry or Koorde overlay of [size] members under the storm,
    repaired by periodic stabilisation (a full table rebuild every 20 s).
    [pick] builds the selection policy from this run's plain prober
    (default configuration, no instruments; every RTT of the row goes
    through it) and memoised landmark vectors (15 landmarks drawn from
    the seed, measured by that prober); {!hybrid} is the
    churn experiment's own, the degree experiment injects budgeted and
    random ones.  [repair_work] counts selection calls after the initial
    build. *)

val run : ?scale:int -> ?seed:int -> unit -> Tableout.block list
(** The registry entry: default storm and channel, tsk-large/manual
    topology, overlay size scaled by [scale]. *)

val run_custom :
  ?scale:int ->
  ?seed:int ->
  ?shards:int ->
  ?digest_window:float ->
  ?probe_window:int ->
  storm:Engine.Faults.storm ->
  channel:Engine.Faults.channel ->
  unit ->
  Tableout.block list
(** [run] with an explicit storm, channel, store sharding, digest window
    and probe window (the CLI hook; the maintenance-plane knobs only
    affect the eCAN row). *)
