(** Soft-state upkeep and demand-driven neighbor re-selection (§5.2).

    Ties the overlay to the discrete-event engine: members periodically
    refresh their published soft state (which otherwise expires), expired
    entries are swept, and members subscribe to the map regions behind
    their expressway table slots so that the appearance of a closer
    candidate — or the departure of the current one — triggers a
    re-selection instead of a periodic blind poll. *)

type t

val start :
  sim:Engine.Sim.t ->
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  ?trace:Engine.Trace.t ->
  ?refresh_period:float ->
  ?sweep_period:float ->
  ?channel:(float -> float option) ->
  ?digest_window:float ->
  ?adapt:Engine.Repair.policy ->
  Builder.t ->
  t
(** Begin periodic refresh (default every 200,000 ms, well inside the
    default 600,000 ms TTL) and expiry sweeps (default every 100,000 ms).
    Sweeps run through the bus, so TTL expiry of a never-retracted entry
    (a crashed node) notifies its [Departure_of] watchers.  When the
    builder's store is sharded ([config.shards] > 1), each shard gets its
    own sweep timer, staggered evenly across the sweep period, so one
    sweep event never walks the whole store.  (A per-shard sweep event
    scans and purges its shard on the coordinator, between pool batches,
    per the DESIGN.md §12 contract, so it never dispatches to the domain
    pool.)  [channel] and
    [digest_window] are passed to {!Pubsub.Bus.create} — wire
    {!Engine.Faults.perturb} into [channel] to subject notification
    delivery to loss and extra delay; a positive [digest_window] batches
    per-(subscriber, region) notifications into digests.  The builder
    must have been constructed with [~clock] reading this simulation's
    time for expiry to be meaningful.

    [metrics] / [labels] / [trace] are handed to the bus (notification
    counters and [Notify] spans) and additionally maintain
    [maintenance_reselections] / [maintenance_refreshes] /
    [maintenance_crashes] counters mirroring {!reselections},
    {!refreshes} and the {!node_crashes} calls.  With [trace], every
    {!node_crashes} / {!node_departs} call also emits a victim-tagged
    [Fault_inject Crash] / [Fault_inject Leave] span (node = victim) —
    the anchor {!Engine.Repair.analyze} correlates repair traffic
    against.

    [adapt] (default off) turns on adaptive maintenance: an
    {!Engine.Repair.controller} seeded with the starting periods (clamped
    into the policy bounds) observes the repair latency of every delivered
    departure notification about a node previously passed to
    {!node_crashes}, deciding on the window's [sample_pct] percentile of
    those delivered latencies, and whenever the controller moves, the
    refresh and sweep timers are cancelled and re-armed at the new
    periods.  A policy with [max_digest > 0] additionally tunes the bus's
    digest window ({!Pubsub.Bus.set_digest_window} — digests already open
    keep their schedule), starting from [digest_window] clamped into the
    digest bounds.  Without [adapt] nothing is observed, no extra
    instruments are registered, and scheduling is byte-identical to
    earlier releases.  With both [adapt] and [metrics], the run
    additionally maintains [maintenance_refresh_period_ms] /
    [maintenance_sweep_period_ms] gauges, a [maintenance_adaptations]
    counter and a [maintenance_repair_sample_ms] histogram — plus a
    [maintenance_digest_window_ms] gauge when the policy tunes the
    digest. *)

val bus : t -> Pubsub.Bus.t
(** The pub/sub bus wired to the overlay's store.  Notification delivery
    latency models dissemination over the overlay (the physical latency
    of the eCAN route from the map host to the subscriber). *)

val stop : t -> unit
(** Cancel the periodic timers and deactivate the subscriptions. *)

val enable_liveness_polling : t -> ?period:float -> is_alive:(int -> bool) -> unit -> unit
(** §5.2's middle maintenance policy: map hosts periodically poll the
    liveliness of the nodes whose entries they store and retract (with
    departure notifications) the entries of dead ones.  [is_alive]
    defaults the polling to overlay membership when you pass
    [Can.Overlay.mem]; any predicate works (e.g. a failure injector).
    [period] defaults to 300,000 ms.  Stopped by {!stop}. *)

val subscribe_all_slots : t -> unit
(** Every member subscribes, for each filled table slot, to the slot's
    region with a [Closer_than] condition at its current representative
    distance, plus a [Departure_of] watch on the representative.  Matching
    notifications re-run selection for just that slot. *)

val node_departs : t -> int -> unit
(** Proactive departure of a member: retract its soft state (notifying
    watchers), remove it from the overlay, rehost entries.  Like
    {!node_crashes}, it re-selects only the slots the takeover left
    stale ({!Builder.stale_slots}) and drops only the departed node's
    own watches, which are kept per node: its cost follows what the
    departure touches, not the overlay size. *)

val node_crashes : t -> int -> unit
(** Fail-stop failure: the member vanishes from the overlay (the
    simulator's global view stands in for CAN's zone-takeover protocol,
    run by the surviving nodes) but its soft-state entries are NOT
    retracted — they linger, unrefreshed, until the TTL sweep or liveness
    polling turns them into departure notifications.  Routing-table slots
    pointing at the dead node dangle until that detection triggers
    re-selection. *)

val enable_table_audit : t -> ?period:float -> unit -> unit
(** Periodic local self-check (default every 400,000 ms): each member
    walks its own expressway slots and re-runs selection for any slot
    whose representative is dead or no longer inside the slot's region,
    and for any unfilled slot whose region has members — the safety net
    that re-converges tables when a notification was lost by a faulty
    channel.  Stopped by {!stop}. *)

val node_joins : t -> int -> unit
(** Dynamic join through the pub/sub plane: the newcomer enters the CAN,
    publishes its soft state via the bus (so [Closer_than] /
    [Any_new_entry] watchers fire), builds and watches its own table, and
    the node whose zone was split refreshes its (now deeper) table. *)

val reselections : t -> int
(** Number of slot re-selections performed so far (observability). *)

val refreshes : t -> int
(** Number of entry refreshes performed so far. *)

val refresh_period : t -> float
(** The refresh period currently armed (changes only under [?adapt]). *)

val sweep_period : t -> float
(** The sweep period currently armed (changes only under [?adapt]). *)

val controller : t -> Engine.Repair.controller option
(** The adaptive controller, when [?adapt] was given. *)
