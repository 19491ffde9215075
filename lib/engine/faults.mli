(** Deterministic fault injection for the discrete-event engine.

    A fault injector owns a seeded RNG from which it derives (a) a {e fault
    plan} — a schedule of membership faults (fail-stop crashes, graceful
    departures, join storms) and soft-state staleness bursts — and (b) a
    {e lossy channel} that perturbs individual message deliveries with
    extra delay or outright loss.

    The injector is engine-level and overlay-agnostic: plan events carry
    {e kinds} of faults, not victims.  The driver that installs the plan
    resolves each event against live overlay state (pick a victim, pick a
    joiner) using its own seeded randomness, and can {!note} the
    resolution into the injector's trace.

    Everything the injector decides is appended to an in-order textual
    trace, so two runs from the same seed can be compared byte for byte —
    the determinism contract the replay tests rely on. *)

type action =
  | Crash  (** fail-stop removal of one member: no retraction, state rots *)
  | Leave  (** graceful departure of one member (proactive retraction) *)
  | Join  (** arrival of one fresh member *)
  | Expire of float
      (** force this fraction of live soft-state entries to expire
          immediately (stale-state injection) *)

type event = { at : float; action : action }

type storm = {
  crashes : int;
  leaves : int;
  joins : int;
  expire_bursts : int;
  expire_fraction : float;
  start : float;  (** first possible fault time (ms) *)
  spread : float;  (** faults fall uniformly in [start, start + spread) *)
}

val default_storm : storm
(** 8 crashes, 8 leaves, 16 joins, 2 staleness bursts of 10%, spread over
    [10 s, 40 s). *)

type channel = {
  loss : float;  (** per-message drop probability *)
  delay_min : float;  (** extra delivery delay, uniform in [min, max) ms *)
  delay_max : float;
}

val reliable : channel
(** No loss, no extra delay. *)

type t

val create : ?channel:channel -> ?trace:Trace.t -> seed:int -> unit -> t
(** Fresh injector.  [channel] defaults to {!reliable}.  With [trace],
    every fired plan event and every channel drop additionally emits a
    [Fault_inject] span (the textual trace of {!trace_digest} is
    unaffected). *)

val plan : t -> storm -> event list
(** Draw a fault plan for the storm, sorted by time (ties keep generation
    order).  Deterministic: the same injector seed and storm always yield
    the same plan.  The plan is recorded in the trace. *)

val install : t -> sim:Sim.t -> plan:event list -> handler:(event -> unit) -> unit
(** Schedule every plan event on the simulation.  When an event fires, it
    is appended to the trace and handed to [handler] for resolution
    against live overlay state. *)

val perturb : t -> float -> float option
(** [perturb t base] decides one message's fate under the channel: [None]
    if it is lost, [Some total_delay] (base + drawn extra) otherwise.
    Consumes the injector's RNG stream and records the decision, so the
    sequence of fates is deterministic from the seed. *)

val messages : t -> int
(** Messages put through {!perturb} so far. *)

val dropped : t -> int
(** Messages {!perturb} decided to drop. *)

val note : t -> string -> unit
(** Append a driver-side resolution (e.g. ["crash 17"]) to the trace. *)

val trace_digest : t -> string
(** The whole trace as one string — byte-identical across replays of the
    same seed, the property the determinism tests check. *)
