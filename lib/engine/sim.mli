(** Deterministic discrete-event simulation core.

    A simulation owns a virtual clock (milliseconds, matching link
    latencies) and an event queue.  Callbacks may schedule further events.
    Execution is single-threaded and fully deterministic: events fire in
    nondecreasing time order, and events scheduled for the same instant
    fire in the order they were scheduled — the total order is the pair
    [(time, seq)] where [seq] is the global scheduling sequence number.

    This ordering is the spine of the {e determinism contract}
    (DESIGN.md §12): a seed fixes every event, and same-instant events
    merge by [(time, seq)], so two runs with one seed replay the same
    event order byte for byte. *)

type t

type timer
(** Handle for a scheduled (possibly periodic) event. *)

val create : ?metrics:Metrics.t -> unit -> t
(** Fresh simulation with the clock at 0.  With [metrics], the engine
    maintains the [sim_events_run] and [sim_events_cancelled] counters
    (cancelled events are counted when they are reaped from the queue). *)

val now : t -> float
(** Current virtual time. *)

val schedule : t -> delay:float -> (unit -> unit) -> timer
(** [schedule sim ~delay f] fires [f] once at [now + delay].  [delay] must
    be >= 0; raises [Invalid_argument] otherwise. *)

val schedule_at : t -> float -> (unit -> unit) -> timer
(** Fire once at an absolute time (>= [now]). *)

val every : t -> period:float -> (unit -> unit) -> timer
(** [every sim ~period f] fires [f] at [now + period], then every [period]
    until cancelled.  [period] must be > 0. *)

val cancel : timer -> unit
(** Cancel a timer; cancelling an already-fired or cancelled timer is a
    no-op.  Cancelling a periodic timer from inside its own callback is
    safe: the occurrence already queued for the next period is deactivated
    and the timer never fires again. *)

val pending : t -> int
(** Number of events still queued (cancelled events may be counted until
    they are reaped). *)

val next_time : t -> float option
(** Timestamp of the earliest queued event, or [None] on an empty queue.
    [next_time t > Some (now t)] exactly when the current instant has run
    to completion — the boundary at which domain-parallel phases are
    allowed to observe state (cancelled events still count until
    reaped). *)

val step : t -> bool
(** Run the next event, advancing the clock.  Returns [false] when the
    queue is empty. *)

val run : ?until:float -> t -> unit
(** Run events until the queue empties or the clock would pass [until]
    (events strictly after [until] remain queued and the clock is advanced
    to [until]). *)
