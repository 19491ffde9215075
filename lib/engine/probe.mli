(** Synchronous RTT probe plane.

    Every RTT measurement a node spends — landmark-vector probing at join,
    per-slot candidate selection, nearest-neighbor search, landmark
    embedding — goes through a {e prober}: a simulated-time subsystem that
    owns the measurement function and models what issuing those probes
    over a real network costs in wall-clock time.  No other code in the
    libraries calls a measurement function.  Probing is one synchronous
    step: {!run_batch} and {!rtt} measure at once and return the modelled
    completion time; nothing is scheduled on a simulation.

    A {e plain} prober, [create ~measure:(Topology.Oracle.measure oracle) ()],
    has the default config and no metrics or trace: it
    measures exactly what a direct loop over the measurement function
    would, in the same order, and returns each value unchanged.  The
    experiments that need RTTs but not their price create one per row.

    A prober admits probes through a configurable {e concurrency window}
    of [window] in-flight probes per submitted operation; probes beyond
    the window queue FIFO and start as slots free up.  Each probe is one
    measurement, which always succeeds and occupies its slot for exactly
    the measured RTT, as the paper prices a probe.  Measurements can be
    remembered in a TTL'd per-[(src, dst)] RTT cache with hit/miss/
    stale accounting.  The cache keys a pair by one int, so with the
    cache on ([cache_ttl > 0]) every probe's [src] and [dst] must lie in
    [\[0, 2^31)]: {!run_batch} and {!rtt} raise [Invalid_argument]
    otherwise.  Re-measuring a cached pair updates its entry in place.

    Timing is modelled, not executed: a batch submitted at virtual time
    [t] deterministically computes each member's completion time from the
    measured RTTs and the window occupancy.
    With [window >= n] a batch of [n] probes completes at [t + max rtt];
    with [window = 1] it degenerates to the sequential path ([t + sum]) —
    byte-identical results, measurement count and order to calling the
    measurement function in a loop, which is the seed behaviour every
    default-configured consumer preserves.

    Determinism rules: measurement order is the submission (FIFO) order
    and slot assignment ties resolve to the lowest slot index, so the
    same measurement function replays the same batch timings byte for
    byte.

    Every measurement runs in submission order on the caller. *)

type config = {
  window : int;  (** concurrent in-flight probes per operation, >= 1 *)
  cache_ttl : float;  (** RTT cache entry lifetime (ms); 0 disables the cache *)
}

val default_config : config
(** [window = 1], [cache_ttl = 0.0] — the seed's sequential, uncached
    path. *)

type failure
(** Has no values: a probe always succeeds.  {!rtt} keeps its [result]
    type only so [bench/perf] builds unchanged; ROADMAP item 3 makes it a
    plain [float]. *)

type batch = {
  results : float array;
      (** per-destination measured round-trip time, in submission order *)
  started : float;  (** virtual time the batch was submitted *)
  finished : float;
      (** virtual time the last member completed; [max] over members, so a
          batch that fits the window finishes at [started + max rtt] *)
}

val elapsed : batch -> float
(** [finished -. started]. *)

type t

val create :
  ?metrics:Metrics.t ->
  ?labels:Metrics.labels ->
  ?trace:Trace.t ->
  ?clock:(unit -> float) ->
  ?pool:Dpool.t ->
  ?config:config ->
  measure:(int -> int -> float) -> unit -> t
(** Fresh prober around a measurement function (typically
    [Topology.Oracle.measure oracle], so probes keep feeding the oracle's
    measurement-budget counter).

    [clock] stamps each batch's start (default: frozen at 0; pass
    [fun () -> Sim.now sim] to run under the engine).

    [pool] is ignored ({!Dpool} is a stub); it is kept only so
    [bench/perf] builds, and ROADMAP item 3 deletes it.

    With [metrics], the prober maintains [probe_*] counters and the
    [probe_queue_wait]/[probe_batch_ms] histograms.  With [trace], each
    fresh measurement emits an [rtt_probe] span whose note carries the
    queue wait ([q=<ms>]).

    Raises [Invalid_argument] on out-of-range config fields. *)

val run_batch : t -> src:int -> dsts:int array -> batch
(** Synchronously measure [src]'s RTT to every destination, modelling the
    batch's wall-clock cost under the window's schedule.  The
    measurements happen now (in submission order, cache hits excepted);
    the returned {!batch} carries the modelled completion time.  Cache
    hits resolve instantly without occupying a window slot.

    Destinations may repeat; each repeat that misses the cache measures
    again.  Apart from what metrics, tracing and the cache record, a
    batch allocates only its result and window-slot arrays. *)

val rtt : t -> src:int -> dst:int -> (float, failure) result
(** One-probe {!run_batch}: the same RTT (always [Ok]), counters,
    [probe_batch_ms] sample, spans, {!total_elapsed} and single clock
    read.  A fresh cache hit is served without building the batch. *)

val probes : t -> int
(** Probes submitted so far (cache hits included). *)

val cache_hits : t -> int
val cache_misses : t -> int

val cache_stale : t -> int
(** Cache lookups that found only an expired entry (counted on top of the
    miss that re-measures). *)

val invalidate : t -> int -> unit
(** Drop every cached RTT touching the given node (either endpoint) —
    call when a node leaves or crashes so its RTTs cannot be served
    stale-fresh. *)

val total_elapsed : t -> float
(** Sum of modelled batch wall-clock times over every
    {!run_batch}/{!rtt} so far.  Consumers bracket an operation with two
    reads to attribute modelled latency to it (e.g. a node join). *)
