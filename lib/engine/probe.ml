type config = {
  window : int;
  timeout : float;
  retries : int;
  backoff : float;
  cache_ttl : float;
}

let default_config =
  { window = 1; timeout = infinity; retries = 0; backoff = 50.0; cache_ttl = 0.0 }

type failure = { src : int; dst : int; attempts : int }

type batch = {
  results : (float, failure) result array;
  started : float;
  finished : float;
}

let elapsed b = b.finished -. b.started

type instruments = {
  i_submitted : Metrics.counter;
  i_measured : Metrics.counter;
  i_retries : Metrics.counter;
  i_timeouts : Metrics.counter;
  i_losses : Metrics.counter;
  i_failures : Metrics.counter;
  i_cache_hits : Metrics.counter;
  i_cache_misses : Metrics.counter;
  i_cache_stale : Metrics.counter;
  i_queue_wait : Metrics.histogram;
  i_batch_ms : Metrics.histogram;
}

type cache_entry = { rtt : float; expires : float }

type t = {
  config : config;
  measure : int -> int -> float;
  clock : unit -> float;
  faults : Faults.t option;
  pool : Dpool.t option;
      (* when present, batch measurements are prefetched in parallel and
         the classic sequential schedule replayed against them *)
  cache : (int * int, cache_entry) Hashtbl.t;
  obs : instruments option;
  dobs : (Metrics.counter * Metrics.counter) option;
      (* (domain_batches, domain_tasks) dispatch accounting; registered
         only when both metrics and a pool are present *)
  tracer : Trace.t option;
  mutable probes : int;
  mutable failures : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_stale : int;
  mutable total_elapsed : float;
}

let create ?metrics ?(labels = []) ?trace ?faults ?(clock = fun () -> 0.0) ?pool
    ?(config = default_config) ~measure () =
  if config.window < 1 then invalid_arg "Probe.create: window must be >= 1";
  if not (config.timeout > 0.0) then invalid_arg "Probe.create: timeout must be positive";
  if config.retries < 0 then invalid_arg "Probe.create: retries must be >= 0";
  if config.backoff < 0.0 then invalid_arg "Probe.create: backoff must be >= 0";
  if config.cache_ttl < 0.0 then invalid_arg "Probe.create: cache_ttl must be >= 0";
  let obs =
    Option.map
      (fun m ->
        {
          i_submitted = Metrics.counter m ~labels "probe_submitted";
          i_measured = Metrics.counter m ~labels "probe_measured";
          i_retries = Metrics.counter m ~labels "probe_retries";
          i_timeouts = Metrics.counter m ~labels "probe_timeouts";
          i_losses = Metrics.counter m ~labels "probe_losses";
          i_failures = Metrics.counter m ~labels "probe_failures";
          i_cache_hits = Metrics.counter m ~labels "probe_cache_hits";
          i_cache_misses = Metrics.counter m ~labels "probe_cache_misses";
          i_cache_stale = Metrics.counter m ~labels "probe_cache_stale";
          i_queue_wait = Metrics.histogram m ~labels "probe_queue_wait";
          i_batch_ms = Metrics.histogram m ~labels "probe_batch_ms";
        })
      metrics
  in
  let dobs =
    match (metrics, pool) with
    | Some m, Some _ ->
      Some (Metrics.counter m ~labels "domain_batches", Metrics.counter m ~labels "domain_tasks")
    | _ -> None
  in
  {
    config;
    measure;
    clock;
    faults;
    pool;
    cache = Hashtbl.create 256;
    obs;
    dobs;
    tracer = trace;
    probes = 0;
    failures = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_stale = 0;
    total_elapsed = 0.0;
  }

let config t = t.config

let[@inline] obs_incr t f = match t.obs with Some o -> Metrics.incr (f o) | None -> ()
let[@inline] obs_observe t f v = match t.obs with Some o -> Metrics.observe (f o) v | None -> ()

(* The cache is keyed directionally: re-probing the same destination from
   the same source is the reuse pattern (selection and maintenance re-rank
   the same candidates), and a directional key never assumes the
   measurement function is symmetric. *)
let cache_find t ~src ~dst ~now =
  if t.config.cache_ttl <= 0.0 then None
  else begin
    match Hashtbl.find_opt t.cache (src, dst) with
    | Some e when e.expires > now ->
      t.cache_hits <- t.cache_hits + 1;
      obs_incr t (fun o -> o.i_cache_hits);
      Some e.rtt
    | Some _ ->
      t.cache_stale <- t.cache_stale + 1;
      t.cache_misses <- t.cache_misses + 1;
      obs_incr t (fun o -> o.i_cache_stale);
      obs_incr t (fun o -> o.i_cache_misses);
      None
    | None ->
      t.cache_misses <- t.cache_misses + 1;
      obs_incr t (fun o -> o.i_cache_misses);
      None
  end

(* Counter-free peek used by the prefetch planner: hit/miss/stale
   accounting must happen exactly once per probe, during the replay's
   [cache_find], never here. *)
let cached_fresh t ~src ~dst ~now =
  t.config.cache_ttl > 0.0
  &&
  match Hashtbl.find_opt t.cache (src, dst) with
  | Some e -> e.expires > now
  | None -> false

let[@inline] cache_store t ~src ~dst ~at rtt =
  if t.config.cache_ttl > 0.0 then
    Hashtbl.replace t.cache (src, dst) { rtt; expires = at +. t.config.cache_ttl }

let invalidate t node =
  let doomed =
    Hashtbl.fold
      (fun ((a, b) as k) _ acc -> if a = node || b = node then k :: acc else acc)
      t.cache []
  in
  List.iter (Hashtbl.remove t.cache) doomed

(* Phase 1 of a pool-backed batch: measure every {e unique, uncached}
   destination in parallel into flat arrays.  The replay (phase 2)
   consumes each prefetched RTT on that destination's {e first}
   measurement and calls [t.measure] directly for any further attempt or
   duplicate — so as long as the measurement function is deterministic
   per pair (and domain-safe), the RTT values, the total call count
   against the underlying oracle, and every downstream decision are
   byte-identical to the sequential path; only which domain performed a
   call changes.

   Chunking is fixed at [prefetch_chunk] destinations per task, so the
   dispatch structure (and the [domain_*] counters) depends only on the
   batch contents, never on the pool size. *)
let prefetch_chunk = 8

type prefetched = {
  uniq : int array;  (* the first [count] are the unique destinations, first occurrence first *)
  count : int;
  rtts : float array;  (* [rtts.(i)]: the measured RTT to [uniq.(i)] *)
  consumed : Bytes.t;  (* byte [i] is set once the replay has used [rtts.(i)] *)
}

let nothing_prefetched = { uniq = [||]; count = 0; rtts = [||]; consumed = Bytes.empty }

(* Batches are a handful of candidates or landmarks, so membership is a
   scan of the destinations found so far. *)
let prefetch t ~src ~dsts ~now =
  match t.pool with
  | Some pool when Array.length dsts >= 2 ->
    let uniq = Array.make (Array.length dsts) 0 in
    let count = ref 0 in
    for j = 0 to Array.length dsts - 1 do
      let dst = dsts.(j) in
      let i = ref 0 in
      while !i < !count && uniq.(!i) <> dst do
        incr i
      done;
      if !i = !count && not (cached_fresh t ~src ~dst ~now) then begin
        uniq.(!count) <- dst;
        incr count
      end
    done;
    let n = !count in
    if n < 2 then nothing_prefetched
    else begin
      let tasks = (n + prefetch_chunk - 1) / prefetch_chunk in
      (match t.dobs with
      | Some (batches, task_count) ->
        Metrics.incr batches;
        Metrics.add task_count tasks
      | None -> ());
      (* Each task writes its own chunk of [rtts]; the pool's latch
         publishes them before [Dpool.run] returns. *)
      let rtts = Array.make n 0.0 in
      ignore
        (Dpool.run pool tasks (fun j ->
             for k = j * prefetch_chunk to min n ((j + 1) * prefetch_chunk) - 1 do
               rtts.(k) <- t.measure src uniq.(k)
             done));
      { uniq; count = n; rtts; consumed = Bytes.make n '\000' }
    end
  | Some _ | None -> nothing_prefetched

(* The replay's measurement of [dst]: the prefetched RTT the first time,
   a real measurement for any retry or duplicate, so the oracle sees the
   sequential path's call count exactly. *)
let[@inline] measure_once t pf ~src ~dst =
  let i = ref 0 in
  while !i < pf.count && pf.uniq.(!i) <> dst do
    incr i
  done;
  if !i < pf.count && Bytes.get pf.consumed !i = '\000' then begin
    Bytes.set pf.consumed !i '\001';
    pf.rtts.(!i)
  end
  else t.measure src dst

let run_batch_from t ~start ~src ~dsts =
  let cfg = t.config in
  (* A lost probe with an infinite timeout would never be detected; model
     detection as instant so the schedule stays finite. *)
  let detect = if Float.is_finite cfg.timeout then cfg.timeout else 0.0 in
  let n = Array.length dsts in
  let results = Array.make n (Error { src; dst = -1; attempts = 0 }) in
  let w = max 1 (min cfg.window (max n 1)) in
  let slots = Array.make w start in
  let finished = ref start in
  let pf = prefetch t ~src ~dsts ~now:start in
  for j = 0 to n - 1 do
    let dst = dsts.(j) in
    t.probes <- t.probes + 1;
    obs_incr t (fun o -> o.i_submitted);
    match cache_find t ~src ~dst ~now:start with
    | Some rtt ->
      (* Served from memory: no slot, no time, no measurement. *)
      results.(j) <- Ok rtt
    | None ->
      let si = ref 0 in
      for i = 1 to w - 1 do
        if slots.(i) < slots.(!si) then si := i
      done;
      let slot_start = slots.(!si) in
      obs_observe t (fun o -> o.i_queue_wait) (slot_start -. start);
      (* The attempt schedule from the slot's start: measure, let the
         channel decide the attempt's fate, and either complete or burn
         the timeout + backoff and try again. *)
      let at = ref slot_start and attempts = ref 0 and rtt = ref 0.0 and ok = ref false in
      while (not !ok) && !attempts <= cfg.retries do
        incr attempts;
        rtt := measure_once t pf ~src ~dst;
        obs_incr t (fun o -> o.i_measured);
        let delivered =
          match t.faults with
          | None -> true
          | Some f -> (
            match Faults.perturb f !rtt with
            | Some d ->
              rtt := d;
              true
            | None -> false)
        in
        if delivered && !rtt <= cfg.timeout then begin
          at := !at +. !rtt;
          ok := true
        end
        else begin
          if delivered then obs_incr t (fun o -> o.i_timeouts) else obs_incr t (fun o -> o.i_losses);
          at := !at +. detect;
          if !attempts <= cfg.retries then begin
            obs_incr t (fun o -> o.i_retries);
            at := !at +. (cfg.backoff *. (2.0 ** float_of_int (!attempts - 1)))
          end
        end
      done;
      if !ok then begin
        cache_store t ~src ~dst ~at:!at !rtt;
        results.(j) <- Ok !rtt;
        match t.tracer with
        | Some tr ->
          let queued = { Trace.queue_ms = slot_start -. start; attempt = !attempts } in
          Trace.emit tr ~at:slot_start ~dur:!rtt ~peer:dst (Trace.Rtt_probe queued) ~node:src
        | None -> ()
      end
      else begin
        t.failures <- t.failures + 1;
        obs_incr t (fun o -> o.i_failures);
        results.(j) <- Error { src; dst; attempts = !attempts }
      end;
      slots.(!si) <- !at;
      if !at > !finished then finished := !at
  done;
  obs_observe t (fun o -> o.i_batch_ms) (!finished -. start);
  t.total_elapsed <- t.total_elapsed +. (!finished -. start);
  { results; started = start; finished = !finished }

let run_batch t ~src ~dsts = run_batch_from t ~start:(t.clock ()) ~src ~dsts

(* A fresh cache hit is served here with exactly what [run_batch] does
   for a one-probe batch that hits: one clock read, the submitted and
   hit counts, a [probe_batch_ms] sample and [total_elapsed] term of
   [start -. start], and no span.  Anything else is that batch. *)
let rtt t ~src ~dst =
  let start = t.clock () in
  match if t.config.cache_ttl > 0.0 then Hashtbl.find t.cache (src, dst) else raise Not_found with
  | e when e.expires > start ->
    let none = start -. start in
    t.probes <- t.probes + 1;
    t.cache_hits <- t.cache_hits + 1;
    (match t.obs with
    | Some o ->
      Metrics.incr o.i_submitted;
      Metrics.incr o.i_cache_hits;
      Metrics.observe o.i_batch_ms none
    | None -> ());
    t.total_elapsed <- t.total_elapsed +. none;
    Ok e.rtt
  | _ | (exception Not_found) -> (run_batch_from t ~start ~src ~dsts:[| dst |]).results.(0)

let probes t = t.probes
let failures t = t.failures
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let cache_stale t = t.cache_stale
let total_elapsed t = t.total_elapsed
