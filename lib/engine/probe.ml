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
  sim : Sim.t option;
  clock : unit -> float;
  faults : Faults.t option;
  pool : Dpool.t option;
      (* when present, batch measurements are prefetched in parallel and
         the classic sequential schedule replayed against the memo *)
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

let create ?metrics ?(labels = []) ?trace ?faults ?sim ?clock ?pool
    ?(config = default_config) ~measure () =
  if config.window < 1 then invalid_arg "Probe.create: window must be >= 1";
  if not (config.timeout > 0.0) then invalid_arg "Probe.create: timeout must be positive";
  if config.retries < 0 then invalid_arg "Probe.create: retries must be >= 0";
  if config.backoff < 0.0 then invalid_arg "Probe.create: backoff must be >= 0";
  if config.cache_ttl < 0.0 then invalid_arg "Probe.create: cache_ttl must be >= 0";
  let clock =
    match (clock, sim) with
    | Some c, _ -> c
    | None, Some sim -> fun () -> Sim.now sim
    | None, None -> fun () -> 0.0
  in
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
    sim;
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

let obs_incr t f = match t.obs with Some o -> Metrics.incr (f o) | None -> ()
let obs_observe t f v = match t.obs with Some o -> Metrics.observe (f o) v | None -> ()

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

let cache_store t ~src ~dst ~at rtt =
  if t.config.cache_ttl > 0.0 then
    Hashtbl.replace t.cache (src, dst) { rtt; expires = at +. t.config.cache_ttl }

let invalidate t node =
  let doomed =
    Hashtbl.fold
      (fun ((a, b) as k) _ acc -> if a = node || b = node then k :: acc else acc)
      t.cache []
  in
  List.iter (Hashtbl.remove t.cache) doomed

(* One probe's attempt schedule starting when its window slot frees at
   [at]: measure, let the channel decide the attempt's fate, and either
   complete or burn the timeout + backoff and try again.  Returns the
   outcome together with the slot's release time and the attempts spent. *)
let run_attempts t ~measure ~src ~dst ~at =
  let cfg = t.config in
  (* A lost probe with an infinite timeout would never be detected; model
     detection as instant so the schedule stays finite. *)
  let detect = if Float.is_finite cfg.timeout then cfg.timeout else 0.0 in
  let rec go k at =
    let rtt = measure src dst in
    obs_incr t (fun o -> o.i_measured);
    let fate =
      match t.faults with None -> Some rtt | Some f -> Faults.perturb f rtt
    in
    match fate with
    | Some d when d <= cfg.timeout -> (Ok d, at +. d, k)
    | fate ->
      (match fate with
      | None -> obs_incr t (fun o -> o.i_losses)
      | Some _ -> obs_incr t (fun o -> o.i_timeouts));
      let at = at +. detect in
      if k > cfg.retries then (Error { src; dst; attempts = k }, at, k)
      else begin
        obs_incr t (fun o -> o.i_retries);
        go (k + 1) (at +. (cfg.backoff *. (2.0 ** float_of_int (k - 1))))
      end
  in
  go 1 at

(* Phase 1 of a pool-backed batch: measure every {e unique, uncached}
   destination in parallel and memoise the RTTs.  The replay (phase 2)
   consumes each memo entry on that destination's {e first} measurement
   and calls [t.measure] directly for any further attempt or duplicate —
   so as long as the measurement function is deterministic per pair (and
   domain-safe), the RTT values, the total call count against the
   underlying oracle, and every downstream decision are byte-identical to
   the sequential path; only which domain performed a call changes.

   Chunking is fixed at [prefetch_chunk] destinations per task, so the
   dispatch structure (and the [domain_*] counters) depends only on the
   batch contents, never on the pool size. *)
let prefetch_chunk = 8

let prefetch t ~src ~dsts ~now =
  match t.pool with
  | None -> None
  | Some _ when Array.length dsts < 2 -> None (* fewer than two to prefetch *)
  | Some pool ->
    let seen = Hashtbl.create 16 in
    let uniq = ref [] in
    Array.iter
      (fun dst ->
        if (not (Hashtbl.mem seen dst)) && not (cached_fresh t ~src ~dst ~now) then begin
          Hashtbl.replace seen dst ();
          uniq := dst :: !uniq
        end)
      dsts;
    let uniq = Array.of_list (List.rev !uniq) in
    let n = Array.length uniq in
    if n < 2 then None
    else begin
      let tasks = (n + prefetch_chunk - 1) / prefetch_chunk in
      (match t.dobs with
      | Some (batches, task_count) ->
        Metrics.incr batches;
        Metrics.add task_count tasks
      | None -> ());
      let slices =
        Dpool.run pool tasks (fun j ->
            let lo = j * prefetch_chunk in
            let hi = min n (lo + prefetch_chunk) in
            Array.init (hi - lo) (fun k -> t.measure src uniq.(lo + k)))
      in
      let memo = Hashtbl.create n in
      Array.iteri
        (fun j slice ->
          Array.iteri
            (fun k rtt -> Hashtbl.replace memo uniq.((j * prefetch_chunk) + k) rtt)
            slice)
        slices;
      Some memo
    end

let run_batch_from t ~start ~src ~dsts =
  let n = Array.length dsts in
  let results = Array.make n (Error { src; dst = -1; attempts = 0 }) in
  let w = max 1 (min t.config.window (max n 1)) in
  let slots = Array.make w start in
  let finished = ref start in
  let memo = prefetch t ~src ~dsts ~now:start in
  (* First measurement of a destination consumes its memo entry; retries
     and duplicates fall through to the real measurement function, so the
     oracle sees the sequential path's call count exactly. *)
  let measure =
    match memo with
    | None -> t.measure
    | Some memo ->
      fun s d ->
        (match Hashtbl.find_opt memo d with
        | Some rtt ->
          Hashtbl.remove memo d;
          rtt
        | None -> t.measure s d)
  in
  Array.iteri
    (fun j dst ->
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
        let outcome, slot_end, attempts = run_attempts t ~measure ~src ~dst ~at:slot_start in
        (match outcome with
        | Ok rtt ->
          cache_store t ~src ~dst ~at:slot_end rtt;
          Option.iter
            (fun tr ->
              let queued = { Trace.queue_ms = slot_start -. start; attempt = attempts } in
              Trace.emit tr ~at:slot_start ~dur:rtt ~peer:dst (Trace.Rtt_probe (Some queued))
                ~node:src)
            t.tracer
        | Error _ ->
          t.failures <- t.failures + 1;
          obs_incr t (fun o -> o.i_failures));
        results.(j) <- outcome;
        slots.(!si) <- slot_end;
        if slot_end > !finished then finished := slot_end)
    dsts;
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

let the_sim t =
  match t.sim with
  | Some sim -> sim
  | None -> invalid_arg "Probe.submit: prober has no simulation"

let submit_batch t ~src ~dsts k =
  let sim = the_sim t in
  let b = run_batch t ~src ~dsts in
  ignore (Sim.schedule sim ~delay:(elapsed b) (fun () -> k b))

let submit t ~src ~dst k =
  let sim = the_sim t in
  let b = run_batch t ~src ~dsts:[| dst |] in
  ignore (Sim.schedule sim ~delay:(elapsed b) (fun () -> k b.results.(0)))

let probes t = t.probes
let failures t = t.failures
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let cache_stale t = t.cache_stale
let total_elapsed t = t.total_elapsed
