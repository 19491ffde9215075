type config = { window : int; cache_ttl : float }

let default_config = { window = 1; cache_ttl = 0.0 }

type failure = |

type batch = { results : float array; started : float; finished : float }

let elapsed b = b.finished -. b.started

type instruments = {
  i_submitted : Metrics.counter;
  i_measured : Metrics.counter;
  i_cache_hits : Metrics.counter;
  i_cache_misses : Metrics.counter;
  i_cache_stale : Metrics.counter;
  i_queue_wait : Metrics.histogram;
  i_batch_ms : Metrics.histogram;
}

type cache_entry = { mutable rtt : float; mutable expires : float }

(* The RTT cache's key: [src] in the high 31 bits, [dst] in the low 31,
   so a lookup hashes one int and allocates nothing. *)
let key_bits = 31
let key_mask = (1 lsl key_bits) - 1

let cache_key src dst =
  if src lsr key_bits <> 0 || dst lsr key_bits <> 0 then
    invalid_arg "Probe: node id outside [0, 2^31) in the RTT cache";
  (src lsl key_bits) lor dst

module Key_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Buckets are picked by the hash's low bits, and the key's low bits
     are [dst]'s: fold the multiplied high half down so [src] counts. *)
  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)

type t = {
  config : config;
  measure : int -> int -> float;
  clock : unit -> float;
  cache : cache_entry Key_tbl.t;
  obs : instruments option;
  tracer : Trace.t option;
  mutable probes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_stale : int;
  mutable total_elapsed : float;
}

let create ?metrics ?(labels = []) ?trace ?(clock = fun () -> 0.0) ?pool:(_ : Dpool.t option)
    ?(config = default_config) ~measure () =
  if config.window < 1 then invalid_arg "Probe.create: window must be >= 1";
  if config.cache_ttl < 0.0 then invalid_arg "Probe.create: cache_ttl must be >= 0";
  let obs =
    Option.map
      (fun m ->
        {
          i_submitted = Metrics.counter m ~labels "probe_submitted";
          i_measured = Metrics.counter m ~labels "probe_measured";
          i_cache_hits = Metrics.counter m ~labels "probe_cache_hits";
          i_cache_misses = Metrics.counter m ~labels "probe_cache_misses";
          i_cache_stale = Metrics.counter m ~labels "probe_cache_stale";
          i_queue_wait = Metrics.histogram m ~labels "probe_queue_wait";
          i_batch_ms = Metrics.histogram m ~labels "probe_batch_ms";
        })
      metrics
  in
  {
    config;
    measure;
    clock;
    cache = Key_tbl.create 256;
    obs;
    tracer = trace;
    probes = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_stale = 0;
    total_elapsed = 0.0;
  }

let[@inline] obs_incr t f = match t.obs with Some o -> Metrics.incr (f o) | None -> ()
let[@inline] obs_observe t f v = match t.obs with Some o -> Metrics.observe (f o) v | None -> ()

(* The cache is keyed directionally: re-probing the same destination from
   the same source is the reuse pattern (selection and maintenance re-rank
   the same candidates), and a directional key never assumes the
   measurement function is symmetric. *)
let cache_find t ~src ~dst ~now =
  if t.config.cache_ttl <= 0.0 then None
  else begin
    match Key_tbl.find t.cache (cache_key src dst) with
    | e when e.expires > now ->
      t.cache_hits <- t.cache_hits + 1;
      obs_incr t (fun o -> o.i_cache_hits);
      Some e.rtt
    | _ ->
      t.cache_stale <- t.cache_stale + 1;
      t.cache_misses <- t.cache_misses + 1;
      obs_incr t (fun o -> o.i_cache_stale);
      obs_incr t (fun o -> o.i_cache_misses);
      None
    | exception Not_found ->
      t.cache_misses <- t.cache_misses + 1;
      obs_incr t (fun o -> o.i_cache_misses);
      None
  end

(* A re-measured pair updates its entry in place. *)
let[@inline] cache_store t ~src ~dst ~at rtt =
  if t.config.cache_ttl > 0.0 then begin
    let key = cache_key src dst and expires = at +. t.config.cache_ttl in
    match Key_tbl.find t.cache key with
    | e ->
      e.rtt <- rtt;
      e.expires <- expires
    | exception Not_found -> Key_tbl.add t.cache key { rtt; expires }
  end

let invalidate t node =
  let doomed =
    Key_tbl.fold
      (fun k _ acc -> if k lsr key_bits = node || k land key_mask = node then k :: acc else acc)
      t.cache []
  in
  List.iter (Key_tbl.remove t.cache) doomed

let run_batch_from t ~start ~src ~dsts =
  let n = Array.length dsts in
  let results = Array.make n 0.0 in
  let w = max 1 (min t.config.window (max n 1)) in
  let slots = Array.make w start in
  let finished = ref start in
  for j = 0 to n - 1 do
    let dst = dsts.(j) in
    t.probes <- t.probes + 1;
    obs_incr t (fun o -> o.i_submitted);
    match cache_find t ~src ~dst ~now:start with
    | Some rtt ->
      (* Served from memory: no slot, no time, no measurement. *)
      results.(j) <- rtt
    | None ->
      let si = ref 0 in
      for i = 1 to w - 1 do
        if slots.(i) < slots.(!si) then si := i
      done;
      let slot_start = slots.(!si) in
      obs_observe t (fun o -> o.i_queue_wait) (slot_start -. start);
      let rtt = t.measure src dst in
      obs_incr t (fun o -> o.i_measured);
      let at = slot_start +. rtt in
      cache_store t ~src ~dst ~at rtt;
      results.(j) <- rtt;
      (match t.tracer with
      | Some tr ->
        Trace.emit tr ~at:slot_start ~dur:rtt ~peer:dst
          (Trace.Rtt_probe { queue_ms = slot_start -. start })
          ~node:src
      | None -> ());
      slots.(!si) <- at;
      if at > !finished then finished := at
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
  match
    if t.config.cache_ttl > 0.0 then Key_tbl.find t.cache (cache_key src dst) else raise Not_found
  with
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
  | _ | (exception Not_found) -> Ok (run_batch_from t ~start ~src ~dsts:[| dst |]).results.(0)

let probes t = t.probes
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let cache_stale t = t.cache_stale
let total_elapsed t = t.total_elapsed
