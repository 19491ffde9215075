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

(* Stands for "no cache entry"; never written. *)
let no_entry = { rtt = nan; expires = neg_infinity }

(* The pair's cache entry, or [no_entry] when caching is off or the pair
   has none.  One table probe: a miss updates what it finds here.  The
   cache is keyed directionally: re-probing the same destination from
   the same source is the reuse pattern (selection and maintenance
   re-rank the same candidates), and a directional key never assumes the
   measurement function is symmetric. *)
let[@inline] find_entry t ~src ~dst =
  if t.config.cache_ttl <= 0.0 then no_entry
  else try Key_tbl.find t.cache (cache_key src dst) with Not_found -> no_entry

let invalidate t node =
  let doomed =
    Key_tbl.fold
      (fun k _ acc -> if k lsr key_bits = node || k land key_mask = node then k :: acc else acc)
      t.cache []
  in
  List.iter (Key_tbl.remove t.cache) doomed

(* The steps [run_batch_from] and [rtt] share.  They match on [t.obs]
   in place: a closure argument, as [obs_incr] takes, would keep them
   from being inlined, and inlined they take and return their floats
   unboxed, so a step allocates nothing itself. *)

(* A probe served from the fresh entry [e]: no slot, no time, no
   measurement. *)
let[@inline] hit t e =
  t.cache_hits <- t.cache_hits + 1;
  (match t.obs with Some o -> Metrics.incr o.i_cache_hits | None -> ());
  e.rtt

(* A probe of a batch started at [start] that found no fresh entry,
   measured in the slot free from [slot_start].  [e] is what
   [find_entry] found: a stale entry, updated in place, or [no_entry],
   for which a new entry is added. *)
let[@inline] miss t ~src ~dst ~start ~slot_start e =
  let ttl = t.config.cache_ttl in
  let stale = ttl > 0.0 && e != no_entry in
  if stale then t.cache_stale <- t.cache_stale + 1;
  if ttl > 0.0 then t.cache_misses <- t.cache_misses + 1;
  (match t.obs with
  | Some o ->
    if stale then Metrics.incr o.i_cache_stale;
    if ttl > 0.0 then Metrics.incr o.i_cache_misses;
    Metrics.observe o.i_queue_wait (slot_start -. start)
  | None -> ());
  let rtt = t.measure src dst in
  (match t.obs with Some o -> Metrics.incr o.i_measured | None -> ());
  let at = slot_start +. rtt in
  if stale then begin
    e.rtt <- rtt;
    e.expires <- at +. ttl
  end
  else if ttl > 0.0 then Key_tbl.add t.cache (cache_key src dst) { rtt; expires = at +. ttl };
  (match t.tracer with
  | Some tr ->
    Trace.emit tr ~at:slot_start ~dur:rtt ~peer:dst
      (Trace.Rtt_probe { queue_ms = slot_start -. start })
      ~node:src
  | None -> ());
  rtt

let[@inline] end_batch t ~start ~finished =
  (match t.obs with Some o -> Metrics.observe o.i_batch_ms (finished -. start) | None -> ());
  t.total_elapsed <- t.total_elapsed +. (finished -. start)

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
    let e = find_entry t ~src ~dst in
    if e.expires > start then results.(j) <- hit t e
    else begin
      let si = ref 0 in
      for i = 1 to w - 1 do
        if slots.(i) < slots.(!si) then si := i
      done;
      let slot_start = slots.(!si) in
      let rtt = miss t ~src ~dst ~start ~slot_start e in
      results.(j) <- rtt;
      let at = slot_start +. rtt in
      slots.(!si) <- at;
      if at > !finished then finished := at
    end
  done;
  end_batch t ~start ~finished:!finished;
  { results; started = start; finished = !finished }

let run_batch t ~src ~dsts = run_batch_from t ~start:(t.clock ()) ~src ~dsts

(* [rtt] is a one-probe [run_batch] without the batch's arrays and
   record: one clock read, one table probe, and the probe's one slot
   starting at [start], so a zero queue wait and a batch that ends when
   the probe does. *)
let rtt t ~src ~dst =
  let start = t.clock () in
  t.probes <- t.probes + 1;
  obs_incr t (fun o -> o.i_submitted);
  let e = find_entry t ~src ~dst in
  if e.expires > start then begin
    let rtt = hit t e in
    end_batch t ~start ~finished:start;
    Ok rtt
  end
  else begin
    let rtt = miss t ~src ~dst ~start ~slot_start:start e in
    let at = start +. rtt in
    end_batch t ~start ~finished:(if at > start then at else start);
    Ok rtt
  end

let probes t = t.probes
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let cache_stale t = t.cache_stale
let total_elapsed t = t.total_elapsed
