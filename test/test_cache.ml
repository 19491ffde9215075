(* Engine.Cache + Prelude.Zipf + Workload.Exp_cache: property tests for
   the Zipf sampler, cross-backend cache invariants, metric determinism
   and the probe-cache failover interaction. *)

module Cache = Engine.Cache
module Probe = Engine.Probe
module Trace = Engine.Trace
module Metrics = Engine.Metrics
module Zipf = Prelude.Zipf
module Rng = Prelude.Rng
module Json = Prelude.Json

(* ------------------------------------------------------------------ *)
(* Zipf sampler properties                                             *)
(* ------------------------------------------------------------------ *)

let seed_gen = QCheck.int_range 0 100_000

let qcheck_zipf_deterministic =
  QCheck.Test.make ~name:"zipf: equal seeds draw identical sequences" ~count:50
    QCheck.(pair seed_gen (int_range 1 200))
    (fun (seed, n) ->
      let z = Zipf.create ~s:0.9 n in
      let draw () =
        let rng = Rng.create seed in
        Array.init 500 (fun _ -> Zipf.sample z rng)
      in
      draw () = draw ())

let qcheck_zipf_pmf_monotone =
  QCheck.Test.make ~name:"zipf: pmf is nonincreasing in rank" ~count:100
    QCheck.(pair (int_range 1 300) (float_range 0.0 3.0))
    (fun (n, s) ->
      let z = Zipf.create ~s n in
      let ok = ref true in
      for i = 1 to n - 1 do
        if Zipf.pmf z i > Zipf.pmf z (i - 1) +. 1e-12 then ok := false
      done;
      let total = ref 0.0 in
      for i = 0 to n - 1 do
        total := !total +. Zipf.pmf z i
      done;
      !ok && Float.abs (!total -. 1.0) < 1e-9 && Float.abs (Zipf.cdf z (n - 1) -. 1.0) < 1e-12)

let qcheck_zipf_rank_frequency =
  QCheck.Test.make ~name:"zipf: empirical head outdraws the tail" ~count:30
    QCheck.(pair seed_gen (int_range 8 128))
    (fun (seed, n) ->
      let z = Zipf.create ~s:1.0 n in
      let rng = Rng.create seed in
      let counts = Array.make n 0 in
      let samples = 5_000 in
      for _ = 1 to samples do
        let k = Zipf.sample z rng in
        counts.(k) <- counts.(k) + 1
      done;
      (* rank 0 carries >= 1/H_n of the mass, the tail rank 1/(n H_n):
         with 5k samples the head strictly outdraws the tail. *)
      counts.(0) > counts.(n - 1)
      && counts.(0) + counts.(1) > (counts.(n - 1) + counts.(n - 2)))

let qcheck_zipf_cdf_close =
  QCheck.Test.make ~name:"zipf: empirical CDF tracks the analytic CDF" ~count:20
    QCheck.(triple seed_gen (int_range 2 64) (float_range 0.0 2.0))
    (fun (seed, n, s) ->
      let z = Zipf.create ~s n in
      let rng = Rng.create seed in
      let samples = 20_000 in
      let counts = Array.make n 0 in
      for _ = 1 to samples do
        let k = Zipf.sample z rng in
        counts.(k) <- counts.(k) + 1
      done;
      let worst = ref 0.0 in
      let acc = ref 0 in
      for i = 0 to n - 1 do
        acc := !acc + counts.(i);
        let emp = float_of_int !acc /. float_of_int samples in
        worst := Float.max !worst (Float.abs (emp -. Zipf.cdf z i))
      done;
      (* Kolmogorov bound at 20k draws is ~0.010 at the 5% level; the
         seeds are fixed by qcheck, so 0.025 never flakes. *)
      !worst < 0.025)

let qcheck_zipf_uniform_at_zero =
  QCheck.Test.make ~name:"zipf: s = 0 degenerates to the uniform distribution" ~count:30
    QCheck.(pair seed_gen (int_range 1 64))
    (fun (seed, n) ->
      let z = Zipf.create ~s:0.0 n in
      let flat = ref true in
      for i = 0 to n - 1 do
        if Float.abs (Zipf.pmf z i -. (1.0 /. float_of_int n)) > 1e-9 then flat := false
      done;
      let rng = Rng.create seed in
      let samples = 8_000 in
      let counts = Array.make n 0 in
      for _ = 1 to samples do
        let k = Zipf.sample z rng in
        counts.(k) <- counts.(k) + 1
      done;
      let expect = float_of_int samples /. float_of_int n in
      let within = ref true in
      Array.iter
        (fun c ->
          if Float.abs (float_of_int c -. expect) > (5.0 *. Float.sqrt expect) +. 10.0 then
            within := false)
        counts;
      !flat && !within)

let test_zipf_validation () =
  Alcotest.check_raises "size 0" (Invalid_argument "Zipf.create: size must be positive")
    (fun () -> ignore (Zipf.create 0));
  Alcotest.check_raises "negative s"
    (Invalid_argument "Zipf.create: exponent must be finite and non-negative") (fun () ->
      ignore (Zipf.create ~s:(-1.0) 4));
  let z = Zipf.create ~s:1.0 4 in
  Alcotest.(check int) "size" 4 (Zipf.size z);
  Alcotest.(check bool) "exponent" true (Zipf.exponent z = 1.0)

(* ------------------------------------------------------------------ *)
(* Toy line backend for direct Engine.Cache tests                      *)
(* ------------------------------------------------------------------ *)

(* [n] nodes on a line, latency 10 ms per unit.  [down] nodes stay
   members (their copies stay listed) but are unroutable — the crash
   shape that exercises failover pruning. *)
let line_backend ?(down = fun _ -> false) ?(gone = fun _ -> false) n =
  let link u v = 10.0 *. Float.abs (float_of_int (u - v)) in
  let route_to ~src ~dst =
    if gone dst || down dst then None
    else begin
      let step = if dst >= src then 1 else -1 in
      let rec go acc u = if u = dst then List.rev (u :: acc) else go (u :: acc) (u + step) in
      Some (go [] src)
    end
  in
  let near ~node ~exclude =
    let best = ref None in
    for c = 0 to n - 1 do
      if c <> node && (not (gone c)) && (not (down c)) && not (List.mem c exclude) then begin
        let d = Float.abs (float_of_int (c - node)) in
        match !best with
        | Some (bd, _) when bd <= d -> ()
        | _ -> best := Some (d, c)
      end
    done;
    Option.map snd !best
  in
  ( link,
    {
      Cache.name = "line";
      member = (fun i -> i >= 0 && i < n && not (gone i));
      home_of = (fun key -> key mod n);
      route_to;
      near;
      publish_load = (fun ~node:_ ~load:_ -> ());
    } )

let drive ?metrics ?trace ?rtt ~replicas ~threshold ~n reqs =
  let link, backend = line_backend n in
  let cache =
    Cache.create ?metrics ?trace ?rtt
      ~config:
        { Cache.default_config with Cache.replicas; load_threshold = threshold; hot_keys = 2 }
      ~link backend
  in
  List.iter (fun (client, key) -> ignore (Cache.request cache ~client ~key)) reqs;
  cache

let random_reqs seed ~n ~universe ~count =
  let rng = Rng.create seed in
  let z = Zipf.create ~s:1.1 universe in
  List.init count (fun _ -> (Rng.int rng n, Zipf.sample z rng))

(* Deterministic multiset-preserving reshuffle. *)
let reshuffle seed l =
  let a = Array.of_list l in
  let rng = Rng.create (seed + 7) in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let qcheck_hit_rate_order_independent =
  QCheck.Test.make ~name:"cache: hit/miss counts are order-independent" ~count:40
    QCheck.(pair seed_gen (int_range 1 3))
    (fun (seed, replicas) ->
      let n = 16 in
      let reqs = random_reqs seed ~n ~universe:40 ~count:300 in
      let a = drive ~replicas ~threshold:5 ~n reqs in
      let b = drive ~replicas ~threshold:5 ~n (reshuffle seed reqs) in
      Cache.hits a = Cache.hits b
      && Cache.misses a = Cache.misses b
      && Cache.requests a = Cache.requests b)

let qcheck_replication_bounded =
  QCheck.Test.make ~name:"cache: copies per key never exceed the replica bound" ~count:40
    QCheck.(pair seed_gen (int_range 1 4))
    (fun (seed, replicas) ->
      let n = 12 in
      let reqs = random_reqs seed ~n ~universe:24 ~count:400 in
      let c = drive ~replicas ~threshold:3 ~n reqs in
      Cache.check_invariants c = Ok ()
      && List.for_all
           (fun key -> List.length (Cache.replicas_of c key) <= replicas)
           (Cache.stored_keys c)
      && (replicas > 1 || Cache.replications c = 0))

let test_replicas_one_is_inert () =
  (* With replicas = 1 the replication plane must be fully inert: no
     copies, no sheds, no Cache_replicate spans, no publish_load calls. *)
  let n = 10 in
  let published = ref 0 in
  let link, backend = line_backend n in
  let backend =
    { backend with Cache.publish_load = (fun ~node:_ ~load:_ -> incr published) }
  in
  let trace = Trace.create () in
  let cache =
    Cache.create ~trace
      ~config:{ Cache.default_config with Cache.replicas = 1; load_threshold = 2 }
      ~link backend
  in
  let reqs = random_reqs 5 ~n ~universe:12 ~count:200 in
  List.iter (fun (client, key) -> ignore (Cache.request cache ~client ~key)) reqs;
  Alcotest.(check int) "no replications" 0 (Cache.replications cache);
  Alcotest.(check int) "no sheds" 0 (Cache.sheds cache);
  Alcotest.(check int) "no publish_load calls" 0 !published;
  List.iter
    (fun key ->
      Alcotest.(check int)
        (Printf.sprintf "key %d single copy" key)
        1
        (List.length (Cache.replicas_of cache key)))
    (Cache.stored_keys cache);
  let replicate_spans =
    List.filter
      (fun s -> match s.Trace.kind with Trace.Cache_replicate _ -> true | _ -> false)
      (Trace.spans trace)
  in
  Alcotest.(check int) "no Cache_replicate spans" 0 (List.length replicate_spans);
  let request_spans =
    List.filter
      (fun s -> match s.Trace.kind with Trace.Cache_request _ -> true | _ -> false)
      (Trace.spans trace)
  in
  Alcotest.(check int) "one span per request" (Cache.requests cache)
    (List.length request_spans)

let test_shed_avoids_hot_replica () =
  (* Two copies; the RTT-nearest one is saturated past the threshold, so
     the request sheds to the farther, cool copy and is counted. *)
  let n = 8 in
  let link, backend = line_backend n in
  let cache =
    Cache.create
      ~config:{ Cache.default_config with Cache.replicas = 2; load_threshold = 3 }
      ~link backend
  in
  (* key 1 homes at node 1; saturate node 1 from its own neighborhood. *)
  ignore (Cache.request cache ~client:0 ~key:1);
  ignore (Cache.request cache ~client:0 ~key:1);
  ignore (Cache.request cache ~client:2 ~key:1);
  (* threshold crossed: hot key 1 replicated to near node 0. *)
  Alcotest.(check bool) "replicated" true (Cache.replications cache >= 1);
  Alcotest.(check int) "two copies" 2 (List.length (Cache.replicas_of cache 1));
  (* From node 2 the hot home (node 1, 10 ms) is nearer than the cool
     replica (node 0, 20 ms): the request sheds to the replica. *)
  let o = Cache.request cache ~client:2 ~key:1 in
  Alcotest.(check bool) "request shed off the hot nearest copy" true o.Cache.shed;
  Alcotest.(check bool) "served by the cool copy" true (o.Cache.served_by <> 1);
  Alcotest.(check int) "shed counted" 1 (Cache.sheds cache)

(* ------------------------------------------------------------------ *)
(* Probe-plane interaction: invalidated RTTs and failover              *)
(* ------------------------------------------------------------------ *)

(* Shared scenario for the probe-cache interaction tests: key 5 homes at
   node 5; client 3 drives it hot so a replica lands on node 4, which
   then becomes the client's RTT-nearest copy.  Returns the cache, the
   prober and the crash table. *)
let probe_scenario ~crash_aware =
  let n = 8 in
  let crashed = Hashtbl.create 4 in
  let link, backend = line_backend ~down:(Hashtbl.mem crashed) n in
  let prober =
    Probe.create
      ~config:{ Probe.default_config with Probe.cache_ttl = 1_000_000.0 }
      ~measure:link ()
  in
  let rtt ~src ~dst =
    if crash_aware && Hashtbl.mem crashed dst then None
    else match Probe.rtt prober ~src ~dst with Ok r -> Some r | Error _ -> None
  in
  let cache =
    Cache.create ~rtt
      ~config:{ Cache.default_config with Cache.replicas = 2; load_threshold = 2 }
      ~link backend
  in
  for _ = 1 to 4 do
    ignore (Cache.request cache ~client:3 ~key:5)
  done;
  Alcotest.(check (list int)) "copies: home then near replica" [ 5; 4 ]
    (Cache.replicas_of cache 5);
  let o = Cache.request cache ~client:3 ~key:5 in
  Alcotest.(check int) "nearest replica serves before the crash" 4 o.Cache.served_by;
  (cache, prober, crashed)

let test_probe_failover () =
  (* Crash the nearest replica and invalidate its RTT entries: the next
     read ranks the dead copy last (no cached RTT survives, the probe
     fails) and goes straight to the surviving copy — no wasted routing
     attempt, so no failover is even counted. *)
  let cache, prober, crashed = probe_scenario ~crash_aware:true in
  let hits_before = Probe.cache_hits prober in
  ignore (Cache.request cache ~client:3 ~key:5);
  Alcotest.(check bool) "replica ranking reuses cached RTTs" true
    (Probe.cache_hits prober > hits_before);
  Hashtbl.replace crashed 4 ();
  Probe.invalidate prober 4;
  let o = Cache.request cache ~client:3 ~key:5 in
  Alcotest.(check int) "read fails over to the surviving copy" 5 o.Cache.served_by;
  Alcotest.(check bool) "served as a hit, not a refetch" true o.Cache.hit;
  Alcotest.(check int) "no routing attempt wasted on the dead copy" 0
    (Cache.failovers cache);
  let o2 = Cache.request cache ~client:3 ~key:5 in
  Alcotest.(check int) "stable after failover" 5 o2.Cache.served_by

let test_stale_rtt_costs_a_failover () =
  (* Same crash without invalidation/crash awareness: the probe cache
     keeps serving the dead replica's stale RTT, ranking it first; the
     routing attempt fails, the copy is pruned and the request pays a
     counted failover — exactly the waste Probe.invalidate removes. *)
  let cache, _prober, crashed = probe_scenario ~crash_aware:false in
  Hashtbl.replace crashed 4 ();
  let o = Cache.request cache ~client:3 ~key:5 in
  Alcotest.(check int) "still served by the survivor" 5 o.Cache.served_by;
  Alcotest.(check bool) "but as a counted failover" true (Cache.failovers cache >= 1);
  Alcotest.(check bool) "dead copy pruned from the holder list" true
    (not (List.mem 4 (Cache.replicas_of cache 5)))

let test_failover_to_origin () =
  (* Every copy of a key unroutable: the request refetches from the
     origin at the key's home and reinstalls the copy there. *)
  let n = 6 in
  let crashed = Hashtbl.create 4 in
  let link, backend = line_backend ~down:(Hashtbl.mem crashed) n in
  let cache = Cache.create ~link backend in
  ignore (Cache.request cache ~client:0 ~key:2);
  Alcotest.(check (list int)) "copy at home" [ 2 ] (Cache.replicas_of cache 2);
  Hashtbl.replace crashed 2 ();
  Alcotest.check_raises "home down means unroutable origin"
    (Failure "Cache.request: key home unroutable") (fun () ->
      ignore (Cache.request cache ~client:0 ~key:2));
  Hashtbl.reset crashed;
  let o = Cache.request cache ~client:0 ~key:2 in
  Alcotest.(check bool) "refetched as a miss" true (not o.Cache.hit)

(* ------------------------------------------------------------------ *)
(* Experiment-level invariants (shared schedule across backends)       *)
(* ------------------------------------------------------------------ *)

let exp_scale = 32

let qcheck_cross_backend =
  QCheck.Test.make ~name:"exp_cache: all backends see the same key multiset & hit rate"
    ~count:3
    (QCheck.int_range 1 1_000)
    (fun seed ->
      let stats = Workload.Exp_cache.data ~scale:exp_scale ~seed () in
      match stats with
      | first :: rest ->
        List.for_all
          (fun (s : Workload.Exp_cache.stats) ->
            s.Workload.Exp_cache.key_digest = first.Workload.Exp_cache.key_digest
            && s.Workload.Exp_cache.hit_rate = first.Workload.Exp_cache.hit_rate
            && s.Workload.Exp_cache.requests = first.Workload.Exp_cache.requests)
          rest
        && List.length stats = 7
      | [] -> false)

let test_exp_cache_ordering () =
  (* Deterministic seed: topology-aware tables beat random tables on the
     delivered latency at the same hit rate, and replication reduces the
     max per-node load vs replicas = 1. *)
  match Workload.Exp_cache.data ~scale:exp_scale () with
  | [ aware; random; _can; _chord; _pastry; _koorde; norepl ] ->
    let open Workload.Exp_cache in
    Alcotest.(check bool) "equal hit rates" true (aware.hit_rate = random.hit_rate);
    Alcotest.(check bool) "aware p50 <= random p50" true (aware.p50_ms <= random.p50_ms);
    Alcotest.(check bool) "aware p99 <= random p99" true (aware.p99_ms <= random.p99_ms);
    Alcotest.(check bool) "replication never raises max load" true
      (aware.max_load <= norepl.max_load);
    Alcotest.(check bool) "replication plane ran" true (aware.replications > 0);
    Alcotest.(check int) "replicas=1 row is replication-free" 0 norepl.replications
  | _ -> Alcotest.fail "exp_cache: expected 7 rows"

let test_exp_cache_threshold_follows_clients () =
  (* A requested client count sets the replication threshold: with 4
     clients at scale 8 the busiest node crosses it, so the replication
     row copies keys and its replicas = 1 twin does not. *)
  let row label stats =
    List.find (fun (s : Workload.Exp_cache.stats) -> s.Workload.Exp_cache.label = label) stats
  in
  let stats = Workload.Exp_cache.data ~scale:8 ~clients:4 () in
  Alcotest.(check bool) "ecan aware replicates" true
    ((row "ecan aware" stats).Workload.Exp_cache.replications > 0);
  Alcotest.(check int) "ecan aware r1 does not" 0
    (row "ecan aware r1" stats).Workload.Exp_cache.replications

let test_exp_cache_metrics_deterministic () =
  (* Same seed, fresh registries: the whole metrics dump (counters,
     gauges, histograms) is byte-identical across runs. *)
  let dump () =
    let metrics = Metrics.create () in
    let stats = Workload.Exp_cache.data ~scale:exp_scale ~metrics () in
    (stats, Json.to_string (Metrics.to_json metrics))
  in
  let stats1, json1 = dump () in
  let stats2, json2 = dump () in
  Alcotest.(check bool) "stats identical" true (stats1 = stats2);
  Alcotest.(check string) "metrics registry byte-identical" json1 json2;
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "cache instruments registered" true
    (contains "cache_hits" json1
    && contains "cache_request_ms" json1
    && contains "cache_replications" json1)

(* ------------------------------------------------------------------ *)
(* Copy ranking against the polymorphic-compare reference              *)
(* ------------------------------------------------------------------ *)

(* [rank_copies] as it was written with tuple scores and polymorphic
   [compare]; [load] and [rtt] are the cache's. *)
let ref_rank_copies ~rtt ~load ~threshold ~client holders =
  let score node =
    let r = match rtt ~src:client ~dst:node with Some r -> r | None -> infinity in
    let hot = if load node >= threshold then 1 else 0 in
    (hot, r, node)
  in
  let scored = List.map (fun n -> (score n, n)) holders in
  let by_pref = List.sort compare scored in
  let by_rtt = List.sort (fun ((_, ra, ia), _) ((_, rb, ib), _) -> compare (ra, ia) (rb, ib)) scored in
  let order = List.map snd by_pref in
  let shed =
    match (order, by_rtt) with
    | first :: _, (_, nearest) :: _ -> first <> nearest
    | _ -> false
  in
  (order, shed)

(* 1-4 holders among 8 nodes, RTTs from a three-value palette plus
   unknown (equal and infinite RTTs are common), and each node's window
   load driven to a random level around the threshold by requests for
   the key it is home of. *)
let qcheck_rank_copies_matches_reference =
  QCheck.Test.make ~name:"rank_copies = polymorphic-compare reference, rtt call order included"
    ~count:300
    QCheck.(pair seed_gen (int_range 1 3))
    (fun (seed, threshold) ->
      let rng = Rng.create seed in
      let nodes = 8 in
      let palette = [| Some 10.0; Some 20.0; Some 20.0; Some 35.5; None |] in
      let table = Array.init nodes (fun _ -> Array.init nodes (fun _ -> Rng.pick rng palette)) in
      let log = ref [] in
      let rtt ~src ~dst =
        log := dst :: !log;
        table.(src).(dst)
      in
      let backend =
        {
          Cache.name = "stub";
          member = (fun n -> n >= 0 && n < nodes);
          home_of = (fun key -> key mod nodes);
          route_to = (fun ~src ~dst -> Some [ src; dst ]);
          near = (fun ~node:_ ~exclude:_ -> None);
          publish_load = (fun ~node:_ ~load:_ -> ());
        }
      in
      let cache =
        Cache.create ~rtt
          ~config:{ Cache.default_config with Cache.load_threshold = threshold }
          ~link:(fun _ _ -> 1.0)
          backend
      in
      for node = 0 to nodes - 1 do
        for _ = 1 to Rng.int rng (threshold + 2) do
          ignore (Cache.request cache ~client:0 ~key:node)
        done
      done;
      List.for_all
        (fun _ ->
          let client = Rng.int rng nodes in
          let pool = Array.init nodes Fun.id in
          Rng.shuffle rng pool;
          let holders = Array.to_list (Array.sub pool 0 (1 + Rng.int rng 4)) in
          log := [];
          let got = Cache.rank_copies cache ~client holders in
          let got_log = !log in
          log := [];
          let expected =
            ref_rank_copies ~rtt ~load:(Cache.load_of cache) ~threshold ~client holders
          in
          got = expected && got_log = !log)
        (List.init 20 Fun.id))

(* Both service experiments project the same adapter: for every row
   kind, the cache's replica host is the mcast's first relay proposal.
   Each side gets its own adapter, built as the experiments build them. *)
let test_service_projections_agree () =
  let module Builder = Core.Builder in
  let module Backend = Workload.Backend in
  let oracle =
    Workload.Ctx.oracle ~scale:exp_scale Workload.Ctx.Tsk_large Topology.Transit_stub.Manual
  in
  let b =
    Builder.build oracle
      {
        Builder.default_config with
        Builder.overlay_size = 40;
        strategy = Core.Strategy.hybrid ~rtts:5 ();
        seed = 5;
      }
  in
  let rows =
    [
      ( "ecan",
        fun () ->
          Backend.builder_service ~name:"ecan" ~route:(Ecan.Expressway.route b.Builder.ecan) b );
      ( "can",
        fun () ->
          Backend.builder_service ~name:"can"
            ~route:(Can.Overlay.route (Ecan.Expressway.can b.Builder.ecan))
            b );
      ("chord", fun () -> Backend.ring_service ~seed:3 b Backend.Chord);
      ("pastry", fun () -> Backend.ring_service ~seed:3 b Backend.Pastry);
      ("koorde", fun () -> Backend.ring_service ~seed:3 b (Backend.Koorde 4));
    ]
  in
  let members = b.Builder.members in
  List.iter
    (fun (name, make) ->
      let cache = Workload.Exp_cache.backend_of (make ()) in
      let mcast = Workload.Exp_mcast.backend_of (make ()) in
      let proposed = ref 0 in
      Array.iteri
        (fun i node ->
          List.iter
            (fun exclude ->
              let head = List.nth_opt (mcast.Engine.Mcast.candidates ~node ~exclude) 0 in
              if head <> None then incr proposed;
              Alcotest.(check (option int)) (name ^ ": near = head of candidates") head
                (cache.Cache.near ~node ~exclude))
            [ []; [ members.((i + 1) mod Array.length members) ] ])
        members;
      Alcotest.(check bool) (name ^ ": some node has candidates") true (!proposed > 0))
    rows

(* The cache's request path as it was with polymorphic [Hashtbl]s: a
   [served] table, a nested per-node [hot] table and a [copies] table,
   without metrics or trace.  The reference for the int-keyed load
   records. *)
module Ref_cache = struct
  type t = {
    backend : Cache.backend;
    config : Cache.config;
    link : int -> int -> float;
    copies : (int, int list) Hashtbl.t;
    served : (int, int) Hashtbl.t;
    hot : (int, (int, int) Hashtbl.t) Hashtbl.t;
    mutable max_load : int;
    mutable sheds : int;
    mutable failovers : int;
    mutable replications : int;
  }

  let create ~config ~link backend =
    {
      backend;
      config;
      link;
      copies = Hashtbl.create 1024;
      served = Hashtbl.create 256;
      hot = Hashtbl.create 256;
      max_load = 0;
      sheds = 0;
      failovers = 0;
      replications = 0;
    }

  let replicas_of t key = Option.value ~default:[] (Hashtbl.find_opt t.copies key)
  let stored_keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.copies [])
  let load_of t node = try Hashtbl.find t.served node with Not_found -> 0

  let bump_load t node key =
    let served = 1 + load_of t node in
    Hashtbl.replace t.served node served;
    let per_key =
      match Hashtbl.find_opt t.hot node with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 64 in
        Hashtbl.replace t.hot node h;
        h
    in
    Hashtbl.replace per_key key (1 + Option.value ~default:0 (Hashtbl.find_opt per_key key));
    if served > t.max_load then t.max_load <- served;
    served

  let hottest_keys t node limit =
    match Hashtbl.find_opt t.hot node with
    | None -> []
    | Some per_key ->
      Hashtbl.fold (fun k c acc -> (-c, k) :: acc) per_key []
      |> List.sort compare
      |> List.filteri (fun i _ -> i < limit)
      |> List.map snd

  let replicate_hot t node served =
    t.backend.Cache.publish_load ~node
      ~load:(float_of_int served /. float_of_int t.config.Cache.load_threshold);
    List.iter
      (fun key ->
        let holders = replicas_of t key in
        if List.length holders < t.config.Cache.replicas && List.mem node holders then
          match t.backend.Cache.near ~node ~exclude:holders with
          | Some target when t.backend.Cache.member target && not (List.mem target holders) ->
            Hashtbl.replace t.copies key (holders @ [ target ]);
            t.replications <- t.replications + 1
          | Some _ | None -> ())
      (hottest_keys t node t.config.Cache.hot_keys)

  (* Holders ranked by (hot, RTT, id) under polymorphic compare; the
     RTT is the default [link]. *)
  let rank_copies t ~client holders =
    let score node =
      let hot = if load_of t node >= t.config.Cache.load_threshold then 1 else 0 in
      (hot, t.link client node, node)
    in
    let scored = List.map score holders in
    let order = List.sort compare scored in
    let nearest = List.sort (fun (_, ra, ia) (_, rb, ib) -> compare (ra, ia) (rb, ib)) scored in
    let id (_, _, n) = n in
    (List.map id order, id (List.hd order) <> id (List.hd nearest))

  let finish t ~client ~key ~served_by ~hit ~shed ~hops ~latency =
    if shed then t.sheds <- t.sheds + 1;
    let served = bump_load t served_by key in
    if t.config.Cache.replicas > 1 && served mod t.config.Cache.load_threshold = 0 then
      replicate_hot t served_by served;
    { Cache.key; client; served_by; hit; shed; hops; latency }

  let miss t ~client ~key =
    let home = t.backend.Cache.home_of key in
    match t.backend.Cache.route_to ~src:client ~dst:home with
    | None -> failwith "Cache.request: key home unroutable"
    | Some hops ->
      Hashtbl.replace t.copies key [ home ];
      finish t ~client ~key ~served_by:home ~hit:false ~shed:false
        ~hops:(List.length hops - 1)
        ~latency:(Engine.Route_obs.latency t.link hops +. t.config.Cache.origin_ms)

  let request t ~client ~key =
    if not (t.backend.Cache.member client) then
      invalid_arg "Cache.request: client is not a member";
    let stored = replicas_of t key in
    let holders = List.filter t.backend.Cache.member stored in
    if List.length holders <> List.length stored && holders <> [] then
      Hashtbl.replace t.copies key holders;
    match holders with
    | [] -> miss t ~client ~key
    | holders ->
      let order, shed = rank_copies t ~client holders in
      let rec serve failed = function
        | [] ->
          Hashtbl.remove t.copies key;
          if failed then t.failovers <- t.failovers + 1;
          miss t ~client ~key
        | copy :: rest -> (
          match t.backend.Cache.route_to ~src:client ~dst:copy with
          | Some hops ->
            if failed then t.failovers <- t.failovers + 1;
            finish t ~client ~key ~served_by:copy ~hit:true ~shed
              ~hops:(List.length hops - 1) ~latency:(Engine.Route_obs.latency t.link hops)
          | None ->
            Hashtbl.replace t.copies key (List.filter (fun n -> n <> copy) (replicas_of t key));
            serve true rest)
      in
      serve false order
end

(* Random Zipf request streams on the line backend with member churn:
   between requests nodes leave (their copies are pruned lazily), come
   back, or go down while staying members (their copies fail over).  The
   cache and [Ref_cache] serve the same stream and must agree on every
   outcome or error, every counter, every node's load and every key's
   copies. *)
let qcheck_cache_matches_reference =
  QCheck.Test.make ~name:"cache = Hashtbl-bookkeeping reference under member churn" ~count:200
    QCheck.(triple seed_gen (int_range 1 4) (int_range 1 8))
    (fun (seed, replicas, threshold) ->
      let rng = Rng.create seed in
      let n = 12 in
      let gone = Array.make n false and down = Array.make n false in
      let link, backend = line_backend ~gone:(Array.get gone) ~down:(Array.get down) n in
      let published = ref [] and ref_published = ref [] in
      let logging log =
        { backend with Cache.publish_load = (fun ~node ~load -> log := (node, load) :: !log) }
      in
      let config =
        { Cache.default_config with Cache.replicas; load_threshold = threshold; hot_keys = 2 }
      in
      let cache = Cache.create ~config ~link (logging published) in
      let r = Ref_cache.create ~config ~link (logging ref_published) in
      let z = Zipf.create ~s:1.1 30 in
      let attempt f =
        match f () with o -> Ok o | exception (Failure m | Invalid_argument m) -> Error m
      in
      let same = ref true in
      for _ = 1 to 300 do
        (match Rng.int rng 12 with
        | 0 -> gone.(Rng.int rng n) <- true
        | 1 -> gone.(Rng.int rng n) <- false
        | 2 -> down.(Rng.int rng n) <- true
        | 3 -> down.(Rng.int rng n) <- false
        | _ -> ());
        let client = Rng.int rng n and key = Zipf.sample z rng in
        let got = attempt (fun () -> Cache.request cache ~client ~key) in
        let expected = attempt (fun () -> Ref_cache.request r ~client ~key) in
        if got <> expected then same := false
      done;
      let keys = Cache.stored_keys cache in
      !same
      && keys = Ref_cache.stored_keys r
      && List.for_all (fun key -> Cache.replicas_of cache key = Ref_cache.replicas_of r key) keys
      && List.for_all
           (fun node -> Cache.load_of cache node = Ref_cache.load_of r node)
           (List.init n Fun.id)
      && Cache.replications cache = r.Ref_cache.replications
      && Cache.sheds cache = r.Ref_cache.sheds
      && Cache.failovers cache = r.Ref_cache.failovers
      && Cache.max_load cache = r.Ref_cache.max_load
      && !published = !ref_published)

let suite =
  [
    Alcotest.test_case "zipf validation" `Quick test_zipf_validation;
    Alcotest.test_case "replicas=1 replication plane inert" `Quick test_replicas_one_is_inert;
    Alcotest.test_case "load shedding avoids hot replica" `Quick test_shed_avoids_hot_replica;
    Alcotest.test_case "probe invalidation drives failover" `Quick test_probe_failover;
    Alcotest.test_case "stale RTT cache costs a failover" `Quick test_stale_rtt_costs_a_failover;
    Alcotest.test_case "all copies down refetches origin" `Quick test_failover_to_origin;
    Alcotest.test_case "exp: aware beats random, replication flattens load" `Slow
      test_exp_cache_ordering;
    Alcotest.test_case "exp: metrics byte-identical across same-seed runs" `Slow
      test_exp_cache_metrics_deterministic;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_zipf_deterministic;
        qcheck_zipf_pmf_monotone;
        qcheck_zipf_rank_frequency;
        qcheck_zipf_cdf_close;
        qcheck_zipf_uniform_at_zero;
        qcheck_hit_rate_order_independent;
        qcheck_replication_bounded;
        qcheck_cross_backend;
        qcheck_rank_copies_matches_reference;
      ]
  @ [
      Alcotest.test_case "cache and mcast project one service adapter" `Quick
        test_service_projections_agree;
      Alcotest.test_case "exp: the replication threshold follows --clients" `Slow
        test_exp_cache_threshold_follows_clients;
      QCheck_alcotest.to_alcotest qcheck_cache_matches_reference;
    ]
