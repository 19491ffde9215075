(* cache: the service read path.  A 2048-member topology-aware eCAN on
   tsk-large with manual latencies (1 h soft-state TTL) serves a seeded
   schedule through [Engine.Cache]: 512 clients x 1024 rounds at a 50%
   duty cycle, 262,144 Zipf(s = 0.9) requests over 4,096 keys, replicas 3,
   load threshold 2048, probe RTT cache TTL 600 s.  An op is one request
   served.  Each rep gets a fresh cache and prober and starts from zeroed
   store loads, so reps repeat byte for byte.  The probe cache is hit
   here and bypassed in [build]; the store is read only by ~100 replica
   placements per rep. *)

open Harness
module Cache = Engine.Cache
module Zone = Geometry.Zone

type sizes = { members : int; clients : int; rounds : int; universe : int; threshold : int }

let sizes = function
  | Full -> { members = 2048; clients = 512; rounds = 1024; universe = 4096; threshold = 2048 }
  | Smoke -> { members = 64; clients = 16; rounds = 256; universe = 256; threshold = 16 }

let round_ms = 100.0

type request = { round : int; client : int; key : int }

(* Each client is online 8 rounds of every 16, from a seeded phase; every
   online (round, client) slot draws one Zipf key. *)
let schedule ~seed s =
  let zipf = Prelude.Zipf.create ~s:0.9 s.universe in
  let rng = Rng.create ((seed * 7919) + 5) in
  let phase = Array.init s.clients (fun _ -> Rng.int rng 16) in
  let reqs = ref [] in
  for round = 0 to s.rounds - 1 do
    for client = 0 to s.clients - 1 do
      if (round + phase.(client)) mod 16 < 8 then
        reqs := { round; client; key = Prelude.Zipf.sample zipf rng } :: !reqs
    done
  done;
  Array.of_list (List.rev !reqs)

(* SplitMix64 finalizer: spreads consecutive key ids over the key space. *)
let point_of_key key =
  let z = Int64.add (Int64.of_int key) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  let h = Int64.to_int (Int64.shift_right_logical z 2) in
  [|
    float_of_int (h land 0x3FFFFFFF) /. 1073741824.0;
    float_of_int ((h lsr 30) land 0x3FFFFFFF) /. 1073741824.0;
  |]

type route_counts = { mutable routes : int; mutable route_failures : int }

(* The backend record: homes from CAN zone ownership, routes over the
   expressways, replica placement from a root-region map lookup that
   skips overloaded entries, loads pushed into the map entries.  With
   [traced], each callback runs in its layer's span. *)
let backend ~traced ~counts (b : Builder.t) =
  let can = Ecan_exp.can b.Builder.ecan in
  let store = b.Builder.store in
  let route ~src ~dst =
    let target = Zone.center (Can_overlay.node can dst).Can_overlay.zone in
    let r =
      if traced then Prof.time l_route (fun () -> Ecan_exp.route b.Builder.ecan ~src target)
      else Ecan_exp.route b.Builder.ecan ~src target
    in
    counts.routes <- counts.routes + 1;
    (match r with
    | None -> counts.route_failures <- counts.route_failures + 1
    | Some hops -> if traced then add_int "ecan_route_hops" (List.length hops - 1));
    r
  in
  let home_of key =
    let p = point_of_key key in
    if traced then Prof.time l_owner (fun () -> Can_overlay.owner_of can p)
    else Can_overlay.owner_of can p
  in
  let near ~node ~exclude =
    let vector = Builder.vector_of b node in
    let lookup () =
      Store.lookup store ~region:[||] ~vector ~max_results:12 ~ttl:2 ~max_load:0.99 ()
    in
    (if traced then Prof.time l_near lookup else lookup ())
    |> List.find_map (fun (e : Store.Entry.t) ->
           let c = e.Store.Entry.node in
           if c <> node && (not (List.mem c exclude)) && Can_overlay.mem can c then Some c
           else None)
  in
  let publish_load ~node ~load =
    let update () =
      List.iter
        (fun region -> Store.update_stats store ~region ~node ~load ~capacity:1.0)
        (Store.regions_of store node)
    in
    if traced then Prof.time l_stats update else update ()
  in
  {
    Cache.name = "ecan";
    member = Can_overlay.mem can;
    home_of;
    route_to = route;
    near;
    publish_load;
  }

let reset_loads (b : Builder.t) =
  Array.iter
    (fun node ->
      List.iter
        (fun region ->
          Store.update_stats b.Builder.store ~region ~node ~load:0.0 ~capacity:1.0)
        (Store.regions_of b.Builder.store node))
    b.Builder.members

let make ~size ~seed ~tracing =
  let s = sizes size in
  let config =
    {
      Builder.default_config with
      Builder.overlay_size = s.members;
      strategy = Strategy.hybrid ~rtts:10 ();
      ttl = 3_600_000.0;
      domains = 1;
      seed;
    }
  in
  let (oracle, b), setup_s =
    setups ~size ~count:3 (fun () ->
        let oracle = network ~tracing size Ts.Manual in
        (oracle, Builder.build oracle config))
  in
  if tracing then replay_fresh oracle config;
  let reqs = schedule ~seed s in
  let n = Array.length reqs in
  let attach = Array.init s.clients (fun c -> b.Builder.members.(c mod s.members)) in
  (* Requests never change CAN membership, so one walk over every pair of
     zones (0.7 s at 2048 members) covers all reps. *)
  require "Can.Overlay.check_invariants"
    (Can_overlay.check_invariants (Ecan_exp.can b.Builder.ecan));
  let rep ~variant:_ ~traced =
    reset_loads b;
    let registry = Metrics.create () in
    let now = ref 0.0 in
    let clock () = !now in
    let prober =
      Probe.create ~metrics:registry ~clock ~pool
        ~config:{ Probe.default_config with Probe.cache_ttl = 600_000.0 }
        ~measure:(Oracle.measure oracle) ()
    in
    let rtt ~src ~dst =
      match Probe.rtt prober ~src ~dst with Ok r -> Some r | Error _ -> None
    in
    let rtt = if traced then fun ~src ~dst -> Prof.time l_rtt (fun () -> rtt ~src ~dst) else rtt in
    let link =
      if traced then (fun u v ->
        add "oracle_dist_calls" 1.0;
        Oracle.dist oracle u v)
      else Oracle.dist oracle
    in
    let counts = { routes = 0; route_failures = 0 } in
    let cache =
      Cache.create ~metrics:registry ~clock ~rtt
        ~config:
          {
            Cache.default_config with
            Cache.replicas = 3;
            load_threshold = s.threshold;
            hot_keys = 4;
          }
        ~link
        (backend ~traced ~counts b)
    in
    let latencies = Array.make n 0.0 in
    let raised = ref 0 in
    let serve i =
      let r = reqs.(i) in
      now := float_of_int r.round *. round_ms;
      match Cache.request cache ~client:attach.(r.client) ~key:r.key with
      | o -> latencies.(i) <- o.Cache.latency
      | exception (Failure _ | Invalid_argument _) -> incr raised
    in
    let measured = Oracle.measurements oracle in
    let (), cost =
      timed ~registry ~traced (fun () ->
          if traced then
            for i = 0 to n - 1 do
              Prof.time l_request (fun () -> serve i)
            done
          else
            for i = 0 to n - 1 do
              serve i
            done)
    in
    if traced then add_int "oracle_measure_calls" (Oracle.measurements oracle - measured);
    if Cache.requests cache <> n then
      fail (Printf.sprintf "served %d requests of a %d-request schedule" (Cache.requests cache) n);
    require "Cache.check_invariants" (Cache.check_invariants cache);
    require "Store.check_invariants" (Store.check_invariants b.Builder.store);
    let outputs =
      Printf.sprintf
        "requests %d hits %d misses %d replications %d sheds %d failovers %d, hit_rate %.17g \
         sim_p50_ms %.17g sim_p99_ms %.17g sim_sum_ms %.17g"
        (Cache.requests cache) (Cache.hits cache) (Cache.misses cache) (Cache.replications cache)
        (Cache.sheds cache) (Cache.failovers cache)
        (float_of_int (Cache.hits cache) /. float_of_int n)
        (Prelude.Stats.percentile latencies 50.0)
        (Prelude.Stats.percentile latencies 99.0)
        (Array.fold_left ( +. ) 0.0 latencies)
    in
    {
      cost;
      outputs;
      attempted = n + counts.routes;
      failed = !raised + counts.route_failures;
    }
  in
  { ops_per_rep = n; warmups = 1; variants = 1; setup_s = (fun () -> setup_s); rep }
