(* Topology-aware content cache: a *service* workload on the overlay.

   The protocol-level experiments measure stretch; this one measures what
   a user of the overlay would see.  A population of clients (each
   attached to an overlay member, cycling online/offline) issues seeded
   Zipf-distributed requests for keys mapped onto the overlay key space.
   Every backend serves the identical request schedule through
   [Engine.Cache]: a miss routes to the key's home node and pays the
   origin-fetch penalty, a hit routes to the RTT-nearest live copy, and a
   node whose served-request load crosses the threshold gets its hottest
   keys replicated to a topologically-near host — placement chosen
   through the soft-state maps, whose entries' load/capacity fields the
   cache keeps fresh ([Store.lookup ~max_load] skips overloaded hosts).

   Two comparisons close the loop on the paper's own TA-CAN imbalance
   observation:

   - topology-aware vs random expressway tables over the *same* CAN
     membership: hit rates are identical by construction (same homes,
     same schedule), so any delivered-latency difference is pure neighbor
     selection;
   - hotspot replication on vs off ([--replicas 1]): same hit rate again
     (replication copies from the hot node, it never refetches), but the
     max per-node load drops as hot keys spread to near replicas. *)

module Oracle = Topology.Oracle
module Builder = Core.Builder
module Strategy = Core.Strategy
module Cache = Engine.Cache
module Metrics = Engine.Metrics
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Stats = Prelude.Stats
module Rng = Prelude.Rng
module Zipf = Prelude.Zipf

(* ------------------------------------------------------------------ *)
(* Request schedule: shared verbatim by every backend                  *)
(* ------------------------------------------------------------------ *)

type request = { round : int; client : int; key : int }

let cycle_rounds = 16
let online_rounds = 8 (* of every [cycle_rounds]: a 50% duty cycle *)
let round_ms = 100.0

(* Each client gets a seeded phase in the on/off cycle, then every online
   (client, round) slot issues one Zipf draw — in (round, client) order,
   so the schedule is a pure function of its parameters. *)
let schedule ~seed ~clients ~rounds ~universe ~zipf_s =
  let zipf = Zipf.create ~s:zipf_s universe in
  let rng = Rng.create ((seed * 7919) + 5) in
  let phase = Array.init clients (fun _ -> Rng.int rng cycle_rounds) in
  let reqs = ref [] in
  for round = 0 to rounds - 1 do
    for client = 0 to clients - 1 do
      if (round + phase.(client)) mod cycle_rounds < online_rounds then
        reqs := { round; client; key = Zipf.sample zipf rng } :: !reqs
    done
  done;
  Array.of_list (List.rev !reqs)

(* Order-independent multiset digest of the requested keys: a wrapping
   sum of mixed key ids is invariant under any interleaving. *)
let digest_add acc key = acc + Backend.mix62 key

(* ------------------------------------------------------------------ *)
(* Backends                                                            *)
(* ------------------------------------------------------------------ *)

(* The rows' shared service adapters ({!Backend.service}), projected
   onto the cache's backend: a replica goes to the first placement
   candidate.  [route_to] answers [None] for a non-member destination,
   which never happens here: this experiment never changes membership,
   so every home and every copy stays a member. *)
let backend_of (s : Backend.service) =
  {
    Cache.name = s.Backend.name;
    member = s.Backend.member;
    home_of = s.Backend.home_of;
    route_to = s.Backend.route_to;
    near = (fun ~node ~exclude -> List.nth_opt (s.Backend.candidates ~node ~exclude) 0);
    publish_load = s.Backend.publish_load;
  }

(* ------------------------------------------------------------------ *)
(* Driving one backend through the shared schedule                     *)
(* ------------------------------------------------------------------ *)

type stats = {
  label : string;
  requests : int;
  replications : int;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  hit_rate : float;
  max_load : int;
  key_digest : int;
}

let run_backend metrics ?trace ~label ~replicas ~threshold ~oracle ~attach ~reqs backend =
  let now = ref 0.0 in
  let clock () = !now in
  let labels = [ ("experiment", "cache"); ("backend", label) ] in
  let rtt = Backend.service_rtt ~metrics ~labels ~clock oracle in
  let cache =
    Cache.create ~metrics ~labels ?trace ~rtt
      ~config:
        {
          Cache.default_config with
          Cache.replicas;
          load_threshold = threshold;
          hot_keys = 4;
        }
      ~link:(Oracle.dist oracle) backend
  in
  let latencies = Array.make (Array.length reqs) 0.0 in
  let digest = ref 0 in
  Array.iteri
    (fun i r ->
      now := float_of_int r.round *. round_ms;
      let o = Cache.request cache ~client:attach.(r.client) ~key:r.key in
      latencies.(i) <- o.Cache.latency;
      digest := digest_add !digest r.key)
    reqs;
  (match Cache.check_invariants cache with
  | Ok () -> ()
  | Error m -> failwith ("Exp_cache: cache invariant broken: " ^ m));
  let n = Array.length reqs in
  {
    label;
    requests = Cache.requests cache;
    replications = Cache.replications cache;
    mean_ms = Stats.mean latencies;
    p50_ms = Stats.percentile latencies 50.0;
    p99_ms = Stats.percentile latencies 99.0;
    hit_rate = (if n = 0 then 0.0 else float_of_int (Cache.hits cache) /. float_of_int n);
    max_load = Cache.max_load cache;
    key_digest = !digest;
  }

(* ------------------------------------------------------------------ *)
(* The experiment                                                      *)
(* ------------------------------------------------------------------ *)

(* Overlay size, clients, key universe, rounds and replication
   threshold.  A requested client count replaces the default one (which
   is capped at the overlay size); the threshold follows the client
   count, so the busiest nodes cross it whatever the count. *)
let sizes ~scale ?clients () =
  let scale = max 1 scale in
  let size = max 64 (512 / scale) in
  let universe = max 64 (4096 / scale) in
  let rounds = max 24 (1024 / scale) in
  let clients = match clients with Some c -> max 1 c | None -> min (max 16 (512 / scale)) size in
  let threshold = max 8 (clients * rounds / 256) in
  (size, clients, universe, rounds, threshold)

let rows { Run.scale; metrics } ~seed ~zipf_s ~replicas ?trace
    (size, clients, universe, rounds, threshold) =
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Manual in
  let b =
    Builder.build oracle
      {
        Builder.default_config with
        Builder.overlay_size = size;
        strategy = Strategy.hybrid ~rtts:10 ();
        ttl = 3_600_000.0;
        seed;
      }
  in
  let reqs = schedule ~seed ~clients ~rounds ~universe ~zipf_s in
  let attach = Array.init clients (fun c -> b.Builder.members.(c mod size)) in
  let go ~label ~replicas backend =
    Array.iter (fun node -> Backend.publish_load b ~node ~load:0.0) b.Builder.members;
    run_backend metrics ?trace ~label ~replicas ~threshold ~oracle ~attach ~reqs backend
  in
  let service name route = backend_of (Backend.builder_service ~name ~route b) in
  let ecan name = service name (Ecan_exp.route b.Builder.ecan) in
  let aware = go ~label:"ecan aware" ~replicas (ecan "ecan aware") in
  let aware_norepl = go ~label:"ecan aware r1" ~replicas:1 (ecan "ecan aware r1") in
  let can_row =
    go ~label:"can greedy" ~replicas
      (service "can greedy" (Can_overlay.route (Ecan_exp.can b.Builder.ecan)))
  in
  let ring_rows =
    List.map
      (fun kind ->
        let backend = backend_of (Backend.ring_service ~seed b kind) in
        go ~label:backend.Cache.name ~replicas backend)
      [ Backend.Chord; Backend.Pastry; Backend.Koorde 4 ]
  in
  (* Same membership, same homes, same schedule — only the expressway
     tables change, so the latency delta is pure neighbor selection. *)
  Builder.rebuild_tables b Strategy.Random_pick;
  let random = go ~label:"ecan random" ~replicas (ecan "ecan random") in
  Builder.rebuild_tables b b.Builder.config.Builder.strategy;
  (aware :: random :: can_row :: ring_rows) @ [ aware_norepl ]

let data ?(seed = 42) ?(zipf_s = 0.9) ?clients ?(replicas = 3) ?trace run =
  rows run ~seed ~zipf_s ~replicas ?trace (sizes ~scale:run.Run.scale ?clients ())

let run ?(seed = 42) ?(zipf_s = 0.9) ?clients ?(replicas = 3) ({ Run.scale; metrics } as run) =
  let ((size, clients, universe, rounds, threshold) as dims) = sizes ~scale ?clients () in
  let stats = rows run ~seed ~zipf_s ~replicas dims in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Content cache: %d reqs (zipf s=%.2f over %d keys), %d clients on %d nodes, %d \
            rounds, threshold %d, replicas %d, seed %d"
           (match stats with s :: _ -> s.requests | [] -> 0)
           zipf_s universe clients size rounds threshold replicas seed)
      ~columns:
        [ "backend"; "repl"; "p50 ms"; "p99 ms"; "mean"; "hit %"; "max load"; "copies"; "sheds" ]
  in
  List.iter
    (fun s ->
      let g name fmt v = Tableout.gauge ~labels:[ ("backend", s.label) ] name fmt v in
      (* The cache's own counters, under the run's labels. *)
      let counter name =
        Tableout.named
          ~labels:[ ("experiment", "cache"); ("backend", s.label) ]
          name Tableout.Count (Tableout.fixed 0)
      in
      Tableout.add_row table
        [
          Tableout.text s.label;
          Tableout.text (if s.label = "ecan aware r1" then "1" else string_of_int replicas);
          g "cache_p50_ms" Tableout.cell_f s.p50_ms;
          g "cache_p99_ms" Tableout.cell_f s.p99_ms;
          g "cache_mean_ms" Tableout.cell_f s.mean_ms;
          g "cache_hit_rate" (fun v -> Printf.sprintf "%.1f" (100.0 *. v)) s.hit_rate;
          g "cache_max_node_load" (Tableout.fixed 0) (float_of_int s.max_load);
          counter "cache_replications";
          counter "cache_sheds";
        ])
    stats;
  (* Headline gauges the CI gate holds: topology-aware beats random on
     the delivered tail at equal hit rate; replication flattens load. *)
  (match stats with
  | [ aware; random; _; _; _; _; norepl ] ->
    let g name v = Metrics.set (Metrics.gauge metrics name) v in
    g "cache_random_over_aware_p50" (random.p50_ms /. aware.p50_ms);
    g "cache_random_over_aware_p99" (random.p99_ms /. aware.p99_ms);
    g "cache_hit_rates_equal" (if random.hit_rate = aware.hit_rate then 1.0 else 0.0);
    g "cache_repl_load_ratio"
      (float_of_int norepl.max_load /. float_of_int (max 1 aware.max_load))
  | _ -> ());
  [
    Tableout.table table;
    Tableout.note
      "  homes and schedule are identical for the ecan/can rows, so hit rates match and the \
       latency gap is neighbor selection.";
    Tableout.note
      "  copies: hot-key replications triggered at %d served requests/node; max load: most \
       requests served by one node."
      threshold;
  ]
