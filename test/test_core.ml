(* Integration tests: Builder + Measure + Maintenance over a real
   transit-stub topology. *)

module Builder = Core.Builder
module Strategy = Core.Strategy
module Measure = Core.Measure
module Maintenance = Core.Maintenance
module Oracle = Topology.Oracle
module Ts = Topology.Transit_stub
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Store = Softstate.Store
module Sim = Engine.Sim
module Rng = Prelude.Rng

let oracle =
  (* One shared small topology for the whole suite (cheap to build). *)
  lazy
    (let topo = Ts.generate (Rng.create 7) (Ts.tsk_large ~scale:16 ~latency:Ts.Manual ()) in
     Oracle.build topo)

let small_config strategy =
  {
    Builder.default_config with
    Builder.overlay_size = 200;
    landmark_count = 8;
    strategy;
    seed = 11;
  }

let test_build_basics () =
  let b = Builder.build (Lazy.force oracle) (small_config (Strategy.hybrid ~rtts:5 ())) in
  Alcotest.(check int) "members" 200 (Array.length b.Builder.members);
  Alcotest.(check int) "overlay populated" 200 (Can_overlay.size (Ecan_exp.can b.Builder.ecan));
  Alcotest.(check int) "every member has a vector" 200 (Hashtbl.length b.Builder.vectors);
  Array.iter
    (fun m ->
      Alcotest.(check int) "vector dimensionality" 8 (Array.length (Builder.vector_of b m)))
    b.Builder.members;
  (* every member is published at least in the root map *)
  Alcotest.(check int) "root map complete" 200
    (List.length (Store.region_entries b.Builder.store [||]))

let test_build_rejects_oversized () =
  let o = Lazy.force oracle in
  let config = { (small_config Strategy.Random_pick) with Builder.overlay_size = 10_000_000 } in
  Alcotest.check_raises "too big" (Invalid_argument "Builder.build: overlay larger than the topology")
    (fun () -> ignore (Builder.build o config))

let test_determinism () =
  let o = Lazy.force oracle in
  let config = small_config (Strategy.hybrid ~rtts:4 ()) in
  let b1 = Builder.build o config and b2 = Builder.build o config in
  Alcotest.(check bool) "same membership" true (b1.Builder.members = b2.Builder.members);
  let r1 = Measure.route_stretch ~pairs:50 b1 and r2 = Measure.route_stretch ~pairs:50 b2 in
  Alcotest.(check (float 1e-9)) "same stretch" r1.Measure.stretch.Prelude.Stats.mean
    r2.Measure.stretch.Prelude.Stats.mean

let test_stretch_ordering () =
  (* The paper's central claim at small scale:
     optimal <= hybrid <= random (on average), and all >= 1. *)
  let o = Lazy.force oracle in
  let mean strategy =
    let b = Builder.build o (small_config strategy) in
    let r = Measure.route_stretch ~pairs:400 b in
    r.Measure.stretch.Prelude.Stats.mean
  in
  let optimal = mean Strategy.Optimal in
  let hybrid = mean (Strategy.hybrid ~rtts:10 ()) in
  let random = mean Strategy.Random_pick in
  Alcotest.(check bool) (Printf.sprintf "optimal %.3f >= 1" optimal) true (optimal >= 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "optimal %.3f <= hybrid %.3f (with slack)" optimal hybrid)
    true
    (optimal <= hybrid +. 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "hybrid %.3f < random %.3f" hybrid random)
    true (hybrid < random)

let test_neighbor_quality_ordering () =
  let o = Lazy.force oracle in
  let quality strategy =
    let b = Builder.build o (small_config strategy) in
    (Measure.neighbor_quality b).Prelude.Stats.mean
  in
  let optimal = quality Strategy.Optimal in
  let hybrid = quality (Strategy.hybrid ~rtts:10 ()) in
  let random = quality Strategy.Random_pick in
  Alcotest.(check (float 1e-9)) "optimal picks the best everywhere" 1.0 optimal;
  Alcotest.(check bool)
    (Printf.sprintf "hybrid %.2f closer to optimal than random %.2f" hybrid random)
    true
    (hybrid < random)

let test_measure_samples () =
  let o = Lazy.force oracle in
  let b = Builder.build o (small_config (Strategy.hybrid ~rtts:5 ())) in
  let r = Measure.route_stretch ~pairs:100 b in
  Alcotest.(check int) "sample count" 100 (List.length r.Measure.samples);
  List.iter
    (fun s ->
      Alcotest.(check bool) "latency >= shortest" true
        (s.Measure.latency >= s.Measure.shortest -. 1e-9);
      Alcotest.(check bool) "hops >= 1" true (s.Measure.hops >= 1))
    r.Measure.samples

let test_can_vs_ecan_hops () =
  let o = Lazy.force oracle in
  let b = Builder.build o (small_config Strategy.Random_pick) in
  let ecan = Measure.route_stretch ~pairs:150 b in
  let can = Measure.can_route_report ~pairs:150 b in
  Alcotest.(check bool)
    (Printf.sprintf "ecan hops %.1f < can hops %.1f" ecan.Measure.hops.Prelude.Stats.mean
       can.Measure.hops.Prelude.Stats.mean)
    true
    (ecan.Measure.hops.Prelude.Stats.mean < can.Measure.hops.Prelude.Stats.mean)

let test_rebuild_tables_changes_strategy () =
  let o = Lazy.force oracle in
  let b = Builder.build o (small_config Strategy.Random_pick) in
  let before = (Measure.neighbor_quality b).Prelude.Stats.mean in
  Builder.rebuild_tables b Strategy.Optimal;
  let after = (Measure.neighbor_quality b).Prelude.Stats.mean in
  Alcotest.(check (float 1e-9)) "optimal after rebuild" 1.0 after;
  Alcotest.(check bool) "was worse before" true (before > after)

let test_dynamic_join_leave () =
  let o = Lazy.force oracle in
  let b = Builder.build o { (small_config (Strategy.hybrid ~rtts:4 ())) with Builder.overlay_size = 120 } in
  let can = Ecan_exp.can b.Builder.ecan in
  (* pick physical nodes not already members *)
  let member_set = Hashtbl.create 128 in
  Array.iter (fun m -> Hashtbl.replace member_set m ()) b.Builder.members;
  let fresh = ref [] in
  let i = ref 0 in
  while List.length !fresh < 5 do
    if not (Hashtbl.mem member_set !i) then fresh := !i :: !fresh;
    incr i
  done;
  List.iter (fun node -> ignore (Builder.join_node b node)) !fresh;
  Alcotest.(check int) "grown" 125 (Can_overlay.size can);
  Alcotest.(check bool) "store consistent after joins" true
    (Store.check_invariants b.Builder.store = Ok ());
  List.iter (fun node -> Builder.leave_node b node) !fresh;
  Alcotest.(check int) "shrunk back" 120 (Can_overlay.size can);
  Alcotest.(check bool) "store consistent after leaves" true
    (Store.check_invariants b.Builder.store = Ok ());
  (* routing still works *)
  let r = Measure.route_stretch ~pairs:50 b in
  Alcotest.(check int) "routes fine after churn" 50 (List.length r.Measure.samples)

let test_maintenance_refresh_keeps_state_alive () =
  let o = Lazy.force oracle in
  let sim = Sim.create () in
  let config = { (small_config (Strategy.hybrid ~rtts:4 ())) with Builder.overlay_size = 80 } in
  let b = Builder.build ~clock:(fun () -> Sim.now sim) o config in
  let m = Maintenance.start ~sim ~refresh_period:200_000.0 ~sweep_period:100_000.0 b in
  (* default ttl 600s; run for 2,000s of virtual time *)
  Sim.run ~until:2_000_000.0 sim;
  Alcotest.(check bool) "refreshes happened" true (Maintenance.refreshes m > 0);
  Alcotest.(check int) "root map still fully populated" 80
    (List.length (Store.region_entries b.Builder.store [||]));
  Maintenance.stop m;
  (* without maintenance the state now decays *)
  Sim.run ~until:4_000_000.0 sim;
  ignore (Store.expire_sweep b.Builder.store);
  Alcotest.(check int) "state expired after maintenance stopped" 0
    (List.length (Store.region_entries b.Builder.store [||]))

let test_maintenance_reselects_on_departure () =
  let o = Lazy.force oracle in
  let sim = Sim.create () in
  let config = { (small_config (Strategy.hybrid ~rtts:4 ())) with Builder.overlay_size = 80 } in
  let b = Builder.build ~clock:(fun () -> Sim.now sim) o config in
  let m = Maintenance.start ~sim b in
  Maintenance.subscribe_all_slots m;
  (* find a node that is someone's table entry *)
  let ecan = b.Builder.ecan in
  let can = Ecan_exp.can ecan in
  let victim = ref (-1) in
  Array.iter
    (fun id ->
      if !victim = -1 then begin
        match Ecan_exp.entries ecan id with
        | (_, _, target) :: _ -> victim := target
        | [] -> ()
      end)
    (Can_overlay.node_ids can);
  Alcotest.(check bool) "found a victim" true (!victim >= 0);
  Maintenance.node_departs m !victim;
  (* bounded: the periodic refresh timers never exhaust the queue *)
  Sim.run ~until:1_000_000.0 sim;
  Alcotest.(check bool) "re-selections happened" true (Maintenance.reselections m > 0);
  (* no table may still point at the departed node *)
  Array.iter
    (fun id ->
      List.iter
        (fun (_, _, target) ->
          Alcotest.(check bool) "no dangling entry" true (target <> !victim))
        (Ecan_exp.entries ecan id))
    (Can_overlay.node_ids can)

let test_liveness_polling_retracts_dead_entries () =
  let o = Lazy.force oracle in
  let sim = Sim.create () in
  let config = { (small_config (Strategy.hybrid ~rtts:4 ())) with Builder.overlay_size = 60 } in
  let b = Builder.build ~clock:(fun () -> Sim.now sim) o config in
  let m = Maintenance.start ~sim b in
  (* a "crashed" node: silently gone, its soft state left behind *)
  let dead = b.Builder.members.(7) in
  let departed = ref 0 in
  let _sub =
    Core.Maintenance.bus m
    |> fun bus ->
    Pubsub.Bus.subscribe bus ~subscriber:1 ~region:[||] ~condition:(Pubsub.Bus.Departure_of dead)
      ~handler:(fun _ -> incr departed)
  in
  Maintenance.enable_liveness_polling m ~period:10_000.0 ~is_alive:(fun id -> id <> dead) ();
  Alcotest.(check bool) "state present before polling" true
    (Store.find b.Builder.store ~region:[||] ~node:dead <> None);
  Sim.run ~until:25_000.0 sim;
  Alcotest.(check bool) "dead node's state retracted" true
    (Store.find b.Builder.store ~region:[||] ~node:dead = None);
  Alcotest.(check int) "watchers notified" 1 !departed;
  Maintenance.stop m

let test_leave_rebuilds_relocated_tables () =
  let o = Lazy.force oracle in
  let b = Builder.build o { (small_config (Strategy.hybrid ~rtts:4 ())) with Builder.overlay_size = 120 } in
  let ecan = b.Builder.ecan in
  let can = Ecan_exp.can ecan in
  (* remove a third of the membership through the public API *)
  let victims = Prelude.Rng.sample (Rng.create 77) 40 (Can_overlay.node_ids can) in
  Array.iter (fun v -> Builder.leave_node b v) victims;
  let victim_set = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace victim_set v ()) victims;
  Array.iter
    (fun id ->
      List.iter
        (fun (row, digit, target) ->
          Alcotest.(check bool) "no dangling entries" false (Hashtbl.mem victim_set target);
          (* every entry is a member of the region it represents *)
          let region = Ecan_exp.region_prefix ecan id ~row ~digit in
          let path = (Can_overlay.node can target).Can_overlay.path in
          Alcotest.(check bool) "entry consistent with its region" true
            (Array.length path >= Array.length region
            && Array.for_all2 ( = ) region (Array.sub path 0 (Array.length region))))
        (Ecan_exp.entries ecan id))
    (Can_overlay.node_ids can);
  (* and the store still matches the shrunken overlay *)
  Alcotest.(check bool) "store consistent" true (Store.check_invariants b.Builder.store = Ok ());
  let r = Measure.route_stretch ~pairs:80 b in
  Alcotest.(check int) "routing intact" 80 (List.length r.Measure.samples)

let test_strategy_validation () =
  Alcotest.check_raises "hybrid rtts" (Invalid_argument "Strategy.hybrid: rtts must be >= 1")
    (fun () -> ignore (Strategy.hybrid ~rtts:0 ()));
  Alcotest.(check string) "hybrid print" "hybrid(rtts=7)"
    (Strategy.to_string (Strategy.hybrid ~rtts:7 ()));
  Alcotest.(check string) "random print" "random" (Strategy.to_string Strategy.Random_pick);
  Alcotest.(check string) "optimal print" "optimal" (Strategy.to_string Strategy.Optimal)

(* A lookup bound below 1 or a negative lookup TTL would make every slot
   a blind random pick; both constructors refuse them, and accept the
   smallest legal values. *)
let check_lookup_validation name make =
  Alcotest.check_raises "lookup_results 0"
    (Invalid_argument (name ^ ": lookup_results must be >= 1"))
    (fun () -> ignore (make ~lookup_results:0 ~lookup_ttl:2));
  Alcotest.check_raises "lookup_results -3"
    (Invalid_argument (name ^ ": lookup_results must be >= 1"))
    (fun () -> ignore (make ~lookup_results:(-3) ~lookup_ttl:2));
  Alcotest.check_raises "lookup_ttl -1" (Invalid_argument (name ^ ": lookup_ttl must be >= 0"))
    (fun () -> ignore (make ~lookup_results:16 ~lookup_ttl:(-1)));
  ignore (make ~lookup_results:1 ~lookup_ttl:0)

let test_hybrid_lookup_validation () =
  check_lookup_validation "Strategy.hybrid" (fun ~lookup_results ~lookup_ttl ->
      Strategy.hybrid ~lookup_results ~lookup_ttl ~rtts:4 ())

let test_load_aware_lookup_validation () =
  check_lookup_validation "Strategy.load_aware" (fun ~lookup_results ~lookup_ttl ->
      Strategy.load_aware ~lookup_results ~lookup_ttl ~rtts:4 ())

let test_maintenance_adopts_newcomers () =
  let o = Lazy.force oracle in
  let sim = Sim.create () in
  let config = { (small_config (Strategy.hybrid ~rtts:4 ())) with Builder.overlay_size = 100 } in
  let b = Builder.build ~clock:(fun () -> Sim.now sim) o config in
  let m = Maintenance.start ~sim b in
  Maintenance.subscribe_all_slots m;
  let member_set = Hashtbl.create 128 in
  Array.iter (fun x -> Hashtbl.replace member_set x ()) b.Builder.members;
  let joined = ref 0 in
  let i = ref 0 in
  while !joined < 20 do
    if not (Hashtbl.mem member_set !i) then begin
      Maintenance.node_joins m !i;
      incr joined
    end;
    incr i
  done;
  Sim.run ~until:500_000.0 sim;
  Alcotest.(check bool) "newcomers triggered re-selections" true (Maintenance.reselections m > 0);
  (* overlay remains routable and the store consistent *)
  let r = Measure.route_stretch ~pairs:60 b in
  Alcotest.(check int) "routes fine" 60 (List.length r.Measure.samples);
  Alcotest.(check bool) "store consistent" true
    (Store.check_invariants b.Builder.store = Ok ());
  Maintenance.stop m

let test_join_cost_windows () =
  (* The probe plane prices a join's landmark-vector phase as the sum of
     landmark RTTs at window 1 and as the single slowest RTT at window L;
     the join itself (membership, vectors, tables) is window-invariant. *)
  let o = Lazy.force oracle in
  let join_with window =
    let config =
      {
        (small_config (Strategy.hybrid ~rtts:5 ())) with
        Builder.probe = { Engine.Probe.default_config with Engine.Probe.window };
      }
    in
    let b = Builder.build o config in
    let can = Ecan_exp.can b.Builder.ecan in
    let joiner =
      let rec find i = if Can_overlay.mem can i then find (i + 1) else i in
      find 0
    in
    Oracle.reset_measurements o;
    let cost = Builder.join_node b joiner in
    (b, joiner, cost, Oracle.measurements o)
  in
  let lcount = (small_config Strategy.Random_pick).Builder.landmark_count in
  let b1, joiner, seq, probes1 = join_with 1 in
  let _, joiner', con, probes2 = join_with lcount in
  Alcotest.(check int) "same joiner" joiner joiner';
  Alcotest.(check int) "same probe count at any window" probes1 probes2;
  let lms = Landmark.Landmarks.nodes b1.Builder.landmarks in
  let sum = Array.fold_left (fun a l -> a +. Oracle.dist o joiner l) 0.0 lms in
  let max_rtt = Array.fold_left (fun a l -> Float.max a (Oracle.dist o joiner l)) 0.0 lms in
  Alcotest.(check (float 1e-9)) "window 1 vector phase = sum of landmark RTTs" sum
    seq.Builder.vector_ms;
  Alcotest.(check (float 1e-9)) "window L vector phase = max landmark RTT" max_rtt
    con.Builder.vector_ms;
  Alcotest.(check bool) "selection phase never slower at window L" true
    (con.Builder.selection_ms <= seq.Builder.selection_ms)

(* ------------------------------------------------------------------ *)
(* Measure.sample_routes against the loops it replaced                 *)
(* ------------------------------------------------------------------ *)

(* Test-local copies of the per-experiment loops the sampler replaced:
   the pair draw of [Measure.route_stretch] (raises on a failed route)
   and the key draw of the xover rows (raise) and the churn rows (skip),
   each with its own hop-pair latency fold. *)
let ref_latency oracle hops =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (acc +. Oracle.dist oracle a b) rest
    | [ _ ] | [] -> acc
  in
  go 0.0 hops

let ref_pair_loop oracle rng ids ~count route =
  if Array.length ids < 2 then invalid_arg "Measure: need at least two members";
  let samples = ref [] in
  for _ = 1 to count do
    let src = Rng.pick rng ids in
    let rec draw_dst () =
      let d = Rng.pick rng ids in
      if d = src then draw_dst () else d
    in
    let dst = draw_dst () in
    match route ~src dst with
    | Some hops ->
      samples :=
        {
          Measure.src;
          dst;
          hops = List.length hops - 1;
          latency = ref_latency oracle hops;
          shortest = Oracle.dist oracle src dst;
        }
        :: !samples
    | None -> failwith "Measure: routing failed"
  done;
  let stretches =
    List.filter_map
      (fun (s : Measure.sample) ->
        if s.Measure.shortest > 0.0 then Some (s.Measure.latency /. s.Measure.shortest) else None)
      !samples
  in
  ( !samples,
    Prelude.Stats.summarize (Array.of_list stretches),
    Prelude.Stats.summarize
      (Array.of_list
         (List.map (fun (s : Measure.sample) -> float_of_int s.Measure.hops) !samples)) )

let ref_key_loop oracle rng ids ~count ~key_space ~owner ~skip route =
  let acc = ref [] in
  for _ = 1 to count do
    let src = Rng.pick rng ids in
    let key = Rng.int rng key_space in
    match route ~src key with
    | Some hops ->
      let shortest = Oracle.dist oracle src (owner key) in
      if shortest > 0.0 then acc := (ref_latency oracle hops /. shortest) :: !acc
    | None -> if not skip then failwith "routing failed"
  done;
  !acc

(* A small random connected graph over [n] nodes, as a dense oracle. *)
let graph_oracle seed n =
  let rng = Rng.create seed in
  let edges =
    List.init (n - 1) (fun i -> (Rng.int rng (i + 1), i + 1, Rng.float_in rng 1.0 20.0))
  in
  Oracle.of_graph (Topology.Graph.make n edges)

(* A route callback that draws its inner hops from its own rng — so the
   two loops must call it equally often and in the same order — and
   fails when [(src + target + hops) mod fail_every = 0] (never for 0). *)
let flaky_route ~seed ~fail_every n ~last =
  let rng = Rng.create seed in
  fun ~src target ->
    let inner = Rng.int rng 4 in
    if fail_every > 0 && (src + target + inner) mod fail_every = 0 then None
    else Some ((src :: List.init inner (fun _ -> Rng.int rng n)) @ [ last target ])

let same a b = compare a b = 0

(* Both loops ran from equal rngs; equal next draws = equal end states. *)
let same_rng_end r1 r2 = same (Rng.bits64 r1, Rng.bits64 r1) (Rng.bits64 r2, Rng.bits64 r2)

let outcome f = match f () with v -> Ok v | exception (Failure _ | Invalid_argument _) -> Error ()

let qcheck_sampler_pairs =
  QCheck.Test.make ~name:"sample_routes Pairs = the pair-draw loop it replaced" ~count:300
    QCheck.(quad (int_range 0 100_000) (int_range 1 12) (int_range 0 40) (int_range 0 9))
    (fun (seed, n, count, fail_every) ->
      let oracle = graph_oracle seed n in
      let ids = Array.init n Fun.id in
      let run f =
        let rng = Rng.create (seed + 1) in
        let route = flaky_route ~seed:(seed + 2) ~fail_every n ~last:Fun.id in
        (outcome (fun () -> f rng route), rng)
      in
      let old, old_rng = run (fun rng route -> ref_pair_loop oracle rng ids ~count route) in
      let fresh, fresh_rng =
        run (fun rng route ->
            let samples, failed = Measure.sample_routes oracle rng ids ~count Measure.Pairs route in
            if failed > 0 then failwith "Measure: routing failed";
            let r = Measure.report samples in
            (r.Measure.samples, r.Measure.stretch, r.Measure.hops))
      in
      match (old, fresh) with
      | Ok o, Ok f -> same o f && same_rng_end old_rng fresh_rng
      | Error (), Error () -> true
      | Ok _, Error () | Error (), Ok _ -> false)

let qcheck_sampler_keys =
  QCheck.Test.make ~name:"sample_routes Keys = the key-draw loops it replaced (skip and raise)"
    ~count:300
    QCheck.(
      quad (int_range 0 100_000) (int_range 1 12) (int_range 0 40)
        (pair (int_range 1 64) (int_range 0 9)))
    (fun (seed, n, count, (key_space, fail_every)) ->
      let oracle = graph_oracle seed n in
      let ids = Array.init n Fun.id in
      (* [owner] may be the source itself: a zero-distance sample with no stretch. *)
      let owner key = key * 7 mod n in
      let run f =
        let rng = Rng.create (seed + 1) in
        let route = flaky_route ~seed:(seed + 2) ~fail_every n ~last:owner in
        (outcome (fun () -> f rng route), rng)
      in
      let sampled rng route =
        Measure.sample_routes oracle rng ids ~count (Measure.Keys { key_space; owner }) route
      in
      let check ~skip =
        let old, old_rng =
          run (fun rng route -> ref_key_loop oracle rng ids ~count ~key_space ~owner ~skip route)
        in
        let fresh, fresh_rng =
          run (fun rng route ->
              let samples, failed = sampled rng route in
              if failed > 0 && not skip then failwith "routing failed";
              Measure.stretches samples)
        in
        match (old, fresh) with
        | Ok o, Ok f ->
          same o f
          && same
               (Prelude.Stats.summarize (Array.of_list o))
               (Prelude.Stats.summarize (Array.of_list f))
          && same_rng_end old_rng fresh_rng
        | Error (), Error () -> true
        | Ok _, Error () | Error (), Ok _ -> false
      in
      check ~skip:true && check ~skip:false)

(* Region-ordered fill against its reference model: twin builders (same
   config and seed, each with its own registry and trace) refilled whole,
   one by [Builder.rebuild_tables] and one by [Ecan_exp.build_tables]
   over the per-slot [Builder.selector].  Everything the fill leaves
   behind must agree: every table, every target's referrer order, the
   builder rng's next draws, the prober's counters, the metrics JSON and
   the trace. *)
let fill_strategies =
  [|
    (fun lookup_ttl -> Strategy.hybrid ~lookup_ttl ~rtts:1 ());
    (fun lookup_ttl -> Strategy.hybrid ~lookup_ttl ~rtts:10 ());
    (fun lookup_ttl -> Strategy.hybrid ~lookup_ttl ~rtts:40 ());
    (fun lookup_ttl -> Strategy.load_aware ~lookup_ttl ~rtts:10 ~load_weight:2.0 ());
  |]

(* Thin maps: spread over the whole region (condense 64) and read at the
   landing host only (lookup TTL 0), so some lookups come back empty. *)
let thin_condense = 64.0

let fill_twin ~seed ~strategy ~window ~condense ~churn =
  let o = Lazy.force oracle in
  let config =
    {
      (small_config strategy) with
      Builder.overlay_size = 72;
      condense;
      probe = { Engine.Probe.window; cache_ttl = 1e9 };
      seed;
    }
  in
  let metrics = Engine.Metrics.create () in
  let trace = Engine.Trace.create ~capacity:(1 lsl 16) () in
  let b = Builder.build ~metrics ~trace o config in
  let lrng = Rng.create (seed + 1) in
  Array.iter
    (fun node ->
      List.iter
        (fun region ->
          Store.update_stats b.Builder.store ~region ~node ~load:(Rng.float lrng 1.0) ~capacity:1.0)
        (Store.regions_of b.Builder.store node))
    b.Builder.members;
  if churn then begin
    let members = Hashtbl.create 128 in
    Array.iter (fun m -> Hashtbl.replace members m ()) b.Builder.members;
    let fresh = List.filter (fun n -> not (Hashtbl.mem members n)) (List.init 40 Fun.id) in
    List.iteri (fun i n -> if i < 4 then ignore (Builder.join_node b n)) fresh;
    let ids = Can_overlay.node_ids (Ecan_exp.can b.Builder.ecan) in
    Array.iter (Builder.leave_node b) (Rng.sample (Rng.create (seed + 2)) 5 ids)
  end;
  (b, metrics, trace)

(* Slots of a whole fill whose lookup yields no candidate: the ones that
   fall back to a blind pick. *)
let fallback_slots b strategy =
  let lookup_results, lookup_ttl =
    match strategy with
    | Strategy.Hybrid { lookup_results; lookup_ttl; _ }
    | Strategy.Load_aware { lookup_results; lookup_ttl; _ } ->
      (lookup_results, lookup_ttl)
    | Strategy.Random_pick | Strategy.Optimal -> assert false
  in
  let ecan = b.Builder.ecan and n = ref 0 in
  Array.iter
    (fun id ->
      Ecan_exp.iter_selections ecan id (fun ~row:_ ~digit:_ ~region ~candidates:_ ->
          let entries =
            Store.lookup b.Builder.store ~region ~vector:(Builder.vector_of b id)
              ~max_results:lookup_results ~ttl:lookup_ttl ()
          in
          if List.for_all (fun (e : Store.Entry.t) -> e.Store.Entry.node = id) entries then incr n))
    (Can_overlay.node_ids (Ecan_exp.can ecan));
  !n

(* The names of what differs between a region-ordered refill and the
   reference; [] when they agree. *)
let fill_vs_reference ~seed ~strategy ~window ~condense ~churn =
  let twin () = fill_twin ~seed ~strategy ~window ~condense ~churn in
  let fresh = twin () and reference = twin () in
  let b1, _, _ = fresh and b2, _, _ = reference in
  Builder.rebuild_tables b1 strategy;
  Ecan_exp.build_tables b2.Builder.ecan ~selector:(Builder.selector b2 strategy);
  let state (b, m, t) =
    let ecan = b.Builder.ecan in
    let ids = Can_overlay.node_ids (Ecan_exp.can ecan) in
    let p = b.Builder.prober in
    let bytes v = Marshal.to_string v [] in
    [
      ("tables", bytes (Array.map (fun id -> (id, Ecan_exp.entries ecan id)) ids));
      ("referrers", bytes (Array.map (Ecan_exp.referrers ecan) ids));
      ("rng", bytes (Rng.bits64 b.Builder.rng, Rng.bits64 b.Builder.rng));
      ( "probe counters",
        bytes
          Engine.Probe.
            (probes p, cache_hits p, cache_misses p, cache_stale p, total_elapsed p) );
      ("metrics", Prelude.Json.to_string (Engine.Metrics.to_json m));
      ("trace", Engine.Trace.to_jsonl t);
    ]
  in
  List.filter_map
    (fun ((what, a), (_, b)) -> if String.equal a b then None else Some what)
    (List.combine (state fresh) (state reference))

let qcheck_region_ordered_fill =
  QCheck.Test.make ~name:"region-ordered fill = per-slot selector fill (twin builders)" ~count:40
    QCheck.(
      quad (int_range 0 100_000) (int_range 0 (Array.length fill_strategies - 1)) bool
        (pair bool bool))
    (fun (seed, k, wide, (thin, churn)) ->
      let differs =
        fill_vs_reference ~seed
          ~strategy:(fill_strategies.(k) (if thin then 0 else 2))
          ~window:(if wide then 3 else 1)
          ~condense:(if thin then thin_condense else 1.0)
          ~churn
      in
      if differs <> [] then QCheck.Test.fail_reportf "differs: %s" (String.concat ", " differs);
      true)

(* Thin maps with rebuilt tables after churn: the case where fallback
   picks and probes interleave, checked to have both. *)
let test_region_ordered_fill_thin () =
  let strategy = fill_strategies.(3) 0 in
  let b, _, _ = fill_twin ~seed:5 ~strategy ~window:3 ~condense:thin_condense ~churn:true in
  let fallbacks = fallback_slots b strategy in
  Alcotest.(check bool) "some slots fall back to a blind pick" true (fallbacks > 0);
  Alcotest.(check bool) "some slots probe" true
    (fallbacks < Array.fold_left (fun n id -> n + Ecan_exp.table_size b.Builder.ecan id) 0
                   (Can_overlay.node_ids (Ecan_exp.can b.Builder.ecan)));
  Alcotest.(check (list string)) "nothing differs" []
    (fill_vs_reference ~seed:5 ~strategy ~window:3 ~condense:thin_condense ~churn:true)

let suite =
  [
    Alcotest.test_case "build basics" `Quick test_build_basics;
    Alcotest.test_case "build validation" `Quick test_build_rejects_oversized;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "stretch ordering optimal<=hybrid<random" `Slow test_stretch_ordering;
    Alcotest.test_case "neighbor quality ordering" `Slow test_neighbor_quality_ordering;
    Alcotest.test_case "measurement samples" `Quick test_measure_samples;
    Alcotest.test_case "ecan beats can on hops" `Quick test_can_vs_ecan_hops;
    Alcotest.test_case "rebuild under new strategy" `Quick test_rebuild_tables_changes_strategy;
    Alcotest.test_case "dynamic join/leave" `Quick test_dynamic_join_leave;
    Alcotest.test_case "maintenance keeps soft state alive" `Quick
      test_maintenance_refresh_keeps_state_alive;
    Alcotest.test_case "pub/sub repairs departures" `Quick test_maintenance_reselects_on_departure;
    Alcotest.test_case "pub/sub adopts newcomers" `Quick test_maintenance_adopts_newcomers;
    Alcotest.test_case "leave rebuilds relocated tables" `Quick test_leave_rebuilds_relocated_tables;
    Alcotest.test_case "liveness polling retracts dead state" `Quick
      test_liveness_polling_retracts_dead_entries;
    Alcotest.test_case "strategy validation" `Quick test_strategy_validation;
    Alcotest.test_case "hybrid rejects an empty or negative lookup" `Quick
      test_hybrid_lookup_validation;
    Alcotest.test_case "load-aware rejects an empty or negative lookup" `Quick
      test_load_aware_lookup_validation;
    Alcotest.test_case "join cost vs probe window" `Quick test_join_cost_windows;
    QCheck_alcotest.to_alcotest qcheck_sampler_pairs;
    QCheck_alcotest.to_alcotest qcheck_sampler_keys;
    Alcotest.test_case "region-ordered fill: thin maps after churn" `Quick
      test_region_ordered_fill_thin;
    QCheck_alcotest.to_alcotest qcheck_region_ordered_fill;
  ]
