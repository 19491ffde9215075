(* Tests for the fault-injection subsystem and the churn convergence
   oracles: seeded plans replay byte-identically, oracles pass on clean
   overlays and catch corrupted ones, and the full churn workload repairs
   every overlay after a storm — deterministically. *)

module Sim = Engine.Sim
module Faults = Engine.Faults
module Oracle = Topology.Oracle
module Builder = Core.Builder
module Ecan_exp = Ecan.Expressway
module Backend = Workload.Backend
module Exp_churn = Workload.Exp_churn
module Can_overlay = Can.Overlay
module Rng = Prelude.Rng

let oracle = lazy (Workload.Ctx.oracle ~scale:32 Workload.Ctx.Tsk_large Topology.Transit_stub.Manual)

let small_storm =
  {
    Faults.crashes = 3;
    leaves = 3;
    joins = 6;
    expire_bursts = 1;
    expire_fraction = 0.1;
    start = 5_000.0;
    spread = 15_000.0;
  }

let lossy = { Faults.loss = 0.1; delay_min = 5.0; delay_max = 50.0 }

(* ---- trace determinism (the replay contract) ---- *)

let action_name = function
  | Faults.Crash -> "crash"
  | Faults.Leave -> "leave"
  | Faults.Join -> "join"
  | Faults.Expire _ -> "expire"

(* One full injector lifecycle: plan, install, run, perturb a message
   stream.  Returns the trace digest. *)
let injector_digest ~seed ~storm ~channel ~perturbs =
  let f = Faults.create ~channel ~seed () in
  let sim = Sim.create () in
  let plan = Faults.plan f storm in
  Faults.install f ~sim ~plan ~handler:(fun ev -> Faults.note f (action_name ev.Faults.action));
  Sim.run sim;
  for i = 1 to perturbs do
    ignore (Faults.perturb f (float_of_int i))
  done;
  Faults.trace_digest f

let qcheck_replay_identical =
  QCheck.Test.make ~name:"same seed replays a byte-identical trace" ~count:60
    QCheck.(
      quad (int_range 0 100_000) (int_range 0 12) (int_range 0 12) (int_range 0 100))
    (fun (seed, crashes, joins, loss_pct) ->
      let storm =
        { small_storm with Faults.crashes; joins; leaves = crashes / 2 }
      in
      let channel =
        { Faults.loss = float_of_int loss_pct /. 100.0; delay_min = 1.0; delay_max = 10.0 }
      in
      let d1 = injector_digest ~seed ~storm ~channel ~perturbs:25 in
      let d2 = injector_digest ~seed ~storm ~channel ~perturbs:25 in
      String.equal d1 d2)

let qcheck_plan_shape =
  QCheck.Test.make ~name:"plans are sorted, in-window, and complete" ~count:100
    QCheck.(pair (int_range 0 100_000) (int_range 0 15))
    (fun (seed, n) ->
      let storm = { small_storm with Faults.crashes = n; leaves = n; joins = n } in
      let f = Faults.create ~seed () in
      let plan = Faults.plan f storm in
      let count p = List.length (List.filter p plan) in
      let sorted = ref true and in_window = ref true in
      let last = ref neg_infinity in
      List.iter
        (fun (ev : Faults.event) ->
          if ev.Faults.at < !last then sorted := false;
          last := ev.Faults.at;
          if ev.Faults.at < storm.Faults.start
             || ev.Faults.at >= storm.Faults.start +. storm.Faults.spread
          then in_window := false)
        plan;
      !sorted && !in_window
      && count (fun e -> e.Faults.action = Faults.Crash) = n
      && count (fun e -> e.Faults.action = Faults.Leave) = n
      && count (fun e -> e.Faults.action = Faults.Join) = n
      && count (fun e -> match e.Faults.action with Faults.Expire _ -> true | _ -> false)
         = storm.Faults.expire_bursts)

let test_reliable_channel_is_transparent () =
  let f = Faults.create ~seed:3 () in
  for i = 0 to 9 do
    match Faults.perturb f (float_of_int i) with
    | Some d -> Alcotest.(check (float 1e-9)) "base delay preserved" (float_of_int i) d
    | None -> Alcotest.fail "reliable channel dropped a message"
  done;
  Alcotest.(check int) "all messages counted" 10 (Faults.messages f);
  Alcotest.(check int) "none dropped" 0 (Faults.dropped f)

let test_lossy_channel_bounds () =
  let f = Faults.create ~channel:{ Faults.loss = 0.5; delay_min = 2.0; delay_max = 8.0 } ~seed:4 () in
  let delivered = ref 0 in
  for _ = 1 to 200 do
    match Faults.perturb f 10.0 with
    | Some d ->
      incr delivered;
      Alcotest.(check bool) "delay within channel bounds" true (d >= 12.0 && d < 18.0)
    | None -> ()
  done;
  Alcotest.(check int) "drop counter consistent" (200 - !delivered) (Faults.dropped f);
  Alcotest.(check bool) "some dropped at 50% loss" true (Faults.dropped f > 50);
  Alcotest.(check bool) "some delivered at 50% loss" true (!delivered > 50)

(* ---- convergence oracles ---- *)

let small_builder () =
  let oracle = Lazy.force oracle in
  Builder.build oracle { Builder.default_config with Builder.overlay_size = 64; seed = 3 }

let test_ecan_oracle_clean () =
  let b = small_builder () in
  match Exp_churn.ecan_convergence b with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("clean overlay should converge: " ^ m)

let test_ecan_oracle_detects_corruption () =
  let b = small_builder () in
  let ecan = b.Builder.ecan in
  let can = Ecan_exp.can ecan in
  (* Blow away every table: far more than tolerance's worth of unfilled
     slots whose regions are inhabited. *)
  Array.iter
    (fun id ->
      Ecan_exp.iter_slots ecan id (fun ~row ~digit -> Ecan_exp.set_entry ecan id ~row ~digit None))
    (Can_overlay.node_ids can);
  (match Exp_churn.ecan_convergence b with
  | Ok () -> Alcotest.fail "emptied tables must not pass the oracle"
  | Error _ -> ());
  (* The oracle must restore the churned (here: emptied) tables. *)
  Array.iter
    (fun id ->
      Alcotest.(check int) "snapshot restored" 0 (List.length (Ecan_exp.entries ecan id)))
    (Can_overlay.node_ids can)

let first_candidate ~node ~candidates =
  let rec go i =
    if i >= Array.length candidates then None
    else if candidates.(i) <> node then Some candidates.(i)
    else go (i + 1)
  in
  go 0

let test_chord_oracle () =
  let oracle = Lazy.force oracle in
  let rng = Rng.create 21 in
  let members = Rng.sample rng 64 (Array.init (Oracle.node_count oracle) (fun i -> i)) in
  let ring = Backend.create Backend.Chord rng in
  Array.iter ring.Backend.add members;
  ring.Backend.rebuild ~pick:first_candidate;
  (match Exp_churn.ring_convergence ~seed:5 ring with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("freshly built ring should converge: " ^ m));
  (* Tear out several members: their fingers vanish and fingers pointing
     at them are cleared, leaving inhabited arcs uncovered. *)
  for i = 0 to 7 do
    ring.Backend.remove members.(i)
  done;
  (match Exp_churn.ring_convergence ~seed:5 ring with
  | Ok () -> Alcotest.fail "unrepaired ring must not pass the oracle"
  | Error _ -> ());
  ring.Backend.rebuild ~pick:first_candidate;
  match Exp_churn.ring_convergence ~seed:5 ring with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("rebuilt ring should converge again: " ^ m)

let test_pastry_oracle () =
  let oracle = Lazy.force oracle in
  let rng = Rng.create 22 in
  let members = Rng.sample rng 64 (Array.init (Oracle.node_count oracle) (fun i -> i)) in
  let mesh = Backend.create Backend.Pastry rng in
  Array.iter mesh.Backend.add members;
  (* Record every routing-table entry the build picks, so the removals
     below are guaranteed to leave cleared slots. *)
  let referenced = Hashtbl.create 64 in
  let pick ~node ~candidates =
    let c = first_candidate ~node ~candidates in
    Option.iter (fun t -> Hashtbl.replace referenced t ()) c;
    c
  in
  mesh.Backend.rebuild ~pick;
  (match Exp_churn.ring_convergence ~seed:6 mesh with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("freshly built mesh should converge: " ^ m));
  let victims = ref [] in
  Hashtbl.iter (fun t () -> if List.length !victims < 8 then victims := t :: !victims) referenced;
  List.iter mesh.Backend.remove !victims;
  (match Exp_churn.ring_convergence ~seed:6 mesh with
  | Ok () -> Alcotest.fail "unrepaired mesh must not pass the oracle"
  | Error _ -> ());
  mesh.Backend.rebuild ~pick:first_candidate;
  match Exp_churn.ring_convergence ~seed:6 mesh with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("rebuilt mesh should converge again: " ^ m)

(* ---- full churn workload ---- *)

let test_ecan_storm_repairs () =
  let oracle = Lazy.force oracle in
  let ecan_o, can_o =
    Exp_churn.ecan_outcomes ~size:48 ~seed:5 ~storm:small_storm ~channel:lossy
      ~metrics:(Engine.Metrics.create ()) oracle
  in
  Alcotest.(check bool) "eCAN converges after the storm" true ecan_o.Exp_churn.converged;
  Alcotest.(check bool) "repair latency is finite" false
    (Float.is_nan ecan_o.Exp_churn.repair_ms);
  Alcotest.(check bool) "repair latency non-negative" true (ecan_o.Exp_churn.repair_ms >= 0.0);
  Alcotest.(check bool) "pub/sub did repair work" true (ecan_o.Exp_churn.repair_work > 0);
  Alcotest.(check bool) "notifications were sent" true (ecan_o.Exp_churn.notifications > 0);
  Alcotest.(check bool) "CAN substrate stays consistent" true can_o.Exp_churn.converged

let test_chord_pastry_storm_repairs () =
  let oracle = Lazy.force oracle in
  let ring kind =
    Exp_churn.ring_outcome ~size:48 ~seed:5 ~storm:small_storm ~pick:Exp_churn.hybrid kind oracle
  in
  let chord_o = ring Backend.Chord in
  Alcotest.(check bool) "Chord converges after the storm" true chord_o.Exp_churn.converged;
  Alcotest.(check bool) "stabilisation did work" true (chord_o.Exp_churn.repair_work > 0);
  let pastry_o = ring Backend.Pastry in
  Alcotest.(check bool) "Pastry converges after the storm" true pastry_o.Exp_churn.converged;
  Alcotest.(check bool) "stabilisation did work" true (pastry_o.Exp_churn.repair_work > 0)

(* The maintenance-plane knobs under churn: the full churn driver still
   converges with a sharded store and digest-batched notifications, and
   the sharded store's invariants (shard assignment, reverse indexes,
   heap coverage) hold at every point of a raw maintenance storm. *)
let test_sharded_digest_churn () =
  let oracle = Lazy.force oracle in
  let ecan_o, _ =
    Exp_churn.ecan_outcomes ~size:48 ~seed:5 ~storm:small_storm ~channel:lossy ~shards:4
      ~digest_window:40.0 ~metrics:(Engine.Metrics.create ()) oracle
  in
  Alcotest.(check bool) "converges with sharded store + digests" true
    ecan_o.Exp_churn.converged;
  Alcotest.(check bool) "notifications still flow" true (ecan_o.Exp_churn.notifications > 0);
  (* Raw maintenance storm with a mid-run invariant probe. *)
  let sim = Sim.create () in
  let b =
    Builder.build
      ~clock:(fun () -> Sim.now sim)
      oracle
      { Builder.default_config with Builder.overlay_size = 48; ttl = 60_000.0; shards = 3; seed = 7 }
  in
  let store = b.Builder.store in
  Alcotest.(check int) "builder wired the shards through" 3
    (Softstate.Store.shard_count store);
  let m =
    Core.Maintenance.start ~sim ~refresh_period:20_000.0 ~sweep_period:5_000.0
      ~digest_window:40.0 b
  in
  Core.Maintenance.subscribe_all_slots m;
  let can = Ecan_exp.can b.Builder.ecan in
  let drv = Rng.create 99 in
  let assert_invariants () =
    match Softstate.Store.check_invariants store with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("sharded invariants violated mid-churn: " ^ e)
  in
  let joiners =
    Array.of_seq
      (Seq.filter
         (fun i -> not (Can_overlay.mem can i))
         (Seq.init (Oracle.node_count oracle) (fun i -> i)))
  in
  List.iteri
    (fun i delay ->
      ignore
        (Sim.schedule sim ~delay (fun () ->
          match i mod 3 with
          | 0 -> Core.Maintenance.node_crashes m (Rng.pick drv (Can_overlay.node_ids can))
          | 1 -> Core.Maintenance.node_departs m (Rng.pick drv (Can_overlay.node_ids can))
          | _ -> Core.Maintenance.node_joins m joiners.(i))))
    [ 10_000.0; 20_000.0; 30_000.0; 40_000.0; 50_000.0; 60_000.0 ];
  ignore (Sim.every sim ~period:7_500.0 assert_invariants);
  Sim.run ~until:150_000.0 sim;
  assert_invariants ();
  Core.Maintenance.stop m

let test_storm_metrics_deterministic () =
  let oracle = Lazy.force oracle in
  let run () =
    Exp_churn.ecan_outcomes ~size:48 ~seed:9 ~storm:small_storm ~channel:lossy
      ~metrics:(Engine.Metrics.create ()) oracle
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same metrics" true (a = b);
  let chord () =
    Exp_churn.ring_outcome ~size:48 ~seed:9 ~storm:small_storm ~pick:Exp_churn.hybrid
      Backend.Chord oracle
  in
  let c = chord () and d = chord () in
  Alcotest.(check bool) "chord metrics deterministic" true (c = d)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_replay_identical;
    QCheck_alcotest.to_alcotest qcheck_plan_shape;
    Alcotest.test_case "reliable channel is transparent" `Quick test_reliable_channel_is_transparent;
    Alcotest.test_case "lossy channel bounds" `Quick test_lossy_channel_bounds;
    Alcotest.test_case "ecan oracle: clean overlay passes" `Quick test_ecan_oracle_clean;
    Alcotest.test_case "ecan oracle: corruption detected, snapshot restored" `Quick
      test_ecan_oracle_detects_corruption;
    Alcotest.test_case "chord oracle: storm then rebuild" `Quick test_chord_oracle;
    Alcotest.test_case "pastry oracle: storm then rebuild" `Quick test_pastry_oracle;
    Alcotest.test_case "ecan storm repairs" `Quick test_ecan_storm_repairs;
    Alcotest.test_case "sharded store + digests under churn" `Quick test_sharded_digest_churn;
    Alcotest.test_case "chord/pastry storm repairs" `Quick test_chord_pastry_storm_repairs;
    Alcotest.test_case "storm metrics deterministic" `Quick test_storm_metrics_deterministic;
  ]
