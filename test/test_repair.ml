(* Tests for Engine.Repair (trace correlation and the adaptive
   controller) and for the adaptive maintenance mode: hand-built span
   sequences yield exact latencies, qcheck pins the monotonicity /
   partition / bounds invariants, the repair experiment replays
   byte-identically from a seed, a no-op adaptive policy leaves the
   simulation's event stream untouched, and a crashed node's cached RTTs
   are never served stale. *)

module Sim = Engine.Sim
module Trace = Engine.Trace
module Repair = Engine.Repair
module Metrics = Engine.Metrics
module Probe = Engine.Probe
module Builder = Core.Builder
module Maintenance = Core.Maintenance
module Bus = Pubsub.Bus
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Exp_repair = Workload.Exp_repair
module Json = Prelude.Json

let span ?(dur = 0.0) ?(node = -1) ?(peer = -1) ~seq ~at kind =
  { Trace.seq; at; dur; kind; node; peer }

let crash = Trace.Fault_inject Trace.Crash
let leave = Trace.Fault_inject Trace.Leave
let publish region = Trace.Map_publish { region }
let notify change entry region = Trace.Notify { change; entry; region }
let dep = notify Trace.Departed
let sweep purged = Trace.Ttl_sweep { purged }

(* ---- hand-built correlation cases ---- *)

(* One crash, two departure notifications: latencies are exact. *)
let test_single_crash () =
  let spans =
    [
      span ~seq:0 ~at:50.0 ~node:7 ~peer:7 (publish [| 0; 1 |]);
      span ~seq:1 ~at:100.0 ~node:7 crash;
      span ~seq:2 ~at:130.0 ~node:(-1) (sweep 2);
      span ~seq:3 ~at:130.0 ~dur:20.0 ~node:3 ~peer:4 (dep 7 [| 0; 1 |]);
      span ~seq:4 ~at:130.0 ~dur:45.0 ~node:3 ~peer:5 (dep 7 [| 0; 1 |]);
    ]
  in
  let r = Repair.analyze spans in
  Alcotest.(check int) "one fault" 1 (List.length r.Repair.records);
  Alcotest.(check int) "none unrepaired" 0 r.Repair.unrepaired;
  let rec0 = List.hd r.Repair.records in
  Alcotest.(check bool) "repaired" true (Repair.repaired rec0);
  Alcotest.(check int) "two notifications" 2 rec0.Repair.notifies;
  Alcotest.(check (float 1e-9)) "detection = first send - inject" 30.0 (Repair.detection_ms rec0);
  Alcotest.(check (float 1e-9)) "first notify delivered" 50.0 (Repair.first_notify_ms rec0);
  Alcotest.(check (float 1e-9)) "full repair = last delivery" 75.0 (Repair.repair_ms rec0);
  Alcotest.(check int) "one sweep waited on" 1 rec0.Repair.sweeps;
  Alcotest.(check (list string)) "region set" [ "01" ] rec0.Repair.regions

(* A fault with no matching notifications stays unrepaired; notifications
   about other nodes, sent before the injection or not about a departure
   never attach to it, and a plan-level fault span (node -1, as
   [Faults.install] emits) is not a resolved fault. *)
let test_unrepaired_and_misattribution () =
  let spans =
    [
      span ~seq:0 ~at:10.0 ~dur:5.0 ~node:3 ~peer:4 (dep 7 [||]);
      (* pre-injection: must not count *)
      span ~seq:1 ~at:100.0 ~node:7 crash;
      span ~seq:2 ~at:150.0 ~dur:5.0 ~node:3 ~peer:4 (dep 9 [||]);
      (* other victim *)
      span ~seq:3 ~at:150.0 ~dur:5.0 ~node:3 ~peer:4 (notify Trace.Published 7 [||]);
      (* wrong change *)
      span ~seq:4 ~at:100.0 crash;
      (* the plan-level twin of the crash: no victim *)
      span ~seq:5 ~at:160.0 ~dur:5.0 ~node:3 ~peer:4 (notify Trace.Load_changed 7 [||]);
      (* a load change of the victim is not repair traffic *)
    ]
  in
  let r = Repair.analyze spans in
  Alcotest.(check int) "one fault" 1 (List.length r.Repair.records);
  Alcotest.(check int) "unrepaired" 1 r.Repair.unrepaired;
  let rec0 = List.hd r.Repair.records in
  Alcotest.(check bool) "not repaired" false (Repair.repaired rec0);
  Alcotest.(check bool) "latency is nan" true (Float.is_nan (Repair.repair_ms rec0))

(* Re-injection: a victim that crashes, rejoins and crashes again gets two
   records, and each notification lands on the latest prior fault. *)
let test_reinjection_attribution () =
  let spans =
    [
      span ~seq:0 ~at:100.0 ~node:7 crash;
      span ~seq:1 ~at:120.0 ~dur:10.0 ~node:3 ~peer:4 (dep 7 [||]);
      span ~seq:2 ~at:500.0 ~node:7 leave;
      span ~seq:3 ~at:530.0 ~dur:10.0 ~node:3 ~peer:4 (dep 7 [||]);
    ]
  in
  let r = Repair.analyze spans in
  (match r.Repair.records with
  | [ a; b ] ->
    Alcotest.(check (float 1e-9)) "first fault repaired at 30" 30.0 (Repair.repair_ms a);
    Alcotest.(check (float 1e-9)) "second fault repaired at 40" 40.0 (Repair.repair_ms b);
    Alcotest.(check bool) "kinds differ" true (a.Repair.fault.Repair.kind = Repair.Crash);
    Alcotest.(check bool) "second is leave" true (b.Repair.fault.Repair.kind = Repair.Leave)
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l));
  Alcotest.(check int) "none unrepaired" 0 r.Repair.unrepaired

(* Region restriction: when the victim's region set is known, departure
   notifications in foreign regions are not its repair traffic. *)
let test_region_restriction () =
  let spans =
    [
      span ~seq:0 ~at:10.0 ~node:7 ~peer:7 (publish [| 0; 0 |]);
      span ~seq:1 ~at:100.0 ~node:7 crash;
      span ~seq:2 ~at:150.0 ~dur:5.0 ~node:3 ~peer:4 (dep 7 [| 1; 1 |]);
      (* foreign region: ignored *)
      span ~seq:3 ~at:180.0 ~dur:5.0 ~node:3 ~peer:4 (dep 7 [| 0; 0 |]);
    ]
  in
  let r = Repair.analyze spans in
  let rec0 = List.hd r.Repair.records in
  Alcotest.(check int) "only the in-region notification" 1 rec0.Repair.notifies;
  Alcotest.(check (float 1e-9)) "detected by the in-region one" 80.0 (Repair.detection_ms rec0)

(* Republishes: map publishes by OTHERS into the victim's regions between
   injection and full repair are counted; the victim's own publishes and
   later publishes are not. *)
let test_republish_count () =
  let spans =
    [
      span ~seq:0 ~at:10.0 ~node:7 ~peer:7 (publish [| 0 |]);
      span ~seq:1 ~at:100.0 ~node:7 crash;
      span ~seq:2 ~at:110.0 ~node:3 ~peer:9 (publish [| 0 |]);
      (* counted *)
      span ~seq:3 ~at:115.0 ~node:3 ~peer:9 (publish [| 1 |]);
      (* foreign region *)
      span ~seq:4 ~at:120.0 ~dur:10.0 ~node:3 ~peer:4 (dep 7 [| 0 |]);
      span ~seq:5 ~at:500.0 ~node:3 ~peer:9 (publish [| 0 |]);
      (* after repair *)
    ]
  in
  let r = Repair.analyze spans in
  let rec0 = List.hd r.Repair.records in
  Alcotest.(check int) "one republish inside the repair window" 1 rec0.Repair.republishes

let test_dist_of () =
  let d = Repair.dist_of (Array.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check int) "n" 100 d.Repair.n;
  Alcotest.(check (float 1e-6)) "p50" 50.5 d.Repair.p50;
  Alcotest.(check (float 1e-6)) "max" 100.0 d.Repair.max;
  let z = Repair.dist_of [||] in
  Alcotest.(check int) "empty n" 0 z.Repair.n;
  Alcotest.(check (float 1e-9)) "empty p99" 0.0 z.Repair.p99

(* record_metrics publishes one histogram sample per repaired fault and
   partition-consistent counters. *)
let test_record_metrics () =
  let spans =
    [
      span ~seq:0 ~at:100.0 ~node:7 crash;
      span ~seq:1 ~at:120.0 ~dur:10.0 ~node:3 ~peer:4 (dep 7 [||]);
      span ~seq:2 ~at:200.0 ~node:9 leave;
    ]
  in
  let m = Metrics.create () in
  let r = Repair.analyze spans in
  Repair.record_metrics m r;
  Alcotest.(check int) "faults counter" 2 (Metrics.count (Metrics.counter m "repair_faults"));
  Alcotest.(check int) "repaired counter" 1 (Metrics.count (Metrics.counter m "repair_repaired"));
  Alcotest.(check int) "unrepaired counter" 1
    (Metrics.count (Metrics.counter m "repair_unrepaired"));
  Alcotest.(check int) "one latency sample" 1
    (Metrics.observations (Metrics.histogram m "repair_latency_ms"))

(* ---- qcheck: correlation invariants over random span soups ---- *)

(* Random span streams mixing faults, notifications about random victims,
   sweeps and publishes — the analyzer must always satisfy the partition
   and monotonicity invariants no matter the soup. *)
let arbitrary_spans =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<%d spans>" (List.length l))
    QCheck.Gen.(
      let victim = int_range 0 5 in
      let time = map float_of_int (int_range 0 1000) in
      let fault_span seq =
        map2
          (fun v (at, crash) ->
            span ~seq ~at ~node:v (Trace.Fault_inject (if crash then Trace.Crash else Trace.Leave)))
          victim (pair time bool)
      in
      let notify_span seq =
        map2
          (fun v (at, dur) ->
            span ~seq ~at ~dur ~node:0 ~peer:1 (dep v [||]))
          victim
          (pair time (map float_of_int (int_range 0 100)))
      in
      let sweep_span seq = map (fun at -> span ~seq ~at (sweep 1)) time in
      let publish_span seq =
        map2 (fun v at -> span ~seq ~at ~node:0 ~peer:v (publish [||])) victim time
      in
      let any seq = oneof [ fault_span seq; notify_span seq; sweep_span seq; publish_span seq ] in
      sized (fun n ->
          let rec go i acc = if i >= min n 60 then return acc
            else any i >>= fun s -> go (i + 1) (s :: acc)
          in
          go 0 []))

let qcheck_partition_and_monotone =
  QCheck.Test.make ~name:"analyze partitions faults and keeps timestamps monotone" ~count:300
    arbitrary_spans (fun spans ->
      let r = Repair.analyze spans in
      let faults =
        List.length
          (List.filter
             (fun (s : Trace.span) ->
               match s.Trace.kind with
               | Trace.Fault_inject (Trace.Crash | Trace.Leave) -> s.Trace.node >= 0
               | _ -> false)
             spans)
      in
      let repaired = List.filter Repair.repaired r.Repair.records in
      List.length r.Repair.records = faults
      && List.length repaired + r.Repair.unrepaired = faults
      && List.for_all
           (fun rc ->
             let f = rc.Repair.fault in
             f.Repair.injected_at <= rc.Repair.detected_at
             && rc.Repair.detected_at <= rc.Repair.first_notify
             && rc.Repair.first_notify <= rc.Repair.last_notify
             && Repair.detection_ms rc >= 0.0
             && Repair.repair_ms rc >= Repair.first_notify_ms rc)
           repaired
      && List.for_all
           (fun rc -> Float.is_nan (Repair.repair_ms rc) && rc.Repair.notifies = 0)
           (List.filter (fun rc -> not (Repair.repaired rc)) r.Repair.records))

let qcheck_analyze_order_independent =
  QCheck.Test.make ~name:"analyze is independent of span arrival order" ~count:100
    arbitrary_spans (fun spans ->
      let a = Repair.analyze spans in
      let b = Repair.analyze (List.rev spans) in
      (* structural compare, not (=): unrepaired records carry nans *)
      compare a b = 0)

(* ---- qcheck: controller bounds ---- *)

let qcheck_controller_bounds =
  QCheck.Test.make ~name:"controller periods always stay within the policy bounds" ~count:200
    QCheck.(
      pair (int_range 0 100_000)
        (list_of_size Gen.(int_range 0 80) (int_range 0 100_000)))
    (fun (seed, samples) ->
      let p =
        {
          Repair.default_policy with
          Repair.target_ms = 10_000.0;
          window = 1 + (seed mod 5);
          step = 1.5 +. (float_of_int (seed mod 10) /. 10.0);
          min_refresh = 1_000.0;
          max_refresh = 50_000.0;
          min_sweep = 200.0;
          max_sweep = 8_000.0;
        }
      in
      let c = Repair.controller ~refresh:(float_of_int (1 + (seed mod 60_000))) p in
      List.for_all
        (fun s ->
          ignore (Repair.observe c (float_of_int s));
          Repair.refresh_period c >= p.Repair.min_refresh
          && Repair.refresh_period c <= p.Repair.max_refresh
          && Repair.sweep_period c >= p.Repair.min_sweep
          && Repair.sweep_period c <= p.Repair.max_sweep)
        samples
      && Repair.observed c = List.length samples)

let qcheck_controller_digest_bounds =
  QCheck.Test.make
    ~name:"digest-tuning controller keeps the window within [min_digest, max_digest]"
    ~count:200
    QCheck.(
      triple (int_range 0 100_000)
        (list_of_size Gen.(int_range 0 80) (int_range 0 100_000))
        (float_range 0.0 500.0))
    (fun (seed, samples, digest0) ->
      let p =
        {
          Repair.default_policy with
          Repair.target_ms = 10_000.0;
          window = 1 + (seed mod 5);
          step = 1.5 +. (float_of_int (seed mod 10) /. 10.0);
          sample_pct = 50.0 +. float_of_int (seed mod 51);
          min_refresh = 1_000.0;
          max_refresh = 50_000.0;
          min_sweep = 200.0;
          max_sweep = 8_000.0;
          min_digest = 5.0;
          max_digest = 120.0;
        }
      in
      let c =
        Repair.controller ~refresh:(float_of_int (1 + (seed mod 60_000))) ~digest:digest0 p
      in
      let in_bounds () =
        match Repair.digest_window c with
        | Some w -> w >= p.Repair.min_digest && w <= p.Repair.max_digest
        | None -> false
      in
      in_bounds ()
      && List.for_all
           (fun s ->
             ignore (Repair.observe c (float_of_int s));
             in_bounds ())
           samples)

let test_controller_digest_inert_without_bounds () =
  (* max_digest = 0 (the default) leaves digest tuning off: the window
     holds whatever it started at and digest_window reports None, so
     Maintenance never touches the bus. *)
  let c = Repair.controller ~refresh:10_000.0 ~digest:50.0 Repair.default_policy in
  Alcotest.(check bool) "no digest tuning by default" true (Repair.digest_window c = None);
  for _ = 1 to 20 do
    ignore (Repair.observe c 1_000_000.0)
  done;
  Alcotest.(check bool) "still none after pressure" true (Repair.digest_window c = None)

let test_controller_directions () =
  let p =
    {
      Repair.default_policy with
      Repair.target_ms = 10_000.0;
      headroom = 0.5;
      window = 2;
      step = 2.0;
      min_refresh = 1_000.0;
      max_refresh = 100_000.0;
      min_sweep = 100.0;
      max_sweep = 10_000.0;
    }
  in
  let c = Repair.controller ~refresh:10_000.0 ~sweep:1_000.0 p in
  (* Over target: refresh up, sweep down — only on the window boundary. *)
  Alcotest.(check bool) "first sample holds" false (Repair.observe c 50_000.0);
  Alcotest.(check (float 1e-9)) "unchanged mid-window" 10_000.0 (Repair.refresh_period c);
  Alcotest.(check bool) "window closes, adjusts" true (Repair.observe c 50_000.0);
  Alcotest.(check (float 1e-9)) "refresh doubled" 20_000.0 (Repair.refresh_period c);
  Alcotest.(check (float 1e-9)) "sweep halved" 500.0 (Repair.sweep_period c);
  (* Comfortably under the headroom: both step back. *)
  ignore (Repair.observe c 1_000.0);
  Alcotest.(check bool) "relax" true (Repair.observe c 2_000.0);
  Alcotest.(check (float 1e-9)) "refresh back" 10_000.0 (Repair.refresh_period c);
  Alcotest.(check (float 1e-9)) "sweep back" 1_000.0 (Repair.sweep_period c);
  (* In the dead band: hold. *)
  ignore (Repair.observe c 7_000.0);
  Alcotest.(check bool) "hold in band" false (Repair.observe c 7_000.0);
  Alcotest.(check int) "two moves so far" 2 (Repair.adjustments c)

let test_controller_validation () =
  let expect_invalid p =
    match Repair.controller p with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid { Repair.default_policy with Repair.target_ms = 0.0 };
  expect_invalid { Repair.default_policy with Repair.headroom = 1.5 };
  expect_invalid { Repair.default_policy with Repair.window = 0 };
  expect_invalid { Repair.default_policy with Repair.step = 1.0 };
  expect_invalid { Repair.default_policy with Repair.min_refresh = 0.0 };
  expect_invalid
    { Repair.default_policy with Repair.min_sweep = 10.0; max_sweep = 5.0 }

(* ---- adaptive maintenance: determinism and no-op equivalence ---- *)

(* Two full experiment runs from the same seed into fresh registries must
   serialize byte-identically — the determinism contract that makes the
   bench baseline gate meaningful. *)
let test_exp_repair_deterministic () =
  let dump () =
    let m = Metrics.create () in
    let r = Exp_repair.run_one ~scale:32 ~seed:7 ~metrics:m Exp_repair.adaptive in
    (Json.to_string (Metrics.to_json m), r.Exp_repair.adaptations, r.Exp_repair.final_sweep)
  in
  let j1, a1, s1 = dump () and j2, a2, s2 = dump () in
  Alcotest.(check string) "metrics JSON byte-identical" j1 j2;
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "repair instruments present" true (contains j1 "repair_latency_ms");
  Alcotest.(check int) "same adjustments" a1 a2;
  Alcotest.(check (float 0.0)) "same final sweep" s1 s2

(* The adaptive machinery must be inert when the policy cannot move: a
   controller clamped to its starting periods observes everything but
   never retunes, so the traced event stream — publishes, notifications,
   sweeps, faults — is identical to a run with no controller at all. *)
let run_storm ?adapt () =
  let oracle = Workload.Ctx.oracle ~scale:32 Workload.Ctx.Tsk_large Topology.Transit_stub.Manual in
  let sim = Sim.create () in
  let tracer = Trace.create ~clock:(fun () -> Sim.now sim) () in
  let faults = Engine.Faults.create ~seed:99 () in
  let metrics = Metrics.create () in
  let b =
    Builder.build ~metrics ~trace:tracer
      ~clock:(fun () -> Sim.now sim)
      oracle
      { Builder.default_config with Builder.overlay_size = 24; ttl = 30_000.0; seed = 5 }
  in
  let can = Ecan_exp.can b.Builder.ecan in
  let m =
    Maintenance.start ~sim ~metrics ~trace:tracer ~refresh_period:10_000.0 ~sweep_period:2_000.0
      ~channel:(Engine.Faults.perturb faults) ?adapt b
  in
  Maintenance.subscribe_all_slots m;
  let drv = Prelude.Rng.create 17 in
  let handler (ev : Engine.Faults.event) =
    match ev.Engine.Faults.action with
    | Engine.Faults.Crash | Engine.Faults.Leave ->
      let ids = Can_overlay.node_ids can in
      if Array.length ids > 8 then begin
        let victim = Prelude.Rng.pick drv ids in
        if ev.Engine.Faults.action = Engine.Faults.Crash then Maintenance.node_crashes m victim
        else Maintenance.node_departs m victim
      end
    | Engine.Faults.Join -> ()
    | Engine.Faults.Expire fraction ->
      ignore (Softstate.Store.inject_staleness b.Builder.store ~rng:drv ~fraction)
  in
  let storm =
    {
      Engine.Faults.crashes = 4;
      leaves = 2;
      joins = 0;
      expire_bursts = 1;
      expire_fraction = 0.1;
      start = 5_000.0;
      spread = 20_000.0;
    }
  in
  Engine.Faults.install faults ~sim ~plan:(Engine.Faults.plan faults storm) ~handler;
  Sim.run ~until:80_000.0 sim;
  let out =
    ( Trace.spans tracer,
      Maintenance.reselections m,
      Bus.delivered_count (Maintenance.bus m),
      Maintenance.refresh_period m,
      Maintenance.sweep_period m )
  in
  Maintenance.stop m;
  out

let test_noop_policy_equivalence () =
  let noop =
    {
      Repair.default_policy with
      Repair.min_refresh = 10_000.0;
      max_refresh = 10_000.0;
      min_sweep = 2_000.0;
      max_sweep = 2_000.0;
    }
  in
  let spans_a, resel_a, deliv_a, _, _ = run_storm () in
  let spans_b, resel_b, deliv_b, fr, fs = run_storm ~adapt:noop () in
  Alcotest.(check int) "same reselections" resel_a resel_b;
  Alcotest.(check int) "same deliveries" deliv_a deliv_b;
  Alcotest.(check (float 0.0)) "refresh pinned" 10_000.0 fr;
  Alcotest.(check (float 0.0)) "sweep pinned" 2_000.0 fs;
  Alcotest.(check int) "same span count" (List.length spans_a) (List.length spans_b);
  Alcotest.(check bool) "identical span streams" true (spans_a = spans_b)

(* An adaptive run against a real storm must actually move the periods —
   and end inside the policy bounds. *)
let test_adaptive_moves_and_stays_bounded () =
  let p =
    {
      Repair.default_policy with
      Repair.target_ms = 8_000.0;
      window = 3;
      step = 2.0;
      min_refresh = 5_000.0;
      max_refresh = 25_000.0;
      min_sweep = 500.0;
      max_sweep = 4_000.0;
    }
  in
  let _, _, _, fr, fs = run_storm ~adapt:p () in
  Alcotest.(check bool) "refresh inside bounds" true (fr >= 5_000.0 && fr <= 25_000.0);
  Alcotest.(check bool) "sweep inside bounds" true (fs >= 500.0 && fs <= 4_000.0);
  Alcotest.(check bool) "periods moved off the start" true
    (fr <> 10_000.0 || fs <> 2_000.0)

(* ---- probe cache vs crash faults ---- *)

(* A crash must invalidate the victim's cached RTTs: the next probe of any
   pair involving it is a miss, never a stale hit. *)
let test_probe_cache_invalidated_on_crash () =
  let oracle = Workload.Ctx.oracle ~scale:32 Workload.Ctx.Tsk_large Topology.Transit_stub.Manual in
  let sim = Sim.create () in
  let b =
    Builder.build
      ~clock:(fun () -> Sim.now sim)
      oracle
      {
        Builder.default_config with
        Builder.overlay_size = 24;
        probe = { Probe.default_config with Probe.cache_ttl = Float.infinity };
        seed = 3;
      }
  in
  let m = Maintenance.start ~sim b in
  let prober = b.Builder.prober in
  let ids = Can_overlay.node_ids (Ecan_exp.can b.Builder.ecan) in
  let a = ids.(0) and v = ids.(1) in
  ignore (Probe.rtt prober ~src:a ~dst:v);
  let misses_before = Probe.cache_misses prober in
  ignore (Probe.rtt prober ~src:a ~dst:v);
  Alcotest.(check int) "second probe hits the cache" misses_before (Probe.cache_misses prober);
  Maintenance.node_crashes m v;
  (* The crash handling itself probes (table rebuilds), so snapshot the
     counters only now: the next (a, v) probe must be a miss, not a stale
     hit. *)
  let hits_after_crash = Probe.cache_hits prober in
  let misses_after_crash = Probe.cache_misses prober in
  ignore (Probe.rtt prober ~src:a ~dst:v);
  Alcotest.(check int) "post-crash probe does not hit stale cache" hits_after_crash
    (Probe.cache_hits prober);
  Alcotest.(check int) "post-crash probe re-measures" (misses_after_crash + 1)
    (Probe.cache_misses prober);
  Maintenance.stop m

let suite =
  [
    Alcotest.test_case "single crash yields exact latencies" `Quick test_single_crash;
    Alcotest.test_case "unrepaired faults and misattribution" `Quick
      test_unrepaired_and_misattribution;
    Alcotest.test_case "re-injected victims do not cross-talk" `Quick
      test_reinjection_attribution;
    Alcotest.test_case "region set restricts correlation" `Quick test_region_restriction;
    Alcotest.test_case "republishes counted inside the repair window" `Quick
      test_republish_count;
    Alcotest.test_case "dist_of quantiles" `Quick test_dist_of;
    Alcotest.test_case "record_metrics publishes the partition" `Quick test_record_metrics;
    QCheck_alcotest.to_alcotest qcheck_partition_and_monotone;
    QCheck_alcotest.to_alcotest qcheck_analyze_order_independent;
    QCheck_alcotest.to_alcotest qcheck_controller_bounds;
    QCheck_alcotest.to_alcotest qcheck_controller_digest_bounds;
    Alcotest.test_case "digest tuning inert without bounds" `Quick
      test_controller_digest_inert_without_bounds;
    Alcotest.test_case "controller control directions" `Quick test_controller_directions;
    Alcotest.test_case "controller rejects bad policies" `Quick test_controller_validation;
    Alcotest.test_case "repair experiment replays byte-identically" `Quick
      test_exp_repair_deterministic;
    Alcotest.test_case "no-op adaptive policy changes nothing" `Quick
      test_noop_policy_equivalence;
    Alcotest.test_case "adaptive run moves periods within bounds" `Quick
      test_adaptive_moves_and_stays_bounded;
    Alcotest.test_case "crash invalidates the victim's cached RTTs" `Quick
      test_probe_cache_invalidated_on_crash;
  ]
