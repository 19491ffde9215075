module Builder = Core.Builder
module Maintenance = Core.Maintenance
module Sim = Engine.Sim
module Faults = Engine.Faults
module Repair = Engine.Repair
module Rng = Prelude.Rng

type config = {
  label : string;
  refresh : float;
  sweep : float;
  digest_window : float;
  adapt : Repair.policy option;
}

type result = {
  config : config;
  report : Repair.report;
  final_refresh : float;
  final_sweep : float;
  adaptations : int;
}

(* A deliberately short soft-state timeline: with a 30 s TTL the refresh
   and sweep knobs dominate how fast a crash is detected, which is exactly
   the sensitivity this sweep measures.  No liveness polling and no table
   audit — detection is pure soft-state expiry, nothing else to hide
   behind.  The store is sharded so the per-shard sweeps run staggered
   across the sweep period: a victim's entries then wait a sweep-dependent
   fraction of the period between expiring and being noticed, which is
   what gives the sweep knob its leverage on the tail (with one shard
   every sweep lands exactly on the synchronized-refresh expiry grid and
   the knob is inert). *)
let ttl = 30_000.0
let settle = 60_000.0
let shards = 4

let storm =
  {
    Faults.crashes = 14;
    leaves = 4;
    joins = 12;
    expire_bursts = 1;
    expire_fraction = 0.1;
    start = 10_000.0;
    spread = 180_000.0;
  }

let channel = { Faults.loss = 0.05; delay_min = 5.0; delay_max = 50.0 }

let fixed ~refresh ~sweep ~digest_window =
  {
    label =
      Printf.sprintf "r%g/s%g/d%g" (refresh /. 1000.0) (sweep /. 1000.0) digest_window;
    refresh;
    sweep;
    digest_window;
    adapt = None;
  }

let hand_picked = fixed ~refresh:20_000.0 ~sweep:5_000.0 ~digest_window:0.0

let grid =
  List.concat_map
    (fun refresh ->
      List.concat_map
        (fun sweep ->
          List.map (fun dw -> fixed ~refresh ~sweep ~digest_window:dw) [ 0.0; 50.0 ])
        [ 2_500.0; 5_000.0; 10_000.0 ])
    [ 20_000.0; 40_000.0 ]

(* A crashed node's entries expire at last_refresh + ttl and are noticed
   by the next sweep, so the controller's useful range is: refresh pushed
   up toward (but kept under) the TTL — any higher and live entries expire
   between refreshes — and sweep pushed down. *)
let adaptive =
  {
    label = "adaptive";
    refresh = hand_picked.refresh;
    sweep = hand_picked.sweep;
    digest_window = 0.0;
    adapt =
      Some
        {
          Repair.target_ms = 15_000.0;
          headroom = 0.5;
          window = 8;
          sample_pct = 100.0;
          step = 1.5;
          min_refresh = 10_000.0;
          max_refresh = 25_000.0;
          min_sweep = 1_000.0;
          max_sweep = 10_000.0;
          min_digest = 0.0;
          max_digest = 0.0;
        };
  }

(* Same storm, but the controller decides on the window's 90th percentile
   of delivered repair latencies (the lossy channel's stray worst sample
   no longer whipsaws the periods) and additionally tunes the digest
   window inside [10, 100] ms. *)
let adaptive_p90 =
  {
    label = "adaptive p90";
    refresh = hand_picked.refresh;
    sweep = hand_picked.sweep;
    digest_window = 50.0;
    adapt =
      (match adaptive.adapt with
      | Some p -> Some { p with Repair.sample_pct = 90.0; min_digest = 10.0; max_digest = 100.0 }
      | None -> None);
  }

let run_config ?(scale = 1) ?(seed = 11) ?(metrics = Engine.Metrics.global) cfg =
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Manual in
  let size = max 24 (96 / scale) in
  let sim = Sim.create () in
  let tracer = Engine.Trace.create ~capacity:(1 lsl 17) ~clock:(fun () -> Sim.now sim) () in
  let faults = Faults.create ~channel ~seed:(seed * 3001 + 1) () in
  let bconfig =
    {
      Builder.default_config with
      Builder.overlay_size = size;
      ttl;
      shards;
      seed = (seed * 3001) + 2;
    }
  in
  let labels = [ ("config", cfg.label); ("experiment", "repair") ] in
  let b =
    Builder.build ~metrics ~labels ~trace:tracer ~clock:(fun () -> Sim.now sim) oracle bconfig
  in
  let m =
    Maintenance.start ~sim ~metrics ~labels ~trace:tracer ~refresh_period:cfg.refresh
      ~sweep_period:cfg.sweep ~channel:(Faults.perturb faults) ~digest_window:cfg.digest_window
      ?adapt:cfg.adapt b
  in
  Maintenance.subscribe_all_slots m;
  Exp_churn.install_ecan_storm faults ~sim ~storm ~rng:(Rng.create ((seed * 3001) + 3)) m b;
  Sim.run ~until:(storm.Faults.start +. storm.Faults.spread +. settle) sim;
  let final_refresh = Maintenance.refresh_period m and final_sweep = Maintenance.sweep_period m in
  let adaptations =
    match Maintenance.controller m with Some c -> Repair.adjustments c | None -> 0
  in
  Maintenance.stop m;
  let report = Repair.analyze (Engine.Trace.spans tracer) in
  Repair.record_metrics ~labels metrics report;
  { config = cfg; report; final_refresh; final_sweep; adaptations }

let run ?(scale = 1) ?(seed = 11) () =
  let results = List.map (run_config ~scale ~seed) (grid @ [ adaptive; adaptive_p90 ]) in
  let size = max 24 (96 / scale) in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Repair latency over %d nodes (ttl %.0f s): %d crashes, %d leaves, %d joins, loss %.0f%%, seed %d"
           size (ttl /. 1000.0) storm.Faults.crashes storm.Faults.leaves storm.Faults.joins
           (100.0 *. channel.Faults.loss) seed)
      ~columns:
        [
          "config"; "faults"; "repaired"; "det p50"; "p50"; "p95"; "p99"; "max"; "adapts";
          "final r/s";
        ]
  in
  (* The analyzer's counters and histograms ({!Repair.record_metrics})
     and the run's outcome gauges, under each config's labels. *)
  let labels r = [ ("config", r.config.label); ("experiment", "repair") ] in
  let ms = Tableout.fixed 0 and s v = Printf.sprintf "%.1f" (v /. 1000.0) in
  let stat r name stat = Tableout.named ~labels:(labels r) name stat ms in
  let rows =
    List.map
      (fun r ->
        let g name fmt v = Tableout.gauge ~labels:(labels r) name fmt v in
        ( r,
          ( g "repair_final_refresh_ms" s r.final_refresh,
            g "repair_final_sweep_ms" s r.final_sweep,
            g "repair_adaptations" ms (float_of_int r.adaptations) ) ))
      results
  in
  List.iter
    (fun (r, (refresh, sweep, adaptations)) ->
      Tableout.add_row table
        [
          Tableout.text r.config.label;
          stat r "repair_faults" Tableout.Count;
          stat r "repair_repaired" Tableout.Count;
          stat r "repair_detection_ms" Tableout.P50;
          stat r "repair_latency_ms" Tableout.P50;
          stat r "repair_latency_ms" Tableout.P95;
          stat r "repair_latency_ms" Tableout.P99;
          stat r "repair_latency_ms" Tableout.Max;
          adaptations;
          Tableout.cat [ refresh; Tableout.text "/"; sweep ];
        ])
    rows;
  let find label = List.find (fun (r, _) -> r.config.label = label) rows in
  let hand, _ = find hand_picked.label in
  let ad, (refresh, sweep, adaptations) = find adaptive.label in
  let text = Tableout.text in
  [
    Tableout.table table;
    Tableout.note
      "  latencies in ms from fault injection; det = first notification sent, p50..max = last \
       delivery (full repair).";
    Tableout.line
      [
        text "  adaptive p99 ";
        stat ad "repair_latency_ms" Tableout.P99;
        text (Printf.sprintf " ms vs hand-picked (%s) " hand_picked.label);
        stat hand "repair_latency_ms" Tableout.P99;
        text " ms after ";
        adaptations;
        text " adjustments (final refresh/sweep ";
        refresh;
        text "/";
        sweep;
        text " s).";
      ];
  ]
