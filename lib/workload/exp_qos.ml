module Builder = Core.Builder
module Strategy = Core.Strategy
module Measure = Core.Measure
module Store = Softstate.Store
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Stats = Prelude.Stats
module Rng = Prelude.Rng

let overlay_size = 2048
let route_count = 4096
let high_capacity = 10.0
let high_capacity_fraction = 0.1

(* Route a fixed workload and account the forwarding work done by each
   intermediate node. *)
let run_traffic builder =
  let ecan = builder.Builder.ecan in
  let can = Ecan_exp.can ecan in
  let ids = Can_overlay.node_ids can in
  let transits = Hashtbl.create (Array.length ids) in
  let bump id = Hashtbl.replace transits id (1 + Option.value ~default:0 (Hashtbl.find_opt transits id)) in
  let route ~src dst =
    let hops = Measure.to_member can (Ecan_exp.route ecan) ~src dst in
    Option.iter
      (fun hops ->
        let last = List.length hops - 1 in
        List.iteri (fun i h -> if i > 0 && i < last then bump h) hops)
      hops;
    hops
  in
  let samples, failed =
    Measure.sample_routes builder.Builder.oracle (Rng.create 616) ids ~count:route_count
      Measure.Pairs route
  in
  if failed > 0 then failwith "Exp_qos: routing failed";
  ((Measure.report samples).Measure.stretch, transits)

let load_summary builder capacities transits =
  let can = Ecan_exp.can builder.Builder.ecan in
  let norm =
    Array.map
      (fun id ->
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt transits id))
        /. Hashtbl.find capacities id)
      (Can_overlay.node_ids can)
  in
  Stats.summarize norm

let publish_loads builder capacities transits =
  let store = builder.Builder.store in
  let can = Ecan_exp.can builder.Builder.ecan in
  let ids = Can_overlay.node_ids can in
  let max_norm =
    Array.fold_left
      (fun acc id ->
        Float.max acc
          (float_of_int (Option.value ~default:0 (Hashtbl.find_opt transits id))
          /. Hashtbl.find capacities id))
      1e-9 ids
  in
  Array.iter
    (fun id ->
      let capacity = Hashtbl.find capacities id in
      let load =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt transits id))
        /. capacity /. max_norm
      in
      List.iter
        (fun region -> Store.update_stats store ~region ~node:id ~load ~capacity)
        (Store.regions_of store id))
    ids

let run { Run.scale; _ } =
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Manual in
  let size = max 128 (overlay_size / scale) in
  let builder =
    Builder.build oracle
      {
        Builder.default_config with
        Builder.overlay_size = size;
        strategy = Strategy.hybrid ~rtts:10 ();
        seed = 42;
      }
  in
  (* heterogeneous capacities: a few well-provisioned nodes *)
  let cap_rng = Rng.create 717 in
  let capacities = Hashtbl.create size in
  Array.iter
    (fun id ->
      Hashtbl.replace capacities id
        (if Rng.chance cap_rng high_capacity_fraction then high_capacity else 1.0))
    builder.Builder.members;
  (* round 1: proximity-only selection *)
  let stretch1, transits1 = run_traffic builder in
  let load1 = load_summary builder capacities transits1 in
  (* publish observed loads, re-select load-aware, run the same traffic *)
  publish_loads builder capacities transits1;
  Builder.rebuild_tables builder (Strategy.load_aware ~rtts:10 ~load_weight:2.0 ());
  let stretch2, transits2 = run_traffic builder in
  let load2 = load_summary builder capacities transits2 in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Section 6: load-aware neighbor selection (%d nodes, %d routes, %d%% high-capacity)"
           size route_count
           (int_of_float (100.0 *. high_capacity_fraction)))
      ~columns:[ "selection"; "stretch"; "max load/cap"; "p99 load/cap"; "p90 load/cap" ]
  in
  let row selection (stretch : Stats.summary) (load : Stats.summary) =
    let g name v =
      Tableout.gauge ~labels:[ ("experiment", "qos"); ("selection", selection) ] name
        Tableout.cell_f v
    in
    Tableout.add_row table
      [
        Tableout.text selection;
        g "qos_stretch" stretch.Stats.mean;
        g "qos_load_max" load.Stats.max;
        g "qos_load_p99" load.Stats.p99;
        g "qos_load_p90" load.Stats.p90;
      ]
  in
  row "proximity only (hybrid)" stretch1 load1;
  row "load-aware (w=2.0)" stretch2 load2;
  [ Tableout.table table ]
