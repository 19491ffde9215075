module Oracle = Topology.Oracle
module Can_overlay = Can.Overlay
module Point = Geometry.Point
module Landmarks = Landmark.Landmarks
module Number = Landmark.Number
module Builder = Core.Builder
module Strategy = Core.Strategy
module Measure = Core.Measure
module Stats = Prelude.Stats
module Rng = Prelude.Rng

let overlay_size = 2048
let route_count = 2048
let landmark_count = 15

type outcome = { stretch : Stats.summary; hops : Stats.summary; max_neighbors : int }

let max_neighbors can =
  Array.fold_left
    (fun acc id -> max acc (List.length (Can_overlay.node can id).Can_overlay.neighbors))
    0 (Can_overlay.node_ids can)

(* [route_count] seeded member pairs, each routed to the centre of the
   destination's zone.  Every transit-stub link is at least 1 ms, so
   distinct members are never at distance 0 and every route gives both a
   stretch and a hop sample. *)
let measure_can oracle can route =
  let samples, failed =
    Measure.sample_routes oracle (Rng.create 808) (Can_overlay.node_ids can) ~count:route_count
      Measure.Pairs (Measure.to_member can route)
  in
  if failed > 0 then failwith "Exp_taxonomy: routing failed";
  let report = Measure.report samples in
  {
    stretch = report.Measure.stretch;
    hops = report.Measure.hops;
    max_neighbors = max_neighbors can;
  }

let build_can members ~point_of =
  let rng = Rng.create 4243 in
  let can = Can_overlay.create ~dims:2 members.(0) in
  for i = 1 to Array.length members - 1 do
    ignore (Can_overlay.join can members.(i) (point_of rng members.(i)))
  done;
  can

let run { Run.scale; _ } =
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Gtitm_random in
  let size = max 128 (overlay_size / scale) in
  let rng = Rng.create 909 in
  let all = Array.init (Oracle.node_count oracle) (fun i -> i) in
  let members = Rng.sample rng size all in
  let lms = Landmarks.choose rng oracle landmark_count in
  let scheme =
    Number.default_scheme ~max_latency:(Number.calibrate_max_latency oracle (Landmarks.nodes lms)) ()
  in
  let vector_of =
    Landmarks.vector_memo lms (Engine.Probe.create ~measure:(Oracle.measure oracle) ())
  in
  (* (1) topology-blind baseline: uniform layout + greedy routing *)
  let uniform = build_can members ~point_of:(fun rng _ -> Point.random rng 2) in
  let baseline = measure_can oracle uniform (Can_overlay.route uniform) in
  (* (2) geographic layout: landmark-positioned joins, greedy routing *)
  let geo =
    build_can members ~point_of:(fun rng node -> Exp_tacan.tacan_point scheme rng (vector_of node))
  in
  let geographic = measure_can oracle geo (Can_overlay.route geo) in
  (* (3) proximity routing: uniform layout, latency-aware forwarding *)
  let proximity_routing =
    measure_can oracle uniform (fun ~src p ->
        Can_overlay.route_proximity uniform ~dist:(fun a b -> Oracle.dist oracle a b) ~src p)
  in
  (* (4) proximity-neighbor selection: the paper's hybrid eCAN *)
  let b =
    Builder.build oracle
      {
        Builder.default_config with
        Builder.overlay_size = size;
        landmark_count;
        strategy = Strategy.hybrid ~rtts:10 ();
        seed = 42;
      }
  in
  let report = Sweep.route ~pairs:route_count b in
  let pns =
    {
      stretch = report.Measure.stretch;
      hops = report.Measure.hops;
      max_neighbors = max_neighbors (Ecan.Expressway.can b.Builder.ecan);
    }
  in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf "Taxonomy (Castro et al.): topology exploitation techniques (%d nodes)"
           size)
      ~columns:[ "technique"; "stretch"; "p90 stretch"; "hops"; "max neighbors" ]
  in
  let row technique o =
    let g name fmt v =
      Tableout.gauge ~labels:[ ("experiment", "taxonomy"); ("technique", technique) ] name fmt v
    in
    Tableout.add_row table
      [
        Tableout.text technique;
        g "taxonomy_stretch" Tableout.cell_f o.stretch.Stats.mean;
        g "taxonomy_stretch_p90" Tableout.cell_f o.stretch.Stats.p90;
        g "taxonomy_hops" Tableout.cell_f o.hops.Stats.mean;
        g "taxonomy_max_neighbors" (Tableout.fixed 0) (float_of_int o.max_neighbors);
      ]
  in
  row "topology-blind CAN" baseline;
  row "geographic layout (TA-CAN)" geographic;
  row "proximity routing" proximity_routing;
  row "proximity neighbor selection" pns;
  [ Tableout.table table ]
