module Oracle = Topology.Oracle
module Landmarks = Landmark.Landmarks
module Number = Landmark.Number
module Search = Proximity.Search
module Can_overlay = Can.Overlay
module Builder = Core.Builder
module Strategy = Core.Strategy
module Measure = Core.Measure
module Point = Geometry.Point
module Rng = Prelude.Rng

let landmark_count = 15
let groups = 3
let population = 2000
let query_count = 60
let budgets = [ 1; 5; 10; 20 ]

let sub_dist a b lo hi =
  let acc = ref 0.0 in
  for i = lo to hi - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let nn_ablation ~scale oracle =
  let rng = Rng.create 1618 in
  let n = Oracle.node_count oracle in
  let size = max 256 (population / scale) in
  let nodes = Rng.sample rng size (Array.init n (fun i -> i)) in
  let lms = Landmarks.choose rng oracle landmark_count in
  let prober = Engine.Probe.create ~measure:(Oracle.measure oracle) () in
  let vectors = Hashtbl.create size in
  Array.iter
    (fun node -> Hashtbl.replace vectors node (Landmarks.vector_via lms prober node))
    nodes;
  let vec node = Hashtbl.find vectors node in
  (* a CAN over the population, for the link-walking heuristics *)
  let can = Can_overlay.create ~dims:2 nodes.(0) in
  for i = 1 to size - 1 do
    ignore (Can_overlay.join can nodes.(i) (Point.random rng 2))
  done;
  let queries = Rng.sample rng (min query_count size) nodes in
  let group_span = landmark_count / groups in
  let avg curve =
    Sweep.nn_average ~budgets (Sweep.nn_stretch oracle ~candidates:nodes ~queries curve)
  in
  let max_budget = List.fold_left max 1 budgets in
  let plain =
    avg (fun query ->
        Search.hybrid_curve prober ~vector_of:vec ~candidates:nodes ~query ~budget:max_budget)
  in
  let grouped =
    (* best per-group match: a candidate matching the query well on ANY
       landmark group ranks high, cutting false clustering caused by a
       single unlucky group *)
    avg (fun query ->
        let qv = vec query in
        Search.ranked_curve prober
          ~score:(fun c ->
            let cv = vec c in
            let best = ref infinity in
            for g = 0 to groups - 1 do
              let lo = g * group_span in
              let hi = if g = groups - 1 then landmark_count else lo + group_span in
              best := Float.min !best (sub_dist qv cv lo hi)
            done;
            !best)
          ~candidates:nodes ~query ~budget:max_budget)
  in
  let hierarchical =
    (* coarse pre-selection on the first components, refined by the rest *)
    let coarse = 5 in
    avg (fun query ->
        let qv = vec query in
        Search.ranked_curve prober
          ~score:(fun c ->
            let cv = vec c in
            (1000.0 *. sub_dist qv cv 0 coarse) +. sub_dist qv cv coarse landmark_count)
          ~candidates:nodes ~query ~budget:max_budget)
  in
  let hill =
    avg (fun query -> Search.hill_climb_curve prober can ~query ~budget:max_budget)
  in
  let ers = avg (fun query -> Search.ers_curve prober can ~query ~budget:max_budget) in
  Tableout.table
    (Sweep.nn_table ~experiment:"optim" ~first:"RTT budget" ~budgets
       ~title:(Printf.sprintf "Section 5.5 optimisations: NN-search stretch (%d candidates)" size)
       [
         ("hybrid (paper)", "hybrid", plain);
         ("landmark groups", "groups", grouped);
         ("hierarchical", "hierarchical", hierarchical);
         ("hill climbing", "hill-climb", hill);
         ("ERS", "ers", ers);
       ])

let curve_ablation ~scale oracle =
  let size = max 128 (2048 / scale) in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Space-filling-curve choice for landmark numbers (eCAN %d nodes, hybrid rtts=10)" size)
      ~columns:[ "curve"; "stretch"; "p90 stretch" ]
  in
  List.iter
    (fun (curve_name, curve) ->
      let b =
        Builder.build oracle
          {
            Builder.default_config with
            Builder.overlay_size = size;
            curve;
            strategy = Strategy.hybrid ~rtts:10 ();
            seed = 42;
          }
      in
      let r = (Sweep.route ~pairs:1024 b).Measure.stretch in
      let g name v =
        Tableout.gauge ~labels:[ ("experiment", "optim"); ("curve", curve_name) ] name
          Tableout.cell_f v
      in
      Tableout.add_row table
        [
          Tableout.text curve_name;
          g "optim_curve_stretch" r.Prelude.Stats.mean;
          g "optim_curve_stretch_p90" r.Prelude.Stats.p90;
        ])
    [ ("hilbert", Number.Hilbert_curve); ("z-order", Number.Z_curve) ];
  Tableout.table table

let run ?(scale = 1) () =
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Gtitm_random in
  let nn = nn_ablation ~scale oracle in
  [ nn; curve_ablation ~scale oracle ]
