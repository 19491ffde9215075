module Oracle = Topology.Oracle
module Landmarks = Landmark.Landmarks
module Coordinates = Landmark.Coordinates
module Search = Proximity.Search
module Stats = Prelude.Stats
module Rng = Prelude.Rng

let landmark_count = 15
let population = 2000
let query_count = 60
let estimate_pairs = 2000
let budgets = [ 1; 5; 10; 20 ]

let run ?(scale = 1) ppf =
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Gtitm_random in
  let rng = Rng.create 2718 in
  let n = Oracle.node_count oracle in
  let size = max 256 (population / scale) in
  let all = Array.init n (fun i -> i) in
  let nodes = Rng.sample rng size all in
  let lms = Landmarks.choose rng oracle landmark_count in
  (* Every probe drains through one full-width probe plane: the vectors
     are those of sequential probing, the plane just prices each batch at
     the slowest member RTT instead of the sum. *)
  let prober =
    Engine.Probe.create
      ~config:{ Engine.Probe.default_config with Engine.Probe.window = landmark_count }
      ~measure:(Oracle.measure oracle) ()
  in
  let vectors = Hashtbl.create size and coords = Hashtbl.create size in
  Array.iter
    (fun node -> Hashtbl.replace vectors node (Landmarks.vector_via lms prober node))
    nodes;
  let vectors_ms = Engine.Probe.total_elapsed prober in
  let embedding = Coordinates.embed_landmarks rng prober (Landmarks.nodes lms) in
  Array.iter
    (fun node ->
      Hashtbl.replace coords node
        (Coordinates.position ~iterations:200 embedding rng ~measured:(Hashtbl.find vectors node)))
    nodes;
  Format.fprintf ppf
    "@.  %d landmark vectors measured concurrently: %.0f ms modelled wall-clock (sequential would sum every RTT)@."
    size vectors_ms;
  (* 1. raw estimation accuracy over random pairs *)
  let errors =
    Array.init estimate_pairs (fun _ ->
        let a = Rng.pick rng nodes and b = Rng.pick rng nodes in
        let actual = Oracle.dist oracle a b in
        if actual > 0.0 then
          Coordinates.relative_error ~actual
            ~estimated:(Coordinates.estimate (Hashtbl.find coords a) (Hashtbl.find coords b))
        else 0.0)
  in
  let err = Stats.summarize errors in
  Sweep.gauge ~labels:[ ("experiment", "coords") ] "coords_estimate_error" err.Stats.mean;
  Format.fprintf ppf
    "@.== Ablation: GNP coordinates (%d-d, %d landmarks) ==@.  distance estimation relative error: mean %.3f  p50 %.3f  p90 %.3f@."
    embedding.Coordinates.dims landmark_count err.Stats.mean err.Stats.p50 err.Stats.p90;
  (* 2. NN pre-selection quality: rank candidates by landmark-vector
     distance vs by coordinate distance, probe top-k by RTT *)
  let queries = Rng.sample rng (min query_count size) nodes in
  let avg signal =
    Sweep.nn_average ~budgets
      (Sweep.nn_stretch oracle ~candidates:nodes ~queries (fun query ->
           Search.hybrid_curve prober ~vector_of:signal ~candidates:nodes ~query
             ~budget:(List.fold_left max 1 budgets)))
  in
  let by_vector = avg (fun node -> Hashtbl.find vectors node) in
  let by_coords = avg (fun node -> Hashtbl.find coords node) in
  let table =
    Tableout.create ~title:"NN-search stretch by pre-selection signal"
      ~columns:[ "RTT budget"; "landmark vectors (paper)"; "GNP coordinates" ]
  in
  List.iteri
    (fun i b ->
      Sweep.nn_gauge ~experiment:"coords" ~algo:"vectors" b by_vector.(i);
      Sweep.nn_gauge ~experiment:"coords" ~algo:"coords" b by_coords.(i);
      Tableout.add_row table
        [ Tableout.cell_i b; Tableout.cell_f by_vector.(i); Tableout.cell_f by_coords.(i) ])
    budgets;
  Tableout.render ppf table
