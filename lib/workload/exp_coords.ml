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

let run ?(scale = 1) () =
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
  let vectors_line =
    Tableout.note
      "  %d landmark vectors measured concurrently: %.0f ms modelled wall-clock (sequential would \
       sum every RTT)"
      size vectors_ms
  in
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
  let error_lines =
    [
      Tableout.note "";
      Tableout.note "== Ablation: GNP coordinates (%d-d, %d landmarks) =="
        embedding.Coordinates.dims landmark_count;
      Tableout.line
        [
          Tableout.text "  distance estimation relative error: mean ";
          Tableout.gauge ~labels:[ ("experiment", "coords") ] "coords_estimate_error"
            Tableout.cell_f err.Stats.mean;
          Tableout.text (Printf.sprintf "  p50 %.3f  p90 %.3f" err.Stats.p50 err.Stats.p90);
        ];
    ]
  in
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
    Sweep.nn_table ~experiment:"coords" ~title:"NN-search stretch by pre-selection signal"
      ~first:"RTT budget" ~budgets
      [
        ("landmark vectors (paper)", "vectors", by_vector); ("GNP coordinates", "coords", by_coords);
      ]
  in
  (Tableout.note "" :: vectors_line :: error_lines) @ [ Tableout.table table ]
