module Oracle = Topology.Oracle
module Can_overlay = Can.Overlay
module Zone = Geometry.Zone
module Landmarks = Landmark.Landmarks
module Number = Landmark.Number
module Rng = Prelude.Rng

let overlay_size = 4096
let landmark_count = 15

type layout_stats = {
  top10_volume_share : float;  (* fraction of the space owned by the largest 10% of zones *)
  max_neighbors : int;
  mean_neighbors : float;
  volume_imbalance : float;  (* max zone volume / mean zone volume *)
}

let layout_stats can =
  let ids = Can_overlay.node_ids can in
  let n = Array.length ids in
  let volumes = Array.map (fun id -> Zone.volume (Can_overlay.node can id).Can_overlay.zone) ids in
  Array.sort (fun a b -> compare b a) volumes;
  let top = max 1 (n / 10) in
  let top_sum = Array.fold_left ( +. ) 0.0 (Array.sub volumes 0 top) in
  let degree = Array.map (fun id -> List.length (Can_overlay.node can id).Can_overlay.neighbors) ids in
  {
    top10_volume_share = top_sum;
    max_neighbors = Array.fold_left max 0 degree;
    mean_neighbors =
      float_of_int (Array.fold_left ( + ) 0 degree) /. float_of_int n;
    volume_imbalance = volumes.(0) *. float_of_int n;
  }

(* The original TA-CAN binning: nodes with the same landmark *ordering*
   (of the first 4 landmarks) join the same portion of the space; bins
   are laid out on a square grid. *)
let ordering_point rng vector =
  let bins = Landmarks.ordering_bin_count () in
  let side = int_of_float (Float.ceil (sqrt (float_of_int bins))) in
  let bin = Landmarks.ordering_bin vector in
  let cx = bin mod side and cy = bin / side in
  let cell = 1.0 /. float_of_int side in
  [|
    Float.min (Float.pred 1.0) ((float_of_int cx +. Rng.float rng 1.0) *. cell);
    Float.min (Float.pred 1.0) ((float_of_int cy +. Rng.float rng 1.0) *. cell);
  |]

(* Our landmark-number variant: the vector's position in the space via the
   space-filling curve, jittered within its grid cell so points stay
   distinct. *)
let tacan_point scheme rng vector =
  let cell = Number.position_in_zone scheme (Zone.full 2) vector in
  let half = 0.5 /. float_of_int (1 lsl scheme.Number.zone_bits) in
  Array.map
    (fun c ->
      let v = c +. Rng.float_in rng (-.half) half in
      if v < 0.0 then 0.0 else if v >= 1.0 then Float.pred 1.0 else v)
    cell

let build_overlay oracle ~size ~point_of =
  let rng = Rng.create 4242 in
  let all = Array.init (Oracle.node_count oracle) (fun i -> i) in
  let members = Rng.sample rng size all in
  let can = Can_overlay.create ~dims:2 members.(0) in
  for i = 1 to size - 1 do
    ignore (Can_overlay.join can members.(i) (point_of rng members.(i)))
  done;
  can

let run ?(scale = 1) () =
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Gtitm_random in
  let size = max 128 (overlay_size / scale) in
  let rng = Rng.create 999 in
  let lms = Landmarks.choose rng oracle landmark_count in
  let max_latency = Number.calibrate_max_latency oracle (Landmarks.nodes lms) in
  let scheme = Number.default_scheme ~max_latency () in
  let vector_of =
    Landmarks.vector_memo lms (Engine.Probe.create ~measure:(Oracle.measure oracle) ())
  in
  let uniform = build_overlay oracle ~size ~point_of:(fun rng _ -> Geometry.Point.random rng 2) in
  let tacan =
    build_overlay oracle ~size ~point_of:(fun rng node -> tacan_point scheme rng (vector_of node))
  in
  let tacan_ordering =
    build_overlay oracle ~size ~point_of:(fun rng node -> ordering_point rng (vector_of node))
  in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Topologically-Aware CAN layout imbalance (%d nodes): geographic layout skews zones"
           size)
      ~columns:
        [ "layout"; "top-10% nodes own"; "max neighbors"; "mean neighbors"; "max/mean volume" ]
  in
  let row layout s =
    let g name fmt v =
      Tableout.gauge ~labels:[ ("experiment", "tacan"); ("layout", layout) ] name fmt v
    in
    Tableout.add_row table
      [
        Tableout.text layout;
        g "tacan_top10_share"
          (fun v -> Printf.sprintf "%.1f%% of space" (100.0 *. v))
          s.top10_volume_share;
        g "tacan_max_neighbors" (Tableout.fixed 0) (float_of_int s.max_neighbors);
        g "tacan_mean_neighbors" Tableout.cell_f s.mean_neighbors;
        g "tacan_volume_imbalance" Tableout.cell_f s.volume_imbalance;
      ]
  in
  row "uniform CAN" (layout_stats uniform);
  row "TA-CAN (ordering bins)" (layout_stats tacan_ordering);
  row "TA-CAN (landmark numbers)" (layout_stats tacan);
  [ Tableout.table table ]
