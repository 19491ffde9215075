(* Tests for landmark vectors, orderings, landmark numbers and the
   dimension-reduction hash. *)

module Landmarks = Landmark.Landmarks
module Number = Landmark.Number
module Oracle = Topology.Oracle
module Ts = Topology.Transit_stub
module Zone = Geometry.Zone
module Rng = Prelude.Rng

let topo_params =
  {
    Ts.transit_domains = 2;
    transit_nodes_per_domain = 3;
    stubs_per_transit_node = 2;
    stub_size = 10;
    extra_domain_edges = 1;
    extra_edge_fraction = 0.4;
    latency = Ts.Manual;
  }

let oracle = lazy (Oracle.build (Ts.generate (Rng.create 3) topo_params))

(* A node's landmark vector through a default prober over [o]. *)
let vector lms o = Landmarks.vector_via lms (Engine.Probe.create ~measure:(Oracle.measure o) ())

let test_choose_landmarks () =
  let o = Lazy.force oracle in
  let lms = Landmarks.choose (Rng.create 1) o 8 in
  Alcotest.(check int) "count" 8 (Landmarks.count lms);
  let nodes = Landmarks.nodes lms in
  let sorted = Array.copy nodes in
  Array.sort compare sorted;
  for i = 1 to 7 do
    Alcotest.(check bool) "distinct landmarks" true (sorted.(i) <> sorted.(i - 1))
  done;
  Alcotest.check_raises "zero rejected" (Invalid_argument "Landmarks.choose: bad landmark count")
    (fun () -> ignore (Landmarks.choose (Rng.create 1) o 0))

let test_vector_semantics () =
  let o = Lazy.force oracle in
  let lms = Landmarks.choose (Rng.create 2) o 6 in
  let nodes = Landmarks.nodes lms in
  let v = vector lms o 5 in
  Alcotest.(check int) "vector length" 6 (Array.length v);
  Array.iteri
    (fun i lm ->
      Alcotest.(check (float 1e-9)) "component is RTT to landmark" (Oracle.dist o 5 lm) v.(i))
    nodes;
  (* a landmark's own vector has a zero at its own position *)
  let self = vector lms o nodes.(0) in
  Alcotest.(check (float 0.0)) "self distance" 0.0 self.(0)

let test_vector_counts_measurements () =
  let o = Lazy.force oracle in
  let lms = Landmarks.choose (Rng.create 3) o 7 in
  Oracle.reset_measurements o;
  ignore (vector lms o 4);
  Alcotest.(check int) "one RTT per landmark" 7 (Oracle.measurements o);
  Oracle.reset_measurements o

let test_ordering () =
  let ord = Landmarks.ordering [| 30.0; 10.0; 20.0 |] in
  Alcotest.(check (array int)) "sorted by increasing RTT" [| 1; 2; 0 |] ord;
  (* ties broken by index, deterministically *)
  let tie = Landmarks.ordering [| 5.0; 5.0 |] in
  Alcotest.(check (array int)) "tie break" [| 0; 1 |] tie

let test_ordering_bin () =
  (* identical orderings share a bin *)
  Alcotest.(check int) "same ordering, same bin"
    (Landmarks.ordering_bin [| 1.0; 2.0; 3.0; 4.0 |])
    (Landmarks.ordering_bin [| 10.0; 20.0; 30.0; 40.0 |]);
  (* different orderings get different bins *)
  Alcotest.(check bool) "different orderings differ" true
    (Landmarks.ordering_bin [| 1.0; 2.0; 3.0; 4.0 |]
    <> Landmarks.ordering_bin [| 4.0; 3.0; 2.0; 1.0 |]);
  Alcotest.(check int) "4! bins" 24 (Landmarks.ordering_bin_count ());
  (* all 24 permutations of 4 values map to 24 distinct bins in range *)
  let values = [| 1.0; 2.0; 3.0; 4.0 |] in
  let seen = Hashtbl.create 24 in
  let rec permutations acc = function
    | [] -> [ List.rev acc ]
    | rest -> List.concat_map (fun x -> permutations (x :: acc) (List.filter (( <> ) x) rest)) rest
  in
  List.iter
    (fun perm ->
      let vec = Array.of_list (List.map (fun i -> values.(i)) perm) in
      let bin = Landmarks.ordering_bin vec in
      Alcotest.(check bool) "bin in range" true (bin >= 0 && bin < 24);
      Hashtbl.replace seen bin ())
    (permutations [] [ 0; 1; 2; 3 ]);
  Alcotest.(check int) "bijective over permutations" 24 (Hashtbl.length seen);
  Alcotest.check_raises "short vector"
    (Invalid_argument "Landmarks.ordering_bin: vector shorter than k") (fun () ->
      ignore (Landmarks.ordering_bin [| 1.0 |]))

let test_vector_dist () =
  Alcotest.(check (float 1e-12)) "euclidean" 5.0
    (Landmarks.vector_dist [| 0.0; 0.0 |] [| 3.0; 4.0 |]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Landmarks.vector_dist: length mismatch") (fun () ->
      ignore (Landmarks.vector_dist [| 1.0 |] [| 1.0; 2.0 |]))

let scheme = Number.default_scheme ~max_latency:100.0 ()

let test_number_range () =
  let rng = Rng.create 4 in
  for _ = 1 to 200 do
    let v = Array.init 8 (fun _ -> Rng.float rng 150.0) in
    let n = Number.number scheme v in
    Alcotest.(check bool) "in range" true (n >= 0 && n < Number.cell_count scheme)
  done

let test_number_locality () =
  (* Identical vectors share a landmark number; nearby vectors get nearby
     positions when mapped into a zone. *)
  let a = [| 10.0; 20.0; 30.0; 40.0 |] in
  let b = [| 10.0; 20.0; 30.0; 99.0 |] in
  (* only the first index_dims=3 components matter for the number *)
  Alcotest.(check int) "vector index uses leading components" (Number.number scheme a)
    (Number.number scheme b);
  let zone = Zone.full 2 in
  let pa = Number.position_in_zone scheme zone a in
  let c = [| 10.1; 20.1; 30.1; 0.0 |] in
  let pc = Number.position_in_zone scheme zone c in
  let d = Geometry.Point.euclidean_dist pa pc in
  Alcotest.(check bool) (Printf.sprintf "close vectors near in zone (%.4f)" d) true (d < 0.2)

let test_number_separation () =
  (* Vectors far apart in landmark space should rarely share a number. *)
  let a = [| 5.0; 5.0; 5.0 |] and b = [| 95.0; 95.0; 95.0 |] in
  Alcotest.(check bool) "far vectors differ" true
    (Number.number scheme a <> Number.number scheme b)

let test_position_in_zone_containment () =
  let rng = Rng.create 5 in
  let zone = { Zone.lo = [| 0.25; 0.5 |]; hi = [| 0.5; 0.75 |] } in
  for _ = 1 to 200 do
    let v = Array.init 5 (fun _ -> Rng.float rng 150.0) in
    let p = Number.position_in_zone scheme zone v in
    Alcotest.(check bool) "hash lands inside the region" true (Zone.contains zone p)
  done

let test_to_unit () =
  Alcotest.(check (float 0.0)) "zero" 0.0 (Number.to_unit scheme 0);
  let top = Number.cell_count scheme - 1 in
  Alcotest.(check bool) "below one" true (Number.to_unit scheme top < 1.0);
  Alcotest.check_raises "range check"
    (Invalid_argument "Number.to_unit: landmark number out of range") (fun () ->
      ignore (Number.to_unit scheme (-1)))

let test_calibrate_max_latency () =
  let o = Lazy.force oracle in
  let lms = Landmarks.choose (Rng.create 6) o 6 in
  let bound = Number.calibrate_max_latency o (Landmarks.nodes lms) in
  Alcotest.(check bool) "positive" true (bound > 0.0);
  (* the bound covers every landmark-landmark distance with margin *)
  let nodes = Landmarks.nodes lms in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          Alcotest.(check bool) "covers pairwise distances" true
            (Oracle.dist o a b <= bound))
        nodes)
    nodes

let test_zcurve_scheme () =
  let zscheme = Number.default_scheme ~curve:Number.Z_curve ~max_latency:100.0 () in
  let rng = Rng.create 7 in
  for _ = 1 to 100 do
    let v = Array.init 4 (fun _ -> Rng.float rng 120.0) in
    let n = Number.number zscheme v in
    Alcotest.(check bool) "z-curve numbers in range" true
      (n >= 0 && n < Number.cell_count zscheme)
  done

let qcheck_physically_close_nodes_have_close_vectors =
  (* The foundational landmark-clustering assumption, validated on our
     topology generator: same-stub pairs have smaller vector distance than
     cross-domain pairs on average. *)
  QCheck.Test.make ~name:"landmark vectors separate stubs from far domains" ~count:5
    QCheck.(int_range 0 1000)
    (fun seed ->
      let topo = Ts.generate (Rng.create seed) topo_params in
      let o = Oracle.build topo in
      let lms = Landmarks.choose (Rng.create (seed + 1)) o 8 in
      let stub0 = topo.Ts.stub_members.(0) in
      let stub_last = topo.Ts.stub_members.(Array.length topo.Ts.stub_members - 1) in
      let v = vector lms o in
      let same = Landmarks.vector_dist (v stub0.(0)) (v stub0.(1)) in
      let cross = Landmarks.vector_dist (v stub0.(0)) (v stub_last.(0)) in
      same <= cross +. 1e-9)

(* [within] stops summing early; its answer must be [vector_dist]'s
   comparison for every input.  Components mix small integers (exact
   ties), arbitrary floats, signed zeros, infinities and NaN; the bound
   is drawn from the same specials, from the pair's exact distance and
   its floating-point neighbours, and from arbitrary floats. *)
let qcheck_within_matches_vector_dist =
  let special = [| 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity |] in
  let component =
    QCheck.Gen.(
      frequency
        [
          (4, map float_of_int (int_range (-3) 3));
          (4, float_range (-500.0) 500.0);
          (1, oneofa special);
        ])
  in
  let case =
    QCheck.Gen.(
      int_range 0 8 >>= fun n ->
      triple (array_size (return n) component) (array_size (return n) component)
        (pair (int_range 0 4) (float_range (-10.0) 800.0)))
  in
  let print (a, b, (k, x)) =
    let pp v = String.concat "; " (Array.to_list (Array.map Float.to_string v)) in
    Printf.sprintf "[|%s|] [|%s|] bound kind %d (%g)" (pp a) (pp b) k x
  in
  QCheck.Test.make ~name:"within = vector_dist <= d, NaN and infinities included" ~count:2000
    (QCheck.make ~print case) (fun (a, b, (k, x)) ->
      let exact = Landmarks.vector_dist a b in
      let d =
        match k with
        | 0 -> special.(int_of_float (Float.abs x) mod Array.length special)
        | 1 -> exact
        | 2 -> Float.pred exact
        | 3 -> Float.succ exact
        | _ -> x
      in
      Landmarks.within a b d = (exact <= d))

let test_within_length_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Landmarks.vector_dist: length mismatch")
    (fun () -> ignore (Landmarks.within [| 1.0 |] [| 1.0; 2.0 |] 5.0))

let suite =
  [
    Alcotest.test_case "choose landmarks" `Quick test_choose_landmarks;
    Alcotest.test_case "vector = RTTs to landmarks" `Quick test_vector_semantics;
    Alcotest.test_case "vector measurement accounting" `Quick test_vector_counts_measurements;
    Alcotest.test_case "landmark ordering" `Quick test_ordering;
    Alcotest.test_case "ordering bins (TA-CAN)" `Quick test_ordering_bin;
    Alcotest.test_case "vector distance" `Quick test_vector_dist;
    Alcotest.test_case "landmark number range" `Quick test_number_range;
    Alcotest.test_case "landmark number locality" `Quick test_number_locality;
    Alcotest.test_case "landmark number separation" `Quick test_number_separation;
    Alcotest.test_case "hash lands inside the region" `Quick test_position_in_zone_containment;
    Alcotest.test_case "scalar key mapping" `Quick test_to_unit;
    Alcotest.test_case "latency bound calibration" `Quick test_calibrate_max_latency;
    Alcotest.test_case "z-curve scheme" `Quick test_zcurve_scheme;
    QCheck_alcotest.to_alcotest qcheck_physically_close_nodes_have_close_vectors;
    QCheck_alcotest.to_alcotest qcheck_within_matches_vector_dist;
    Alcotest.test_case "within rejects a length mismatch" `Quick test_within_length_mismatch;
  ]
