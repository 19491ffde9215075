(* Tests for the nearest-neighbor search algorithms. *)

module Search = Proximity.Search
module Oracle = Topology.Oracle
module Ts = Topology.Transit_stub
module Can_overlay = Can.Overlay
module Landmarks = Landmark.Landmarks
module Point = Geometry.Point
module Rng = Prelude.Rng

let topo_params =
  {
    Ts.transit_domains = 3;
    transit_nodes_per_domain = 2;
    stubs_per_transit_node = 2;
    stub_size = 12;
    extra_domain_edges = 2;
    extra_edge_fraction = 0.4;
    latency = Ts.Manual;
  }

(* A default prober: window 1, no cache, reliable channel. *)
let plain oracle = Engine.Probe.create ~measure:(Oracle.measure oracle) ()

(* Oracle + a CAN of the whole topology + landmark vectors, as in the
   paper's §4 evaluation setting. *)
let setup ~seed =
  let rng = Rng.create seed in
  let topo = Ts.generate rng topo_params in
  let oracle = Oracle.build topo in
  let n = Oracle.node_count oracle in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to n - 1 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let lms = Landmarks.choose rng oracle 6 in
  let vectors = Array.init n (Landmarks.vector_via lms (plain oracle)) in
  (oracle, can, vectors, Rng.create (seed + 1))

let all_nodes oracle = Array.init (Oracle.node_count oracle) (fun i -> i)

let test_true_nearest () =
  let oracle, _, _, _ = setup ~seed:1 in
  let node, d = Search.true_nearest oracle ~query:5 ~candidates:(all_nodes oracle) in
  Alcotest.(check bool) "not self" true (node <> 5);
  Alcotest.(check bool) "positive distance" true (d > 0.0);
  (* brute force agreement *)
  let brute = ref infinity in
  Array.iter
    (fun v -> if v <> 5 then brute := Float.min !brute (Oracle.dist oracle 5 v))
    (all_nodes oracle);
  Alcotest.(check (float 1e-12)) "matches brute force" !brute d

let test_curves_monotone_nonincreasing () =
  let oracle, can, vectors, rng = setup ~seed:2 in
  for _ = 1 to 5 do
    let query = Rng.int rng (Oracle.node_count oracle) in
    let check name (curve : Search.curve) =
      let d = curve.Search.dist in
      for i = 1 to Array.length d - 1 do
        Alcotest.(check bool) (name ^ " best-so-far never worsens") true (d.(i) <= d.(i - 1))
      done
    in
    check "ers" (Search.ers_curve (plain oracle) can ~query ~budget:40);
    check "hybrid"
      (Search.hybrid_curve (plain oracle)
         ~vector_of:(fun v -> vectors.(v))
         ~candidates:(all_nodes oracle) ~query ~budget:40)
  done

let test_measurement_accounting () =
  let oracle, can, _, _ = setup ~seed:3 in
  Oracle.reset_measurements oracle;
  let curve = Search.ers_curve (plain oracle) can ~query:0 ~budget:25 in
  Alcotest.(check int) "exactly budget measurements" (Array.length curve.Search.dist)
    (Oracle.measurements oracle);
  Alcotest.(check bool) "budget respected" true (Array.length curve.Search.dist <= 25)

let test_hybrid_converges_to_optimum () =
  (* With an exhaustive budget the hybrid must find the true nearest. *)
  let oracle, _, vectors, rng = setup ~seed:4 in
  let candidates = all_nodes oracle in
  for _ = 1 to 5 do
    let query = Rng.int rng (Oracle.node_count oracle) in
    let _, optimal = Search.true_nearest oracle ~query ~candidates in
    let curve =
      Search.hybrid_curve (plain oracle)
        ~vector_of:(fun v -> vectors.(v))
        ~candidates ~query
        ~budget:(Array.length candidates)
    in
    let final = curve.Search.dist.(Array.length curve.Search.dist - 1) in
    Alcotest.(check (float 1e-9)) "exhaustive hybrid finds the optimum" optimal final
  done

let test_hybrid_beats_ers_at_small_budget () =
  (* The headline §4 claim: at a small measurement budget the hybrid's
     stretch beats blind expanding-ring search (averaged over queries). *)
  let oracle, can, vectors, rng = setup ~seed:5 in
  let candidates = all_nodes oracle in
  let budget = 8 in
  let queries = 30 in
  let total_ers = ref 0.0 and total_hyb = ref 0.0 in
  for _ = 1 to queries do
    let query = Rng.int rng (Oracle.node_count oracle) in
    let _, optimal = Search.true_nearest oracle ~query ~candidates in
    let last (c : Search.curve) = c.Search.dist.(Array.length c.Search.dist - 1) in
    let ers = last (Search.ers_curve (plain oracle) can ~query ~budget) in
    let hyb =
      last
        (Search.hybrid_curve (plain oracle) ~vector_of:(Array.get vectors) ~candidates ~query
           ~budget)
    in
    if optimal > 0.0 then begin
      total_ers := !total_ers +. (ers /. optimal);
      total_hyb := !total_hyb +. (hyb /. optimal)
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "hybrid stretch %.2f < ers stretch %.2f" !total_hyb !total_ers)
    true
    (!total_hyb < !total_ers)

let test_ers_explores_rings () =
  let oracle, can, _, _ = setup ~seed:6 in
  (* first probes must be the query's direct CAN neighbors, in id order *)
  let query = 0 in
  let curve = Search.ers_curve (plain oracle) can ~query ~budget:3 in
  let neighbors = List.sort compare (Can_overlay.node can query).Can_overlay.neighbors in
  Oracle.reset_measurements oracle;
  let expected_first = List.hd neighbors in
  (* probing in ring order means found.(0) is the first neighbor *)
  Alcotest.(check int) "first probe is the first neighbor" expected_first
    (let d0 = Oracle.dist oracle query expected_first in
     if Float.abs (curve.Search.dist.(0) -. d0) < 1e-9 then expected_first else -1)

let test_stretch_curve () =
  let curve = { Search.found = [| 1; 2 |]; dist = [| 10.0; 5.0 |]; elapsed = 0.0 } in
  Alcotest.(check (array (float 1e-9))) "stretch" [| 2.0; 1.0 |]
    (Search.stretch_curve curve ~optimal:5.0)

(* Reference models for the direct measurement loops the search used to
   run beside the probe plane: the probe order of each algorithm, and a
   sequential fold that measures each probe with [Oracle.measure], keeps
   the best so far (the earlier node on ties) and prices the curve at the
   sum of its RTTs. *)
let reference_curve oracle ~query order =
  let steps, wall =
    List.fold_left
      (fun (steps, wall) node ->
        let d = Oracle.measure oracle query node in
        let best = match steps with (_, bd) :: _ when bd <= d -> List.hd steps | _ -> (node, d) in
        (best :: steps, wall +. d))
      ([], 0.0) order
  in
  let steps = Array.of_list (List.rev steps) in
  { Search.found = Array.map fst steps; dist = Array.map snd steps; elapsed = wall }

let neighbors can v = List.sort compare (Can_overlay.node can v).Can_overlay.neighbors

(* Breadth-first rings in node-id order, cut at the budget. *)
let reference_ers_order can ~query ~budget =
  let visited = Hashtbl.create 64 in
  Hashtbl.replace visited query ();
  let rec rings acc = function
    | [] -> List.rev acc
    | ring ->
      let ring = List.sort_uniq compare (List.filter (fun v -> not (Hashtbl.mem visited v)) ring) in
      List.iter (fun v -> Hashtbl.replace visited v ()) ring;
      rings (List.rev_append ring acc) (List.concat_map (neighbors can) ring)
  in
  List.filteri (fun i _ -> i < budget) (rings [] (neighbors can query))

let reference_hybrid_order vector_of ~candidates ~query ~budget =
  let qvec = vector_of query in
  Array.to_list candidates
  |> List.filter (fun c -> c <> query)
  |> List.map (fun c -> (Landmarks.vector_dist qvec (vector_of c), c))
  |> List.sort compare
  |> List.filteri (fun i _ -> i < budget)
  |> List.map snd

(* Probe the current node's unvisited neighbors, move to the closest
   while it improves. *)
let reference_hill_order oracle can ~query ~budget =
  let visited = Hashtbl.create 32 and probed = ref [] in
  Hashtbl.replace visited query ();
  let rec climb at current =
    let improved = ref None in
    List.iter
      (fun v ->
        if (not (Hashtbl.mem visited v)) && List.length !probed < budget then begin
          Hashtbl.replace visited v ();
          probed := v :: !probed;
          let d = Oracle.dist oracle query v in
          match !improved with
          | Some (bd, _) when bd <= d -> ()
          | _ -> if d < current then improved := Some (d, v)
        end
        else Hashtbl.replace visited v ())
      (neighbors can at);
    match !improved with
    | Some (d, v) when List.length !probed < budget -> climb v d
    | _ -> ()
  in
  climb query infinity;
  List.rev !probed

let test_curves_match_reference_at_every_window () =
  (* Any window only re-prices the wall-clock: each curve finds, measures
     and spends exactly what the direct sequential loop does, and a
     window-1 prober prices it at the sum of the RTTs. *)
  let oracle, can, vectors, rng = setup ~seed:8 in
  let candidates = all_nodes oracle in
  let vector_of = Array.get vectors in
  for _ = 1 to 3 do
    let query = Rng.int rng (Oracle.node_count oracle) in
    let check name order curve_of =
      let spent f =
        let before = Oracle.measurements oracle in
        let c = f () in
        (c, Oracle.measurements oracle - before)
      in
      let want, want_spent = spent (fun () -> reference_curve oracle ~query order) in
      List.iter
        (fun window ->
          let prober =
            Engine.Probe.create
              ~config:{ Engine.Probe.default_config with Engine.Probe.window }
              ~measure:(Oracle.measure oracle) ()
          in
          let got, got_spent = spent (fun () -> curve_of prober) in
          let at = Printf.sprintf "%s, window %d: " name window in
          Alcotest.(check (array int)) (at ^ "found") want.Search.found got.Search.found;
          Alcotest.(check (array (float 0.0))) (at ^ "dist") want.Search.dist got.Search.dist;
          Alcotest.(check int) (at ^ "measurements") want_spent got_spent;
          if window = 1 then
            Alcotest.(check (float 1e-9)) (at ^ "sum of RTTs") want.Search.elapsed
              got.Search.elapsed
          else
            Alcotest.(check bool) (at ^ "never slower than window 1") true
              (got.Search.elapsed <= want.Search.elapsed +. 1e-9))
        [ 1; 2; 8 ]
    in
    check "ers"
      (reference_ers_order can ~query ~budget:20)
      (fun prober -> Search.ers_curve prober can ~query ~budget:20);
    check "hybrid"
      (reference_hybrid_order vector_of ~candidates ~query ~budget:20)
      (fun prober -> Search.hybrid_curve prober ~vector_of ~candidates ~query ~budget:20);
    check "hill climb"
      (reference_hill_order oracle can ~query ~budget:20)
      (fun prober -> Search.hill_climb_curve prober can ~query ~budget:20)
  done

let test_rejects_bad_budget () =
  let oracle, can, _, _ = setup ~seed:7 in
  Alcotest.check_raises "budget 0" (Invalid_argument "Search.ers_curve: budget must be >= 1")
    (fun () -> ignore (Search.ers_curve (plain oracle) can ~query:0 ~budget:0))

(* Reference model for [Workload.Backend.hybrid_pick]: the
   vector-then-probe selector the workloads each used to carry, with the
   probe budget as a parameter and every RTT measurement counted. *)
let reference_hybrid oracle vector_of ~rtts probes ~node ~candidates =
  let qvec = vector_of node in
  let ranked =
    candidates
    |> Array.to_list
    |> List.filter (fun c -> c <> node)
    |> List.map (fun c -> (Landmarks.vector_dist qvec (vector_of c), c))
    |> List.sort compare
    |> List.map snd
  in
  let rec go best = function
    | [] -> Option.map snd best
    | c :: rest ->
      incr probes;
      let d = Oracle.measure oracle node c in
      go (match best with Some (bd, _) when bd <= d -> best | _ -> Some (d, c)) rest
  in
  go None (List.filteri (fun i _ -> i < rtts) ranked)

let picker_setup = lazy (setup ~seed:3)

(* Candidate arrays may be empty, hold only the query, repeat nodes or
   include the query; budgets run past the candidate count.  Coarse
   one-dimensional vectors force ties in landmark distance, and the
   manual latency model's small integer link weights force RTT ties. *)
let qcheck_shared_picker_matches_reference =
  QCheck.Test.make ~name:"Backend.hybrid_pick matches the reference selector" ~count:300
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 24) (int_range 1 30))
    (fun (seed, len, budget) ->
      let oracle, _, vectors, _ = Lazy.force picker_setup in
      let n = Oracle.node_count oracle in
      let rng = Rng.create seed in
      let node = Rng.int rng n in
      let coarse = 1 + Rng.int rng 4 in
      let vector_of v =
        if seed mod 3 = 0 then vectors.(v) else [| float_of_int (v mod coarse) |]
      in
      let candidates =
        if seed mod 7 = 0 then Array.make (len mod 3) node
        else Array.init len (fun _ -> if Rng.int rng 5 = 0 then node else Rng.int rng n)
      in
      let probes = ref 0 in
      let expected = reference_hybrid oracle vector_of ~rtts:budget probes ~node ~candidates in
      let pick, spent =
        Workload.Backend.hybrid_pick (plain oracle) ~vector_of ~budget ~node ~candidates
      in
      pick = expected && spent = !probes)

let suite =
  [
    Alcotest.test_case "true nearest = brute force" `Quick test_true_nearest;
    Alcotest.test_case "curves are monotone" `Quick test_curves_monotone_nonincreasing;
    Alcotest.test_case "measurement accounting" `Quick test_measurement_accounting;
    Alcotest.test_case "exhaustive hybrid is optimal" `Quick test_hybrid_converges_to_optimum;
    Alcotest.test_case "hybrid beats ERS at small budgets" `Slow test_hybrid_beats_ers_at_small_budget;
    Alcotest.test_case "ers explores rings" `Quick test_ers_explores_rings;
    Alcotest.test_case "stretch curve arithmetic" `Quick test_stretch_curve;
    Alcotest.test_case "curves are probe-window invariant" `Quick
      test_curves_match_reference_at_every_window;
    Alcotest.test_case "budget validation" `Quick test_rejects_bad_budget;
    QCheck_alcotest.to_alcotest qcheck_shared_picker_matches_reference;
  ]
