(* Tests for the graph, Dijkstra, the transit-stub generator and the exact
   distance oracle. *)

module Graph = Topology.Graph
module Dijkstra = Topology.Dijkstra
module Ts = Topology.Transit_stub
module Oracle = Topology.Oracle
module Rng = Prelude.Rng

let small_params latency =
  {
    Ts.transit_domains = 3;
    transit_nodes_per_domain = 2;
    stubs_per_transit_node = 2;
    stub_size = 5;
    extra_domain_edges = 2;
    extra_edge_fraction = 0.4;
    latency;
  }

let test_graph_basics () =
  let g = Graph.make 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 3.0); (3, 0, 4.0) ] in
  Alcotest.(check int) "nodes" 4 (Graph.node_count g);
  Alcotest.(check int) "edges" 4 (Graph.edge_count g);
  Alcotest.(check int) "degree" 2 (Graph.degree g 0);
  Alcotest.(check (option (float 0.0))) "weight" (Some 2.0) (Graph.weight g 1 2);
  Alcotest.(check (option (float 0.0))) "missing edge" None (Graph.weight g 0 2);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_graph_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.make: self loop") (fun () ->
      ignore (Graph.make 2 [ (0, 0, 1.0) ]));
  Alcotest.check_raises "bad weight" (Invalid_argument "Graph.make: non-positive weight")
    (fun () -> ignore (Graph.make 2 [ (0, 1, 0.0) ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.make: duplicate edge") (fun () ->
      ignore (Graph.make 2 [ (0, 1, 1.0); (1, 0, 2.0) ]));
  Alcotest.check_raises "range" (Invalid_argument "Graph.make: endpoint out of range")
    (fun () -> ignore (Graph.make 2 [ (0, 2, 1.0) ]))

let test_graph_disconnected () =
  let g = Graph.make 3 [ (0, 1, 1.0) ] in
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g)

let test_graph_subgraph () =
  let g = Graph.make 5 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 3.0); (0, 4, 5.0) ] in
  let sub, mapping = Graph.subgraph g [| 1; 2; 3 |] in
  Alcotest.(check int) "sub nodes" 3 (Graph.node_count sub);
  Alcotest.(check int) "sub edges" 2 (Graph.edge_count sub);
  Alcotest.(check (array int)) "mapping" [| 1; 2; 3 |] mapping;
  Alcotest.(check (option (float 0.0))) "kept weight" (Some 2.0) (Graph.weight sub 0 1)

let test_dijkstra_line () =
  let g = Graph.make 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 4.0) ] in
  let d = Dijkstra.distances g 0 in
  Alcotest.(check (array (float 1e-12))) "line distances" [| 0.0; 1.0; 3.0; 7.0 |] d

let test_dijkstra_prefers_shortcut () =
  let g = Graph.make 3 [ (0, 1, 10.0); (0, 2, 1.0); (2, 1, 1.0) ] in
  Alcotest.(check (float 1e-12)) "shortcut" 2.0 (Dijkstra.distance g 0 1)

let test_dijkstra_unreachable () =
  let g = Graph.make 3 [ (0, 1, 1.0) ] in
  Alcotest.(check (float 0.0)) "unreachable" infinity (Dijkstra.distance g 0 2);
  Alcotest.(check bool) "no path" true (Dijkstra.path g 0 2 = None)

let test_dijkstra_path () =
  let g = Graph.make 4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (0, 3, 10.0) ] in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2; 3 ]) (Dijkstra.path g 0 3)

let test_ts_generation_shape () =
  let rng = Rng.create 1 in
  let p = small_params Ts.Manual in
  let t = Ts.generate rng p in
  Alcotest.(check int) "total nodes" (Ts.total_nodes p) (Graph.node_count t.Ts.graph);
  Alcotest.(check int) "transit nodes" 6 (Array.length t.Ts.transit_nodes);
  Alcotest.(check int) "stubs" 12 (Array.length t.Ts.stub_members);
  Alcotest.(check bool) "connected" true (Graph.is_connected t.Ts.graph);
  Array.iteri
    (fun s members ->
      Alcotest.(check int) "stub size" 5 (Array.length members);
      Alcotest.(check bool) "gateway inside stub" true
        (Array.exists (fun m -> m = t.Ts.stub_attach_stub_node.(s)) members))
    t.Ts.stub_members

let test_ts_strict_hierarchy () =
  (* No stub-stub cross links and exactly one access link per stub. *)
  let rng = Rng.create 2 in
  let t = Ts.generate rng (small_params Ts.Gtitm_random) in
  let access = Array.make (Array.length t.Ts.stub_members) 0 in
  List.iter
    (fun (u, v, _) ->
      match (t.Ts.kind.(u), t.Ts.kind.(v)) with
      | Ts.Stub_node { stub = a }, Ts.Stub_node { stub = b } ->
        Alcotest.(check int) "intra-stub only" a b
      | Ts.Stub_node { stub }, Ts.Transit _ | Ts.Transit _, Ts.Stub_node { stub } ->
        access.(stub) <- access.(stub) + 1
      | Ts.Transit _, Ts.Transit _ -> ())
    (Graph.edges t.Ts.graph);
  Array.iter (fun c -> Alcotest.(check int) "one access link" 1 c) access

let test_ts_manual_latencies () =
  let rng = Rng.create 3 in
  let t = Ts.generate rng (small_params Ts.Manual) in
  List.iter
    (fun (u, v, w) ->
      let expected =
        match Ts.classify_link t u v with
        | Ts.Inter_transit -> 20.0
        | Ts.Intra_transit -> 5.0
        | Ts.Transit_stub_link -> 2.0
        | Ts.Intra_stub -> 1.0
      in
      Alcotest.(check (float 0.0)) "manual latency by class" expected w)
    (Graph.edges t.Ts.graph)

let test_ts_random_latency_ranges () =
  let rng = Rng.create 4 in
  let t = Ts.generate rng (small_params Ts.Gtitm_random) in
  List.iter
    (fun (u, v, w) ->
      let lo, hi =
        match Ts.classify_link t u v with
        | Ts.Inter_transit -> (10.0, 50.0)
        | Ts.Intra_transit -> (5.0, 30.0)
        | Ts.Transit_stub_link -> (2.0, 20.0)
        | Ts.Intra_stub -> (1.0, 10.0)
      in
      Alcotest.(check bool) "latency in class range" true (w >= lo && w <= hi))
    (Graph.edges t.Ts.graph)

let test_ts_presets () =
  let large = Ts.tsk_large () and small = Ts.tsk_small () in
  Alcotest.(check bool) "tsk-large about 10k" true
    (abs (Ts.total_nodes large - 10_000) < 200);
  Alcotest.(check bool) "tsk-small about 10k" true
    (abs (Ts.total_nodes small - 10_000) < 200);
  Alcotest.(check bool) "large has bigger backbone" true
    (large.Ts.transit_domains * large.Ts.transit_nodes_per_domain
    > small.Ts.transit_domains * small.Ts.transit_nodes_per_domain);
  Alcotest.(check bool) "small has denser stubs" true (small.Ts.stub_size > large.Ts.stub_size);
  let scaled = Ts.tsk_large ~scale:10 () in
  Alcotest.(check bool) "scale shrinks" true (Ts.total_nodes scaled < Ts.total_nodes large / 5)

let test_ts_determinism () =
  let p = small_params Ts.Gtitm_random in
  let t1 = Ts.generate (Rng.create 99) p and t2 = Ts.generate (Rng.create 99) p in
  Alcotest.(check bool) "same edges for same seed" true
    (Graph.edges t1.Ts.graph = Graph.edges t2.Ts.graph)

let test_waxman_shape () =
  let p = Topology.Waxman.default ~nodes:300 () in
  let g = Topology.Waxman.generate (Rng.create 41) p in
  Alcotest.(check int) "nodes" 300 (Graph.node_count g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* spanning tree guarantees at least n-1 edges; Waxman adds more *)
  Alcotest.(check bool) "has extra edges" true (Graph.edge_count g > 299);
  List.iter
    (fun (_, _, w) ->
      Alcotest.(check bool) "latency within plane bounds" true
        (w >= p.Topology.Waxman.min_latency
        && w <= p.Topology.Waxman.min_latency +. (sqrt 2.0 *. p.Topology.Waxman.latency_per_unit)))
    (Graph.edges g)

let test_waxman_validation () =
  let p = Topology.Waxman.default () in
  Alcotest.check_raises "beta range" (Invalid_argument "Waxman.generate: beta out of [0,1]")
    (fun () -> ignore (Topology.Waxman.generate (Rng.create 1) { p with Topology.Waxman.beta = 1.5 }))

let test_dense_oracle_matches_dijkstra () =
  let g = Topology.Waxman.generate (Rng.create 42) (Topology.Waxman.default ~nodes:120 ()) in
  let o = Oracle.of_graph g in
  Alcotest.(check int) "node count" 120 (Oracle.node_count o);
  Alcotest.(check bool) "no transit-stub structure" true (Oracle.topology o = None);
  let rng = Rng.create 43 in
  for _ = 1 to 200 do
    let a = Rng.int rng 120 and b = Rng.int rng 120 in
    Alcotest.(check (float 1e-9)) "dense = dijkstra" (Dijkstra.distance g a b) (Oracle.dist o a b)
  done;
  Oracle.reset_measurements o;
  ignore (Oracle.measure o 0 1);
  Alcotest.(check int) "counter works on dense oracle" 1 (Oracle.measurements o)

let test_serialize_roundtrip () =
  let t = Ts.generate (Rng.create 21) (small_params Ts.Gtitm_random) in
  match Topology.Serialize.of_string (Topology.Serialize.to_string t) with
  | Error m -> Alcotest.fail m
  | Ok t' ->
    Alcotest.(check bool) "edges identical" true
      (List.sort compare (Graph.edges t.Ts.graph)
      = List.sort compare (Graph.edges t'.Ts.graph));
    Alcotest.(check bool) "kinds identical" true (t.Ts.kind = t'.Ts.kind);
    Alcotest.(check bool) "stub membership identical" true
      (t.Ts.stub_members = t'.Ts.stub_members);
    Alcotest.(check bool) "attachments identical" true
      (t.Ts.stub_attach_stub_node = t'.Ts.stub_attach_stub_node
      && t.Ts.stub_attach_transit = t'.Ts.stub_attach_transit
      && t.Ts.stub_attach_weight = t'.Ts.stub_attach_weight);
    (* oracle over the roundtripped topology answers identically *)
    let o = Oracle.build t and o' = Oracle.build t' in
    let rng = Rng.create 22 in
    let n = Graph.node_count t.Ts.graph in
    for _ = 1 to 100 do
      let a = Rng.int rng n and b = Rng.int rng n in
      Alcotest.(check (float 1e-12)) "same distances" (Oracle.dist o a b) (Oracle.dist o' a b)
    done

let test_serialize_rejects_garbage () =
  (match Topology.Serialize.of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  let t = Ts.generate (Rng.create 23) (small_params Ts.Manual) in
  let s = Topology.Serialize.to_string t in
  let truncated = String.sub s 0 (String.length s / 2) in
  match Topology.Serialize.of_string truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated input"

let test_serialize_file_io () =
  let t = Ts.generate (Rng.create 24) (small_params Ts.Manual) in
  let path = Filename.temp_file "topo" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Topology.Serialize.save t path;
      match Topology.Serialize.load path with
      | Ok t' ->
        Alcotest.(check bool) "file roundtrip" true
          (List.sort compare (Graph.edges t.Ts.graph)
          = List.sort compare (Graph.edges t'.Ts.graph))
      | Error m -> Alcotest.fail m);
  match Topology.Serialize.load "/nonexistent/path" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"

let test_oracle_matches_dijkstra () =
  let rng = Rng.create 5 in
  let t = Ts.generate rng (small_params Ts.Gtitm_random) in
  let o = Oracle.build t in
  let n = Graph.node_count t.Ts.graph in
  (* Exhaustive check against Dijkstra on this small topology. *)
  for src = 0 to n - 1 do
    let d = Dijkstra.distances t.Ts.graph src in
    for dst = 0 to n - 1 do
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "d(%d,%d)" src dst)
        d.(dst) (Oracle.dist o src dst)
    done
  done

let qcheck_oracle_matches_dijkstra =
  QCheck.Test.make ~name:"oracle = dijkstra on random transit-stub topologies" ~count:15
    QCheck.(
      quad (int_range 1 4) (int_range 1 3) (int_range 1 3) (int_range 1 8)
      |> pair (int_range 0 10_000))
    (fun (seed, (domains, per_domain, stubs_per, stub_size)) ->
      let p =
        {
          Ts.transit_domains = domains;
          transit_nodes_per_domain = per_domain;
          stubs_per_transit_node = stubs_per;
          stub_size;
          extra_domain_edges = domains;
          extra_edge_fraction = 0.5;
          latency = Ts.Gtitm_random;
        }
      in
      let t = Ts.generate (Rng.create seed) p in
      let o = Oracle.build t in
      let n = Graph.node_count t.Ts.graph in
      let check_rng = Rng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to 30 do
        let src = Rng.int check_rng n in
        let d = Dijkstra.distances t.Ts.graph src in
        let dst = Rng.int check_rng n in
        if Float.abs (d.(dst) -. Oracle.dist o src dst) > 1e-9 then ok := false
      done;
      !ok)

(* The flat oracle at 2^17 stub nodes (8 domains x 8 transit nodes x 32
   stubs x 64 members, manual latencies): generation and the per-stub
   and core precompute fit a test, and sampled distances agree with
   Dijkstra over the whole graph. *)
let test_oracle_2e17 () =
  let p =
    {
      Ts.transit_domains = 8;
      transit_nodes_per_domain = 8;
      stubs_per_transit_node = 32;
      stub_size = 64;
      extra_domain_edges = 8;
      extra_edge_fraction = 0.3;
      latency = Ts.Manual;
    }
  in
  let t = Ts.generate (Rng.create 20030519) p in
  let o = Oracle.build t in
  let n = Graph.node_count t.Ts.graph in
  Alcotest.(check int) "2^17 stub nodes plus the transit core" ((1 lsl 17) + 64) n;
  let rng = Rng.create 17 in
  for _ = 1 to 4 do
    let src = Rng.int rng n in
    let d = Dijkstra.distances t.Ts.graph src in
    for _ = 1 to 64 do
      let dst = Rng.int rng n in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "d(%d,%d)" src dst) d.(dst)
        (Oracle.dist o src dst)
    done
  done

let test_oracle_measurement_counter () =
  let rng = Rng.create 6 in
  let t = Ts.generate rng (small_params Ts.Manual) in
  let o = Oracle.build t in
  Alcotest.(check int) "starts at zero" 0 (Oracle.measurements o);
  ignore (Oracle.dist o 0 1);
  Alcotest.(check int) "dist is free" 0 (Oracle.measurements o);
  ignore (Oracle.measure o 0 1);
  ignore (Oracle.measure o 0 2);
  Alcotest.(check int) "measure counts" 2 (Oracle.measurements o);
  Oracle.reset_measurements o;
  Alcotest.(check int) "reset" 0 (Oracle.measurements o)

let test_oracle_nearest () =
  let rng = Rng.create 7 in
  let t = Ts.generate rng (small_params Ts.Manual) in
  let o = Oracle.build t in
  let n = Graph.node_count t.Ts.graph in
  let candidates = Array.init n (fun i -> i) in
  (match Oracle.nearest o 0 candidates with
  | None -> Alcotest.fail "expected a nearest node"
  | Some (best, d) ->
    Alcotest.(check bool) "not self" true (best <> 0);
    (* brute force cross-check *)
    let brute = ref infinity in
    for v = 1 to n - 1 do
      brute := Float.min !brute (Oracle.dist o 0 v)
    done;
    Alcotest.(check (float 1e-12)) "matches brute force" !brute d);
  Alcotest.(check bool) "empty candidates" true (Oracle.nearest o 0 [| 0 |] = None)

let test_oracle_nearest_tiebreak () =
  (* Star: node 0 at the center, leaves 1..4 all at exactly 5.0.  Equal
     distances must resolve to the smallest node id regardless of the
     order candidates are presented in. *)
  let g = Graph.make 5 [ (0, 1, 5.0); (0, 2, 5.0); (0, 3, 5.0); (0, 4, 5.0) ] in
  let o = Oracle.of_graph g in
  Alcotest.(check (option (pair int (float 1e-12))))
    "ascending candidates" (Some (1, 5.0))
    (Oracle.nearest o 0 [| 1; 2; 3; 4 |]);
  Alcotest.(check (option (pair int (float 1e-12))))
    "descending candidates" (Some (1, 5.0))
    (Oracle.nearest o 0 [| 4; 3; 2; 1 |]);
  Alcotest.(check (option (pair int (float 1e-12))))
    "shuffled candidates" (Some (2, 5.0))
    (Oracle.nearest o 0 [| 3; 2; 4 |]);
  (* A strictly closer node still wins over a smaller tied id. *)
  let g2 = Graph.make 4 [ (0, 1, 5.0); (0, 2, 5.0); (0, 3, 4.0) ] in
  let o2 = Oracle.of_graph g2 in
  Alcotest.(check (option (pair int (float 1e-12))))
    "closer beats smaller id" (Some (3, 4.0))
    (Oracle.nearest o2 0 [| 1; 2; 3 |])

let test_oracle_symmetry () =
  let rng = Rng.create 8 in
  let t = Ts.generate rng (small_params Ts.Gtitm_random) in
  let o = Oracle.build t in
  let n = Graph.node_count t.Ts.graph in
  let pair_rng = Rng.create 9 in
  for _ = 1 to 200 do
    let u = Rng.int pair_rng n and v = Rng.int pair_rng n in
    Alcotest.(check (float 1e-9)) "symmetric" (Oracle.dist o u v) (Oracle.dist o v u)
  done

let suite =
  [
    Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "graph validation" `Quick test_graph_validation;
    Alcotest.test_case "graph disconnected" `Quick test_graph_disconnected;
    Alcotest.test_case "graph subgraph" `Quick test_graph_subgraph;
    Alcotest.test_case "dijkstra line" `Quick test_dijkstra_line;
    Alcotest.test_case "dijkstra shortcut" `Quick test_dijkstra_prefers_shortcut;
    Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
    Alcotest.test_case "dijkstra path" `Quick test_dijkstra_path;
    Alcotest.test_case "transit-stub shape" `Quick test_ts_generation_shape;
    Alcotest.test_case "transit-stub strict hierarchy" `Quick test_ts_strict_hierarchy;
    Alcotest.test_case "manual latencies" `Quick test_ts_manual_latencies;
    Alcotest.test_case "random latency ranges" `Quick test_ts_random_latency_ranges;
    Alcotest.test_case "paper presets" `Quick test_ts_presets;
    Alcotest.test_case "generation determinism" `Quick test_ts_determinism;
    Alcotest.test_case "waxman shape" `Quick test_waxman_shape;
    Alcotest.test_case "waxman validation" `Quick test_waxman_validation;
    Alcotest.test_case "dense oracle = dijkstra" `Quick test_dense_oracle_matches_dijkstra;
    Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
    Alcotest.test_case "serialize rejects garbage" `Quick test_serialize_rejects_garbage;
    Alcotest.test_case "serialize file io" `Quick test_serialize_file_io;
    Alcotest.test_case "oracle = dijkstra (exhaustive small)" `Slow test_oracle_matches_dijkstra;
    Alcotest.test_case "oracle = dijkstra at 2^17 nodes" `Quick test_oracle_2e17;
    Alcotest.test_case "oracle measurement counter" `Quick test_oracle_measurement_counter;
    Alcotest.test_case "oracle nearest" `Quick test_oracle_nearest;
    Alcotest.test_case "oracle nearest tie-break" `Quick test_oracle_nearest_tiebreak;
    Alcotest.test_case "oracle symmetry" `Quick test_oracle_symmetry;
    QCheck_alcotest.to_alcotest qcheck_oracle_matches_dijkstra;
  ]
