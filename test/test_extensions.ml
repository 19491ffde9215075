(* Tests for the extension modules: GNP coordinates, the ring map (on
   Chord and Koorde), proximity routing, hill climbing, ranked search and
   hosting stats. *)

module Oracle = Topology.Oracle
module Ts = Topology.Transit_stub
module Coordinates = Landmark.Coordinates
module Landmarks = Landmark.Landmarks
module Number = Landmark.Number
module Ring = Chord.Ring
module Keyring = Chord.Keyring
module Softmap = Chord.Softmap
module Dbj = Koorde.Debruijn
module Can_overlay = Can.Overlay
module Search = Proximity.Search
module Store = Softstate.Store
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

let oracle = lazy (Oracle.build (Ts.generate (Rng.create 11) topo_params))

(* A default prober over the fixture topology: window 1, no cache. *)
let plain o = Engine.Probe.create ~measure:(Oracle.measure o) ()

(* ---- coordinates ---- *)

let test_coords_estimate () =
  Alcotest.(check (float 1e-12)) "euclidean" 5.0 (Coordinates.estimate [| 0.0; 0.0 |] [| 3.0; 4.0 |]);
  Alcotest.(check (float 1e-12)) "relative error" 0.5
    (Coordinates.relative_error ~actual:10.0 ~estimated:15.0);
  Alcotest.(check (float 0.0)) "zero actual, zero estimate" 0.0
    (Coordinates.relative_error ~actual:0.0 ~estimated:0.0)

let test_coords_embedding_fits_landmarks () =
  let o = Lazy.force oracle in
  let rng = Rng.create 1 in
  let lms = Landmarks.choose rng o 8 in
  let t = Coordinates.embed_landmarks rng (plain o) (Landmarks.nodes lms) in
  Alcotest.(check int) "dims" 5 t.Coordinates.dims;
  (* Embedding error between landmarks should be moderate (<60% median). *)
  let nodes = t.Coordinates.landmark_nodes in
  let errors = ref [] in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then begin
            let actual = Oracle.dist o a b in
            let est =
              Coordinates.estimate t.Coordinates.landmark_coords.(i)
                t.Coordinates.landmark_coords.(j)
            in
            errors := Coordinates.relative_error ~actual ~estimated:est :: !errors
          end)
        nodes)
    nodes;
  let med = Prelude.Stats.percentile (Array.of_list !errors) 50.0 in
  Alcotest.(check bool) (Printf.sprintf "median landmark error %.3f < 0.6" med) true (med < 0.6)

let test_coords_positioning_better_than_chance () =
  let o = Lazy.force oracle in
  let rng = Rng.create 2 in
  let lms = Landmarks.choose rng o 8 in
  let prober = plain o in
  let t = Coordinates.embed_landmarks rng prober (Landmarks.nodes lms) in
  let n = Oracle.node_count o in
  let coords =
    Array.init n (fun node ->
        Coordinates.position t rng ~measured:(Landmarks.vector_via lms prober node))
  in
  let errors =
    Array.init 300 (fun _ ->
        let a = Rng.int rng n and b = Rng.int rng n in
        let actual = Oracle.dist o a b in
        if actual > 0.0 then
          Coordinates.relative_error ~actual
            ~estimated:(Coordinates.estimate coords.(a) coords.(b))
        else 0.0)
  in
  let med = Prelude.Stats.percentile errors 50.0 in
  Alcotest.(check bool) (Printf.sprintf "median pair error %.3f < 0.8" med) true (med < 0.8)

(* ---- ring soft map, on both overlays with an identifier ring ---- *)

(* An overlay built on a [Keyring]: its ring, how a member leaves, and an
   arc its selection would filter lookups on. *)
type ring_overlay = { keys : Keyring.t; leave : int -> unit; arc : int * int }

let chord_overlay rng n =
  let ring = Ring.create () in
  for id = 0 to n - 1 do
    Ring.add_node ring ~rng id
  done;
  let keys = Ring.keyring ring in
  { keys; leave = Ring.remove_node ring; arc = (0, Keyring.ring_size keys / 4) }

(* degree 4, arc = node 0's de Bruijn image arc *)
let koorde_overlay rng n =
  let dbj = Dbj.create ~degree:4 () in
  for id = 0 to n - 1 do
    Dbj.add_node dbj ~rng id
  done;
  { keys = Dbj.keyring dbj; leave = Dbj.remove_node dbj; arc = Dbj.image_arc dbj 0 }

let softmap_fixture make ~seed =
  let o = Lazy.force oracle in
  let rng = Rng.create seed in
  let n = Oracle.node_count o in
  let overlay = make rng n in
  let lms = Landmarks.choose rng o 6 in
  let scheme =
    Number.default_scheme ~max_latency:(Number.calibrate_max_latency o (Landmarks.nodes lms)) ()
  in
  let map = Softmap.create ~scheme overlay.keys in
  let vectors = Array.init n (Landmarks.vector_via lms (plain o)) in
  Array.iteri (fun node vector -> Softmap.publish map ~node ~vector) vectors;
  (overlay, map, vectors)

let hosted_at map host node =
  List.exists (fun (e : Softmap.entry) -> e.Softmap.node = node) (Softmap.entries_at map host)

let test_softmap_publish_hosts make () =
  let overlay, map, vectors = softmap_fixture make ~seed:3 in
  (* every entry is hosted by the successor of its store key *)
  Array.iteri
    (fun node vector ->
      let host = Keyring.successor_node overlay.keys (Softmap.store_key_of map vector) in
      Alcotest.(check bool)
        (Printf.sprintf "node %d hosted at successor of its landmark key" node)
        true (hosted_at map host node))
    vectors

let test_softmap_lookup_returns_closest make () =
  let _, map, vectors = softmap_fixture make ~seed:4 in
  let query = vectors.(0) in
  let results = Softmap.lookup map ~vector:query ~max_results:5 () in
  Alcotest.(check bool) "found something" true (results <> []);
  (* results sorted by vector distance *)
  let dists = List.map (fun (e : Softmap.entry) -> Landmarks.vector_dist query e.Softmap.vector) results in
  Alcotest.(check (list (float 1e-9))) "sorted" (List.sort compare dists) dists

let test_softmap_arc_filter make () =
  let overlay, map, vectors = softmap_fixture make ~seed:5 in
  let keys = overlay.keys in
  let lo, span = overlay.arc in
  let max_results = 20 in
  let results =
    Softmap.lookup map ~vector:vectors.(0) ~in_arc:(lo, span) ~max_results ~ttl:200 ()
  in
  List.iter
    (fun (e : Softmap.entry) ->
      let k = Keyring.key_of keys e.Softmap.node in
      Alcotest.(check bool) "owner inside the arc" true (Keyring.clockwise keys lo k < span))
    results;
  (* the walk covers the whole ring, so every owner in the arc is found *)
  let in_arc = Array.length (Keyring.arc_members keys ~lo ~span) in
  Alcotest.(check bool) "arc inhabited" true (in_arc > 0);
  Alcotest.(check int) "every arc owner up to max_results" (min max_results in_arc)
    (List.length results)

let test_softmap_unpublish_and_rehome make () =
  let overlay, map, vectors = softmap_fixture make ~seed:6 in
  Softmap.unpublish map 0;
  let results = Softmap.lookup map ~vector:vectors.(0) ~max_results:1000 ~ttl:1000 () in
  Alcotest.(check bool) "unpublished node gone" true
    (not (List.exists (fun (e : Softmap.entry) -> e.Softmap.node = 0) results));
  (* membership churn + rehome keeps hosting consistent *)
  overlay.leave 1;
  Softmap.rehome map;
  Array.iteri
    (fun node vector ->
      if node > 1 then begin
        let host = Keyring.successor_node overlay.keys (Softmap.store_key_of map vector) in
        Alcotest.(check bool) "rehomed correctly" true (hosted_at map host node)
      end)
    vectors

let softmap_cases prefix make =
  [
    Alcotest.test_case (prefix ^ "ring map hosting") `Quick (test_softmap_publish_hosts make);
    Alcotest.test_case (prefix ^ "ring map lookup sorted") `Quick
      (test_softmap_lookup_returns_closest make);
    Alcotest.test_case (prefix ^ "ring map arc filter") `Quick (test_softmap_arc_filter make);
    Alcotest.test_case (prefix ^ "ring map unpublish/rehome") `Quick
      (test_softmap_unpublish_and_rehome make);
  ]

(* ---- pastry prefix map ---- *)

module Pmesh = Pastry.Mesh
module Psoftmap = Pastry.Softmap

let pastry_fixture ~seed =
  let o = Lazy.force oracle in
  let rng = Rng.create seed in
  let mesh = Pmesh.create () in
  let n = Oracle.node_count o in
  for id = 0 to n - 1 do
    Pmesh.add_node mesh ~rng id
  done;
  let lms = Landmarks.choose rng o 6 in
  let scheme =
    Number.default_scheme ~max_latency:(Number.calibrate_max_latency o (Landmarks.nodes lms)) ()
  in
  let map = Psoftmap.create ~scheme mesh in
  let vectors = Array.init n (Landmarks.vector_via lms (plain o)) in
  Array.iteri (fun node vector -> Psoftmap.publish_all map ~node ~vector) vectors;
  (o, mesh, map, vectors)

let test_pastry_map_store_ids () =
  let _, mesh, map, vectors = pastry_fixture ~seed:31 in
  (* a store id under prefix P must start with P *)
  let node = 3 in
  let pid = Pmesh.pastry_id mesh node in
  let prefix = Array.init 2 (fun r -> Pmesh.digit mesh pid r) in
  let sid = Psoftmap.store_id_of map ~prefix vectors.(node) in
  for r = 0 to 1 do
    Alcotest.(check int) "store id extends the prefix" prefix.(r) (Pmesh.digit mesh sid r)
  done

let test_pastry_map_lookup_region_only () =
  let _, mesh, map, vectors = pastry_fixture ~seed:32 in
  let node = 5 in
  let pid = Pmesh.pastry_id mesh node in
  let prefix = Array.init 1 (fun r -> Pmesh.digit mesh pid r) in
  let results = Psoftmap.lookup map ~prefix ~vector:vectors.(node) ~max_results:10 ~ttl:50 () in
  Alcotest.(check bool) "found entries" true (results <> []);
  List.iter
    (fun (e : Psoftmap.entry) ->
      let epid = Pmesh.pastry_id mesh e.Psoftmap.node in
      Alcotest.(check int) "entry owner lives in the region" prefix.(0) (Pmesh.digit mesh epid 0))
    results;
  let dists =
    List.map (fun (e : Psoftmap.entry) -> Landmarks.vector_dist vectors.(node) e.Psoftmap.vector) results
  in
  Alcotest.(check (list (float 1e-9))) "sorted by vector distance" (List.sort compare dists) dists

let test_pastry_map_unpublish_rehome () =
  let _, mesh, map, vectors = pastry_fixture ~seed:33 in
  Psoftmap.unpublish map 0;
  let results = Psoftmap.lookup map ~prefix:[||] ~vector:vectors.(0) ~max_results:1000 ~ttl:500 () in
  Alcotest.(check bool) "unpublished gone" true
    (not (List.exists (fun (e : Psoftmap.entry) -> e.Psoftmap.node = 0) results));
  Pmesh.remove_node mesh 1;
  Psoftmap.rehome map;
  (* all surviving entries are hosted on live members *)
  Array.iter
    (fun host ->
      Alcotest.(check bool) "hosts are members" true (Pmesh.mem mesh host || Psoftmap.entries_at map host = []))
    (Pmesh.node_ids mesh)

(* ---- load-aware strategy ---- *)

module Builder = Core.Builder
module Strategy = Core.Strategy

let test_load_aware_strategy () =
  Alcotest.(check string) "to_string" "load-aware(rtts=5,w=2.00)"
    (Strategy.to_string (Strategy.load_aware ~rtts:5 ~load_weight:2.0 ()));
  Alcotest.check_raises "validation" (Invalid_argument "Strategy.load_aware: rtts must be >= 1")
    (fun () -> ignore (Strategy.load_aware ~rtts:0 ()));
  let o = Lazy.force oracle in
  let b =
    Builder.build o
      {
        Builder.default_config with
        Builder.overlay_size = 60;
        landmark_count = 6;
        strategy = Strategy.hybrid ~rtts:5 ();
        seed = 3;
      }
  in
  (* With zero published load, load-aware selection equals hybrid. *)
  let quality () = (Core.Measure.neighbor_quality b).Prelude.Stats.mean in
  Builder.rebuild_tables b (Strategy.hybrid ~rtts:5 ());
  let hybrid_q = quality () in
  Builder.rebuild_tables b (Strategy.load_aware ~rtts:5 ~load_weight:5.0 ());
  let la_zero_load_q = quality () in
  Alcotest.(check (float 1e-9)) "no load => identical choices" hybrid_q la_zero_load_q;
  (* Saturate every node's load except one candidate per region: choices
     shift away from loaded nodes, so neighbor quality (pure distance)
     can only get worse or stay equal. *)
  Array.iter
    (fun node ->
      List.iter
        (fun region ->
          Store.update_stats b.Builder.store ~region ~node ~load:(if node mod 2 = 0 then 1.0 else 0.0)
            ~capacity:1.0)
        (Store.regions_of b.Builder.store node))
    b.Builder.members;
  Builder.rebuild_tables b (Strategy.load_aware ~rtts:5 ~load_weight:5.0 ());
  let la_loaded_q = quality () in
  Alcotest.(check bool)
    (Printf.sprintf "load shifts selection (%.3f >= %.3f)" la_loaded_q hybrid_q)
    true (la_loaded_q >= hybrid_q -. 1e-9)

(* ---- proximity routing ---- *)

let can_fixture ~seed ~n =
  let rng = Rng.create seed in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to n - 1 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  (can, rng)

let test_route_proximity_reaches_owner () =
  let o = Lazy.force oracle in
  let n = Oracle.node_count o in
  let can, rng = can_fixture ~seed:7 ~n in
  for _ = 1 to 100 do
    let p = Point.random rng 2 in
    let src = Rng.int rng n in
    match Can_overlay.route_proximity can ~dist:(fun a b -> Oracle.dist o a b) ~src p with
    | None -> Alcotest.fail "proximity routing failed"
    | Some hops ->
      Alcotest.(check int) "owner reached" (Can_overlay.owner_of can p)
        (List.nth hops (List.length hops - 1))
  done

let test_route_proximity_latency_no_worse () =
  let o = Lazy.force oracle in
  let n = Oracle.node_count o in
  let can, rng = can_fixture ~seed:8 ~n in
  let latency hops =
    let rec go acc = function
      | a :: (b :: _ as rest) -> go (acc +. Oracle.dist o a b) rest
      | [ _ ] | [] -> acc
    in
    go 0.0 hops
  in
  let total_greedy = ref 0.0 and total_prox = ref 0.0 in
  for _ = 1 to 200 do
    let p = Point.random rng 2 in
    let src = Rng.int rng n in
    (match Can_overlay.route can ~src p with
    | Some h -> total_greedy := !total_greedy +. latency h
    | None -> Alcotest.fail "greedy failed");
    match Can_overlay.route_proximity can ~dist:(fun a b -> Oracle.dist o a b) ~src p with
    | Some h -> total_prox := !total_prox +. latency h
    | None -> Alcotest.fail "proximity failed"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "proximity %.0f <= 1.1 x greedy %.0f" !total_prox !total_greedy)
    true
    (!total_prox <= 1.1 *. !total_greedy)

(* ---- search extensions ---- *)

let test_ranked_curve_respects_order () =
  let o = Lazy.force oracle in
  (* score = true distance: the first probe must be the true nearest *)
  let n = Oracle.node_count o in
  let candidates = Array.init n (fun i -> i) in
  let query = 5 in
  let curve =
    Search.ranked_curve (plain o)
      ~score:(fun c -> Oracle.dist o query c)
      ~candidates ~query ~budget:3
  in
  let _, optimal = Search.true_nearest o ~query ~candidates in
  Alcotest.(check (float 1e-12)) "oracle score finds optimum immediately" optimal
    curve.Search.dist.(0)

let test_hill_climb_stops_at_local_minimum () =
  let o = Lazy.force oracle in
  let n = Oracle.node_count o in
  let can, _ = can_fixture ~seed:9 ~n in
  let curve = Search.hill_climb_curve (plain o) can ~query:0 ~budget:500 in
  let spent = Array.length curve.Search.dist in
  Alcotest.(check bool) "spends something" true (spent >= 1);
  (* monotone best-so-far *)
  for i = 1 to spent - 1 do
    Alcotest.(check bool) "monotone" true (curve.Search.dist.(i) <= curve.Search.dist.(i - 1))
  done

let test_hosting_stats () =
  let rng = Rng.create 10 in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to 29 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let scheme = Number.default_scheme ~max_latency:100.0 () in
  let store = Store.create ~scheme can in
  Alcotest.(check int) "empty store: no hosting nodes" 0
    (Store.hosting_stats store).Prelude.Stats.count;
  for node = 0 to 19 do
    Store.publish store ~region:[||] ~node
      ~vector:(Array.init 5 (fun _ -> Rng.float rng 100.0))
  done;
  let stats = Store.hosting_stats store in
  Alcotest.(check bool) "some hosting nodes" true (stats.Prelude.Stats.count > 0);
  (* total entries conserved *)
  let total =
    Array.fold_left (fun acc id -> acc + Store.entries_at_host store id) 0 (Can_overlay.node_ids can)
  in
  Alcotest.(check int) "entries conserved" 20 total

let suite =
  [
    Alcotest.test_case "coordinates arithmetic" `Quick test_coords_estimate;
    Alcotest.test_case "landmark embedding converges" `Quick test_coords_embedding_fits_landmarks;
    Alcotest.test_case "client positioning accuracy" `Quick test_coords_positioning_better_than_chance;
  ]
  @ softmap_cases "" chord_overlay
  @ [
    Alcotest.test_case "pastry map store ids" `Quick test_pastry_map_store_ids;
    Alcotest.test_case "pastry map region lookup" `Quick test_pastry_map_lookup_region_only;
    Alcotest.test_case "pastry map unpublish/rehome" `Quick test_pastry_map_unpublish_rehome;
    Alcotest.test_case "load-aware strategy" `Quick test_load_aware_strategy;
    Alcotest.test_case "proximity routing reaches owner" `Quick test_route_proximity_reaches_owner;
    Alcotest.test_case "proximity routing latency" `Quick test_route_proximity_latency_no_worse;
    Alcotest.test_case "ranked curve ordering" `Quick test_ranked_curve_respects_order;
    Alcotest.test_case "hill climbing local minima" `Quick test_hill_climb_stops_at_local_minimum;
    Alcotest.test_case "hosting statistics" `Quick test_hosting_stats;
  ]
  @ softmap_cases "koorde " koorde_overlay
