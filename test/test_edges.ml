(* Edge-case tests: boundary conditions across modules that the example
   tests don't reach. *)

module Rng = Prelude.Rng
module Stats = Prelude.Stats
module Heap = Prelude.Heap
module Graph = Topology.Graph
module Zone = Geometry.Zone
module Point = Geometry.Point
module Hilbert = Geometry.Hilbert
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Ring = Chord.Ring
module Mesh = Pastry.Mesh
module Number = Landmark.Number
module Store = Softstate.Store
module Sim = Engine.Sim
module Measure = Core.Measure

(* ---- prelude ---- *)

let test_rng_sample_zero () =
  let rng = Rng.create 1 in
  Alcotest.(check (array int)) "k=0 is empty" [||] (Rng.sample rng 0 [| 1; 2; 3 |]);
  Alcotest.check_raises "negative k" (Invalid_argument "Rng.sample: negative k") (fun () ->
      ignore (Rng.sample rng (-1) [| 1 |]))

let test_rng_int_in_singleton () =
  let rng = Rng.create 2 in
  for _ = 1 to 20 do
    Alcotest.(check int) "degenerate range" 5 (Rng.int_in rng 5 5)
  done

let test_rng_float_in_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let v = Rng.float_in rng (-2.0) 3.0 in
    Alcotest.(check bool) "in range" true (v >= -2.0 && v < 3.0)
  done

let test_stats_single_sample () =
  let s = Stats.summarize [| 7.0 |] in
  Alcotest.(check (float 0.0)) "mean" 7.0 s.Stats.mean;
  Alcotest.(check (float 0.0)) "p50" 7.0 s.Stats.p50;
  Alcotest.(check (float 0.0)) "stddev" 0.0 s.Stats.stddev

(* ---- geometry ---- *)

let test_zone_split_dim_cycles () =
  Alcotest.(check int) "depth 0 splits dim 0" 0 (Zone.split_dim_at_depth 3 0);
  Alcotest.(check int) "depth 1 splits dim 1" 1 (Zone.split_dim_at_depth 3 1);
  Alcotest.(check int) "depth 3 wraps" 0 (Zone.split_dim_at_depth 3 3)

let test_zone_1d () =
  let z = Zone.full 1 in
  let l, r = Zone.split z 0 in
  Alcotest.(check bool) "1-d halves are neighbors" true (Zone.is_neighbor l r);
  Alcotest.(check (float 1e-12)) "1-d volume" 0.5 (Zone.volume l)

let test_hilbert_single_bit_dims () =
  (* 1-dimensional Hilbert curve degenerates to the identity. *)
  for i = 0 to 15 do
    Alcotest.(check int) "1-d identity" i (Hilbert.index_of_coords ~bits:4 [| i |])
  done

let test_point_random_in_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 100 do
    let p = Point.random rng 3 in
    Array.iter (fun c -> Alcotest.(check bool) "in [0,1)" true (c >= 0.0 && c < 1.0)) p
  done

(* ---- can ---- *)

let test_can_two_nodes_routing () =
  let t = Can_overlay.create ~dims:2 0 in
  ignore (Can_overlay.join t 1 [| 0.9; 0.9 |]);
  (match Can_overlay.route t ~src:0 [| 0.9; 0.9 |] with
  | Some [ 0; 1 ] -> ()
  | Some hops -> Alcotest.failf "unexpected hops %s" (String.concat "," (List.map string_of_int hops))
  | None -> Alcotest.fail "failed");
  match Can_overlay.route_proximity t ~dist:(fun _ _ -> 1.0) ~src:0 [| 0.9; 0.9 |] with
  | Some [ 0; 1 ] -> ()
  | _ -> Alcotest.fail "proximity route differs"

let test_can_join_route_hop_list () =
  let rng = Rng.create 5 in
  let t = Can_overlay.create ~dims:2 0 in
  for id = 1 to 30 do
    let hops = Can_overlay.join t id (Point.random rng 2) in
    Alcotest.(check bool) "join walked at least one node" true (List.length hops >= 1)
  done

let test_can_max_depth_guard () =
  (* Joining the same corner repeatedly must hit the depth guard, not
     loop forever. *)
  let t = Can_overlay.create ~dims:2 0 in
  let p1 = [| 0.0; 0.0 |] in
  let near = [| 1e-12; 1e-12 |] in
  ignore (Can_overlay.join t 1 p1);
  match
    (* split until the zone containing both points cannot split further *)
    let rec go id =
      if id > 100 then None
      else begin
        ignore (Can_overlay.join t id (if id mod 2 = 0 then p1 else near));
        go (id + 1)
      end
    in
    go 2
  with
  | None | Some _ -> Alcotest.fail "expected Failure for max depth"
  | exception Failure msg ->
    Alcotest.(check bool) "depth guard message" true
      (String.length msg > 0 && String.sub msg 0 8 = "Can.join")

(* ---- ecan ---- *)

let test_ecan_routes_deterministic () =
  let rng = Rng.create 6 in
  let t = Can_overlay.create ~dims:2 0 in
  for id = 1 to 100 do
    ignore (Can_overlay.join t id (Point.random rng 2))
  done;
  let e = Ecan_exp.create t in
  let sel = Rng.create 7 in
  Ecan_exp.build_tables e ~selector:(fun ~node:_ ~region:_ ~candidates ->
      Some (Prelude.Rng.pick sel candidates));
  let p = [| 0.123; 0.456 |] in
  Alcotest.(check bool) "same route twice" true
    (Ecan_exp.route e ~src:0 p = Ecan_exp.route e ~src:0 p)

let test_ecan_single_node () =
  let t = Can_overlay.create ~dims:2 0 in
  let e = Ecan_exp.create t in
  Alcotest.(check int) "no rows" 0 (Ecan_exp.rows e 0);
  Alcotest.(check (option (list int))) "route to self" (Some [ 0 ])
    (Ecan_exp.route e ~src:0 [| 0.5; 0.5 |])

(* ---- chord / pastry ---- *)

let test_chord_two_nodes () =
  let rng = Rng.create 8 in
  let t = Ring.create () in
  Ring.add_node t ~rng 0;
  Ring.add_node t ~rng 1;
  Ring.build_fingers t ~selector:(fun ~node:_ ~arc:_ ~candidates -> Some candidates.(0));
  let ring = 1 lsl Ring.key_bits t in
  for _ = 1 to 20 do
    let key = Rng.int rng ring in
    match Ring.route t ~src:0 ~key with
    | Some hops ->
      Alcotest.(check int) "reaches owner" (Ring.successor_node t key)
        (List.nth hops (List.length hops - 1))
    | None -> Alcotest.fail "routing failed"
  done

let test_pastry_route_to_own_id () =
  let rng = Rng.create 9 in
  let t = Mesh.create () in
  for id = 0 to 40 do
    Mesh.add_node t ~rng id
  done;
  Mesh.build_tables t ~selector:(fun ~node:_ ~prefix:_ ~candidates -> Some candidates.(0));
  Array.iter
    (fun id ->
      match Mesh.route t ~src:id ~key:(Mesh.pastry_id t id) with
      | Some [ only ] -> Alcotest.(check int) "self route is trivial" id only
      | Some _ | None -> Alcotest.fail "route to own id not trivial")
    (Mesh.node_ids t)

let test_pastry_empty_prefix_too_long () =
  let t = Mesh.create ~digit_bits:2 ~num_digits:4 () in
  Alcotest.check_raises "prefix too long"
    (Invalid_argument "Pastry.members_with_prefix: prefix too long") (fun () ->
      ignore (Mesh.members_with_prefix t (Array.make 5 0)))

(* ---- softstate ---- *)

let test_store_map_box_fraction () =
  let rng = Rng.create 10 in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to 15 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let scheme = Number.default_scheme ~max_latency:100.0 () in
  let check ~condense expected_fraction =
    let store = Store.create ~condense ~scheme can in
    let region = [| 0; 1 |] in
    let region_vol = Zone.volume (Can_overlay.zone_of_path ~dims:2 region) in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "volume fraction c=%g" condense)
      (expected_fraction *. region_vol)
      (Zone.volume (Store.map_box store region))
  in
  check ~condense:1.0 0.125;
  check ~condense:4.0 0.5;
  check ~condense:100.0 1.0

let test_store_host_of_matches_owner () =
  let rng = Rng.create 11 in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to 30 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let scheme = Number.default_scheme ~max_latency:100.0 () in
  let store = Store.create ~scheme can in
  for _ = 1 to 50 do
    let v = Array.init 5 (fun _ -> Rng.float rng 100.0) in
    let region = [| Rng.int rng 2; Rng.int rng 2 |] in
    Store.publish store ~region ~node:(Rng.int rng 30) ~vector:v;
    let host = Store.host_of store ~region ~vector:v in
    Alcotest.(check bool) "host is a member" true (Can_overlay.mem can host)
  done

(* ---- pubsub ---- *)

let test_pubsub_unsubscribe_inside_handler () =
  let rng = Rng.create 12 in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to 10 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let sim = Sim.create () in
  let scheme = Number.default_scheme ~max_latency:100.0 () in
  let store = Store.create ~clock:(fun () -> Sim.now sim) ~scheme can in
  let bus = Pubsub.Bus.create ~sim store in
  let fired = ref 0 in
  let sub = ref None in
  sub :=
    Some
      (Pubsub.Bus.subscribe bus ~subscriber:1 ~region:[||] ~condition:Pubsub.Bus.Any_new_entry
         ~handler:(fun _ ->
           incr fired;
           Option.iter (Pubsub.Bus.unsubscribe bus) !sub));
  let vec () = Array.init 5 (fun _ -> Rng.float rng 100.0) in
  Pubsub.Bus.publish bus ~region:[||] ~node:2 ~vector:(vec ());
  Sim.run sim;
  Pubsub.Bus.publish bus ~region:[||] ~node:3 ~vector:(vec ());
  Sim.run sim;
  Alcotest.(check int) "self-unsubscribe after first event" 1 !fired

(* ---- measure ---- *)

let test_path_latency_manual () =
  let topo =
    Topology.Transit_stub.generate (Rng.create 13)
      {
        Topology.Transit_stub.transit_domains = 1;
        transit_nodes_per_domain = 1;
        stubs_per_transit_node = 1;
        stub_size = 3;
        extra_domain_edges = 0;
        extra_edge_fraction = 0.0;
        latency = Topology.Transit_stub.Manual;
      }
  in
  let oracle = Topology.Oracle.build topo in
  Alcotest.(check (float 1e-9)) "empty path" 0.0 (Measure.path_latency oracle []);
  Alcotest.(check (float 1e-9)) "single hop path" 0.0 (Measure.path_latency oracle [ 0 ]);
  let d01 = Topology.Oracle.dist oracle 0 1 in
  let d12 = Topology.Oracle.dist oracle 1 2 in
  Alcotest.(check (float 1e-9)) "two hops accumulate" (d01 +. d12)
    (Measure.path_latency oracle [ 0; 1; 2 ])

(* ---- number ---- *)

let test_to_unit_monotone () =
  let scheme = Number.default_scheme ~max_latency:100.0 () in
  let prev = ref (-1.0) in
  for n = 0 to 255 do
    let u = Number.to_unit scheme n in
    Alcotest.(check bool) "monotone in the landmark number" true (u > !prev);
    prev := u
  done

let test_number_rejects_empty_vector () =
  let scheme = Number.default_scheme ~max_latency:100.0 () in
  Alcotest.check_raises "empty vector" (Invalid_argument "Number.normalize: empty vector")
    (fun () -> ignore (Number.number scheme [||]))

(* ---- serialize edge ---- *)

let test_serialize_wrong_version () =
  match Topology.Serialize.of_string "some-other-format-v9\njunk" with
  | Error m ->
    Alcotest.(check bool) "mentions version" true
      (String.length m > 0)
  | Ok _ -> Alcotest.fail "accepted wrong version"

let suite =
  [
    Alcotest.test_case "rng sample k=0" `Quick test_rng_sample_zero;
    Alcotest.test_case "rng degenerate range" `Quick test_rng_int_in_singleton;
    Alcotest.test_case "rng float_in bounds" `Quick test_rng_float_in_bounds;
    Alcotest.test_case "stats single sample" `Quick test_stats_single_sample;
    Alcotest.test_case "zone split dim cycles" `Quick test_zone_split_dim_cycles;
    Alcotest.test_case "1-d zones" `Quick test_zone_1d;
    Alcotest.test_case "1-d hilbert is identity" `Quick test_hilbert_single_bit_dims;
    Alcotest.test_case "random points in bounds" `Quick test_point_random_in_bounds;
    Alcotest.test_case "two-node CAN routing" `Quick test_can_two_nodes_routing;
    Alcotest.test_case "join returns its walk" `Quick test_can_join_route_hop_list;
    Alcotest.test_case "max split depth guard" `Quick test_can_max_depth_guard;
    Alcotest.test_case "ecan deterministic routes" `Quick test_ecan_routes_deterministic;
    Alcotest.test_case "ecan single node" `Quick test_ecan_single_node;
    Alcotest.test_case "two-node chord" `Quick test_chord_two_nodes;
    Alcotest.test_case "pastry self-route" `Quick test_pastry_route_to_own_id;
    Alcotest.test_case "pastry prefix validation" `Quick test_pastry_empty_prefix_too_long;
    Alcotest.test_case "map box volume fraction" `Quick test_store_map_box_fraction;
    Alcotest.test_case "host_of returns members" `Quick test_store_host_of_matches_owner;
    Alcotest.test_case "unsubscribe inside handler" `Quick test_pubsub_unsubscribe_inside_handler;
    Alcotest.test_case "path latency accumulation" `Quick test_path_latency_manual;
    Alcotest.test_case "to_unit monotone" `Quick test_to_unit_monotone;
    Alcotest.test_case "number rejects empty vector" `Quick test_number_rejects_empty_vector;
    Alcotest.test_case "serialize wrong version" `Quick test_serialize_wrong_version;
  ]
