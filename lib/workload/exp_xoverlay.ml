module Oracle = Topology.Oracle
module Ring = Chord.Ring
module Mesh = Pastry.Mesh
module Dbj = Koorde.Debruijn
module Keyring = Chord.Keyring
module Softmap = Chord.Softmap
module Landmarks = Landmark.Landmarks
module Number = Landmark.Number
module Stats = Prelude.Stats
module Rng = Prelude.Rng

let overlay_size = 1024
let landmark_count = 15
let rtt_budget = 10
let route_count = 2048

(* A mean-stretch cell: the [xover_stretch] gauge. *)
let stretch_cell ~overlay ~pick (s : Stats.summary) =
  Tableout.gauge
    ~labels:[ ("experiment", "xover"); ("overlay", overlay); ("pick", pick) ]
    "xover_stretch" Tableout.cell_f s.Stats.mean

let random_pick rng : Backend.pick = fun ~node:_ ~candidates -> Some (Rng.pick rng candidates)

let optimal_pick oracle : Backend.pick =
 fun ~node ~candidates ->
  match Oracle.nearest oracle node candidates with
  | Some (best, _) -> Some best
  | None -> None

(* Stretch of [route_count] seeded routes from random members to random
   keys, each measured against the direct path to the key's owner. *)
let sampled_stretch oracle members ~seed ~what ~route ~owner ~key_space =
  let samples, failed =
    Core.Measure.sample_routes oracle (Rng.create seed) members ~count:route_count
      (Core.Measure.Keys { key_space; owner }) (fun ~src key -> route ~src ~key)
  in
  if failed > 0 then failwith (what ^ " routing failed");
  Stats.summarize (Array.of_list (Core.Measure.stretches samples))

(* Map-backed selection: probe every entry the map lookup returned (other
   than the node itself) in lookup order and keep the RTT-nearest, the
   earlier one on ties; a random candidate when the map had none. *)
let map_pick prober fallback_rng ~node ~candidates entries =
  match Array.of_list (List.filter (fun c -> c <> node) entries) with
  | [||] -> Some (Rng.pick fallback_rng candidates)
  | probed ->
    let rank c =
      let i = ref 0 in
      while probed.(!i) <> c do
        incr i
      done;
      float_of_int !i
    in
    let curve =
      Proximity.Search.ranked_curve prober ~score:rank ~candidates:probed ~query:node
        ~budget:(Array.length probed)
    in
    Some curve.Proximity.Search.found.(Array.length probed - 1)

(* Chord or Koorde with the soft-state map actually *stored on the
   identifier ring* (appendix placement: entry key = landmark number scaled
   into the id space): each slot's selection does a real map lookup
   constrained to its arc (a Chord finger arc, a de Bruijn image arc), then
   probes the returned candidates by RTT. *)
let ringmap_stretch oracle prober members scheme vector_of kind ~key_seed ~fallback_seed
    ~route_seed =
  let rng = Rng.create key_seed in
  let name, keys, build_fingers, route =
    match kind with
    | Backend.Chord ->
      let ring = Ring.create () in
      Array.iter (fun id -> Ring.add_node ring ~rng id) members;
      ("chord", Ring.keyring ring, Ring.build_fingers ring, Ring.route ring)
    | Backend.Koorde degree ->
      let dbj = Dbj.create ~degree () in
      Array.iter (fun id -> Dbj.add_node dbj ~rng id) members;
      ("koorde", Dbj.keyring dbj, Dbj.build_fingers dbj, Dbj.route dbj)
    | Backend.Pastry -> invalid_arg "Exp_xoverlay.ringmap_stretch: Pastry has no identifier ring"
  in
  let map = Softmap.create ~scheme keys in
  Array.iter (fun id -> Softmap.publish map ~node:id ~vector:(vector_of id)) members;
  let fallback_rng = Rng.create fallback_seed in
  build_fingers ~selector:(fun ~node ~arc ~candidates ->
      Softmap.lookup map ~vector:(vector_of node) ~in_arc:arc ~max_results:rtt_budget ~ttl:64 ()
      |> List.map (fun e -> e.Softmap.node)
      |> map_pick prober fallback_rng ~node ~candidates);
  sampled_stretch oracle members ~seed:route_seed ~what:(name ^ " ring-map hybrid") ~route
    ~owner:(Keyring.successor_node keys) ~key_space:(Keyring.ring_size keys)

(* Pastry with prefix-region maps actually stored on the mesh (appendix
   placement: entry id = region prefix ++ landmark-number digits). *)
let pastry_prefixmap_stretch oracle prober members scheme vector_of =
  let rng = Rng.create 31341 in
  let mesh = Mesh.create () in
  Array.iter (fun id -> Mesh.add_node mesh ~rng id) members;
  let map = Pastry.Softmap.create ~scheme mesh in
  Array.iter (fun id -> Pastry.Softmap.publish_all map ~node:id ~vector:(vector_of id)) members;
  let fallback_rng = Rng.create 31342 in
  Mesh.build_tables mesh ~selector:(fun ~node ~prefix ~candidates ->
      Pastry.Softmap.lookup map ~prefix ~vector:(vector_of node) ~max_results:rtt_budget ~ttl:16
        ()
      |> List.map (fun (e : Pastry.Softmap.entry) -> e.Pastry.Softmap.node)
      |> map_pick prober fallback_rng ~node ~candidates);
  sampled_stretch oracle members ~seed:556 ~what:"pastry prefix-map hybrid"
    ~route:(Mesh.route mesh) ~owner:(Mesh.owner_of mesh)
    ~key_space:(1 lsl (Mesh.digit_bits mesh * Mesh.num_digits mesh))

let run ?(scale = 1) () =
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Manual in
  let size = max 128 (overlay_size / scale) in
  let rng = Rng.create 777 in
  let all = Array.init (Oracle.node_count oracle) (fun i -> i) in
  let members = Rng.sample rng size all in
  let lms = Landmarks.choose rng oracle landmark_count in
  let prober = Engine.Probe.create ~measure:(Oracle.measure oracle) () in
  let vectors = Hashtbl.create size in
  Array.iter (fun m -> Hashtbl.replace vectors m (Landmarks.vector_via lms prober m)) members;
  let vector_of node = Hashtbl.find vectors node in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Generality: proximity selection on Chord, Pastry and Koorde (%d nodes, tsk-large manual)"
           size)
      ~columns:[ "overlay"; "random"; "hybrid (lmk+RTT)"; "optimal" ]
  in
  let strategies () =
    [
      ("random", random_pick (Rng.create 1));
      (* The soft-state hybrid, idealised to its information content: the
         map of a region returns the entries closest to the querying node
         in landmark space, and the node probes the top few by RTT.  The
         map-backed rows below exercise the storage itself. *)
      ( "hybrid",
        fun ~node ~candidates ->
          fst (Backend.hybrid_pick prober ~vector_of ~budget:rtt_budget ~node ~candidates) );
      ("optimal", optimal_pick oracle);
    ]
  in
  (* One fresh overlay per (row, strategy): same member keys, same routes. *)
  let row name kind ~key_seed ~route_seed =
    let cells =
      List.map
        (fun (pick_name, pick) ->
          let be = Backend.create kind (Rng.create key_seed) in
          Array.iter be.Backend.add members;
          be.Backend.rebuild ~pick;
          let s =
            sampled_stretch oracle members ~seed:route_seed ~what:(name ^ " " ^ pick_name)
              ~route:be.Backend.route ~owner:be.Backend.owner ~key_space:be.Backend.key_space
          in
          stretch_cell ~overlay:(String.lowercase_ascii name) ~pick:pick_name s)
        (strategies ())
    in
    Tableout.add_row table (Tableout.text name :: cells)
  in
  row "Chord" Backend.Chord ~key_seed:31337 ~route_seed:555;
  row "Pastry" Backend.Pastry ~key_seed:31338 ~route_seed:556;
  row "Koorde" (Backend.Koorde 4) ~key_seed:31343 ~route_seed:557;
  (* The ring-map variant exercises the actual on-ring storage path. *)
  let scheme =
    Number.default_scheme
      ~max_latency:(Number.calibrate_max_latency oracle (Landmarks.nodes lms))
      ()
  in
  let ringmap =
    ringmap_stretch oracle prober members scheme vector_of Backend.Chord ~key_seed:31339
      ~fallback_seed:31340 ~route_seed:555
  in
  let prefixmap = pastry_prefixmap_stretch oracle prober members scheme vector_of in
  let koordemap =
    ringmap_stretch oracle prober members scheme vector_of (Backend.Koorde 4) ~key_seed:31344
      ~fallback_seed:31345 ~route_seed:557
  in
  let stored lead overlay s =
    Tableout.line
      [
        Tableout.text lead;
        stretch_cell ~overlay ~pick:"stored map" s;
        Tableout.text " (vs idealised hybrid above)";
      ]
  in
  [
    Tableout.table table;
    stored "  Chord with the map stored on the ring itself: stretch " "chord" ringmap;
    stored "  Pastry with maps stored under the prefixes:   stretch " "pastry" prefixmap;
    stored "  Koorde with the map stored on its ring:       stretch " "koorde" koordemap;
  ]
