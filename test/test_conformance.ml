(* Shared backend-conformance suite: one property harness over all five
   overlay backends (CAN, eCAN, Chord, Pastry, Koorde).  Each backend is
   wrapped in the same record — keyed routing, a membership-model owner
   oracle, join/leave, stabilization, invariants — so the properties the
   per-backend suites used to copy (routes terminate within the hop
   bound, routes end at the oracle's owner, churn preserves invariants,
   same-seed metrics JSON is byte-identical per DESIGN §12) are written
   exactly once. *)

module Rng = Prelude.Rng
module Point = Geometry.Point
module Metrics = Engine.Metrics
module Trace = Engine.Trace
module Json = Prelude.Json

type backend = {
  name : string;
  members : unit -> int array;
  route : src:int -> key:int -> int list option;
  owner : int -> int;  (* membership-model oracle: expected route terminal *)
  key_space : int;  (* route keys are drawn from [0, key_space) *)
  mean_hop_bound : int -> float;  (* allowed mean hops at a given size *)
  join : int -> unit;
  leave : int -> unit;
  stabilize : unit -> unit;
  invariants : unit -> (unit, string) result;
}

let log2f n = log (float_of_int (max 2 n)) /. log 2.

(* ---- the five wrappers ---- *)

(* Chord, Pastry and Koorde come from the workloads' own adapters,
   stabilised under a seeded random selection policy. *)
let of_backend ~seed ~n ~mean_hop_bound kind =
  let module Backend = Workload.Backend in
  let t = Backend.create kind (Rng.create seed) in
  for id = 0 to n - 1 do
    t.Backend.add id
  done;
  let sel = Rng.create (seed + 1) in
  let pick ~node:_ ~candidates = Some (Rng.pick sel candidates) in
  t.Backend.rebuild ~pick;
  {
    name = t.Backend.name;
    members = t.Backend.node_ids;
    route = t.Backend.route;
    owner = t.Backend.owner;
    key_space = t.Backend.key_space;
    mean_hop_bound;
    join = t.Backend.add;
    leave = t.Backend.remove;
    stabilize = (fun () -> t.Backend.rebuild ~pick);
    invariants = t.Backend.invariants;
  }

let make_chord ~seed ~n =
  of_backend ~seed ~n ~mean_hop_bound:(fun n -> (2. *. log2f n) +. 6.) Workload.Backend.Chord

let make_pastry ~seed ~n =
  of_backend ~seed ~n ~mean_hop_bound:(fun n -> (2. *. log2f n) +. 6.) Workload.Backend.Pastry

(* log_k N digit hops plus successor corrections, which random preferred
   entries make more frequent than the exact policy's O(1) *)
let make_koorde ~seed ~n =
  of_backend ~seed ~n
    ~mean_hop_bound:(fun n -> (2. *. log2f n) +. 8.)
    (Workload.Backend.Koorde [| 2; 4; 8; 16 |].(seed mod 4))

(* CAN and eCAN route on points; keys map onto the unit square through a
   fixed 2 x 10-bit grid so the keyed interface is shared. *)
let can_key_bits = 20

let point_of_key key =
  let side = 1 lsl (can_key_bits / 2) in
  let cell v = (float_of_int v +. 0.5) /. float_of_int side in
  [| cell (key lsr (can_key_bits / 2)); cell (key land (side - 1)) |]

let make_can ~seed ~n =
  let module Can_overlay = Can.Overlay in
  let rng = Rng.create seed in
  let t = Can_overlay.create ~dims:2 0 in
  for id = 1 to n - 1 do
    ignore (Can_overlay.join t id (Point.random rng 2))
  done;
  {
    name = "can";
    members = (fun () -> Can_overlay.node_ids t);
    route = (fun ~src ~key -> Can_overlay.route t ~src (point_of_key key));
    owner = (fun key -> Can_overlay.owner_of t (point_of_key key));
    key_space = 1 lsl can_key_bits;
    mean_hop_bound = (fun n -> (4. *. sqrt (float_of_int n)) +. 8.);
    join = (fun id -> ignore (Can_overlay.join t id (Point.random rng 2)));
    leave = (fun id -> ignore (Can_overlay.leave t id));
    stabilize = (fun () -> ());
    invariants = (fun () -> Can_overlay.check_invariants t);
  }

let make_ecan ~seed ~n =
  let module Can_overlay = Can.Overlay in
  let module Ecan_x = Ecan.Expressway in
  let rng = Rng.create seed in
  let t = Can_overlay.create ~dims:2 0 in
  for id = 1 to n - 1 do
    ignore (Can_overlay.join t id (Point.random rng 2))
  done;
  let e = Ecan_x.create ~span_bits:2 t in
  let sel = Rng.create (seed + 1) in
  let selector ~node:_ ~region:_ ~candidates = Some (Rng.pick sel candidates) in
  Ecan_x.build_tables e ~selector;
  {
    name = "ecan";
    members = (fun () -> Can_overlay.node_ids t);
    route = (fun ~src ~key -> Ecan_x.route e ~src (point_of_key key));
    owner = (fun key -> Can_overlay.owner_of t (point_of_key key));
    key_space = 1 lsl can_key_bits;
    mean_hop_bound = (fun n -> (4. *. sqrt (float_of_int n)) +. 8.);
    join = (fun id -> ignore (Can_overlay.join t id (Point.random rng 2)));
    leave = (fun id -> ignore (Can_overlay.leave t id));
    stabilize = (fun () -> Ecan_x.build_tables e ~selector);
    invariants = (fun () -> Can_overlay.check_invariants t);
  }

let backends =
  [
    ("can", make_can);
    ("ecan", make_ecan);
    ("chord", make_chord);
    ("pastry", make_pastry);
    ("koorde", make_koorde);
  ]

(* ---- properties ---- *)

let qcheck_terminates_within_bound (name, make) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: routes terminate within the hop bound" name)
    ~count:15
    QCheck.(pair (int_range 0 1000) (int_range 8 80))
    (fun (seed, n) ->
      let b = make ~seed ~n in
      let rng = Rng.create (seed + 2) in
      let ids = b.members () in
      let total = ref 0 in
      let routes = 24 in
      for _ = 1 to routes do
        let key = Rng.int rng b.key_space in
        match b.route ~src:(Rng.pick rng ids) ~key with
        | Some hops -> total := !total + List.length hops - 1
        | None -> QCheck.Test.fail_report (b.name ^ ": route did not terminate")
      done;
      float_of_int !total /. float_of_int routes <= b.mean_hop_bound n)

let qcheck_lookup_matches_oracle (name, make) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: lookups end at the membership model's owner" name)
    ~count:15
    QCheck.(pair (int_range 0 1000) (int_range 8 80))
    (fun (seed, n) ->
      let b = make ~seed ~n in
      let rng = Rng.create (seed + 2) in
      let ids = b.members () in
      let ok = ref true in
      for _ = 1 to 24 do
        let key = Rng.int rng b.key_space in
        match b.route ~src:(Rng.pick rng ids) ~key with
        | Some hops -> if List.nth hops (List.length hops - 1) <> b.owner key then ok := false
        | None -> ok := false
      done;
      !ok)

let qcheck_churn_preserves_invariants (name, make) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: join/leave churn preserves invariants" name)
    ~count:10
    QCheck.(pair (int_range 0 500) (int_range 12 48))
    (fun (seed, n) ->
      let b = make ~seed ~n in
      let rng = Rng.create (seed + 3) in
      let next_id = ref 10_000 in
      for _ = 1 to 16 do
        (if Array.length (b.members ()) > 8 && Rng.int rng 2 = 0 then
           b.leave (Rng.pick rng (b.members ()))
         else begin
           b.join !next_id;
           incr next_id
         end);
        b.stabilize ()
      done;
      (match b.invariants () with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_report (b.name ^ ": " ^ e));
      (* and the survivors still resolve lookups correctly *)
      let ids = b.members () in
      let ok = ref true in
      for _ = 1 to 12 do
        let key = Rng.int rng b.key_space in
        match b.route ~src:(Rng.pick rng ids) ~key with
        | Some hops -> if List.nth hops (List.length hops - 1) <> b.owner key then ok := false
        | None -> ok := false
      done;
      !ok)

(* ---- determinism: two runs with one seed give byte-identical metrics
   JSON (DESIGN §12) ---- *)

let workload_json make ~seed =
  let m = Metrics.create () in
  let b = make ~seed ~n:32 in
  let labels = [ ("overlay", b.name) ] in
  let routes = Metrics.counter m ~labels "conf_routes" in
  let failures = Metrics.counter m ~labels "conf_failures" in
  let hops = Metrics.histogram m ~labels "conf_hops" in
  let rng = Rng.create (seed + 4) in
  let next_id = ref 20_000 in
  for step = 1 to 24 do
    (if step mod 3 = 0 then begin
       if Array.length (b.members ()) > 8 then b.leave (Rng.pick rng (b.members ()));
       b.join !next_id;
       incr next_id;
       b.stabilize ()
     end);
    let key = Rng.int rng b.key_space in
    match b.route ~src:(Rng.pick rng (b.members ())) ~key with
    | Some h ->
      Metrics.incr routes;
      Metrics.observe hops (float_of_int (List.length h - 1))
    | None -> Metrics.incr failures
  done;
  Json.to_string (Metrics.to_json m)

let test_deterministic_json (name, make) () =
  let a = workload_json make ~seed:97 in
  let b = workload_json make ~seed:97 in
  Alcotest.(check string) (name ^ " same seed is byte-identical") a b

(* ---- route accounting: every overlay reports its routes through the
   same observer (route_requests / route_failures / route_hops labeled
   overlay=<name>, one Route_hop span per forwarding step) ---- *)

(* Each overlay built directly with a registry and a tracer and
   stabilised under a seeded random policy: its members, its key space
   and its keyed route. *)
type instrumented =
  metrics:Metrics.t -> trace:Trace.t -> int array * int * (src:int -> key:int -> int list option)

let instrumented_can ~n : instrumented =
 fun ~metrics ~trace ->
  let rng = Rng.create 41 in
  let t = Can.Overlay.create ~metrics ~trace ~dims:2 0 in
  for id = 1 to n - 1 do
    ignore (Can.Overlay.join t id (Point.random rng 2))
  done;
  ( Can.Overlay.node_ids t,
    1 lsl can_key_bits,
    fun ~src ~key -> Can.Overlay.route t ~src (point_of_key key) )

let instrumented_ecan ~n : instrumented =
 fun ~metrics ~trace ->
  let rng = Rng.create 41 and sel = Rng.create 42 in
  let t = Can.Overlay.create ~dims:2 0 in
  for id = 1 to n - 1 do
    ignore (Can.Overlay.join t id (Point.random rng 2))
  done;
  let e = Ecan.Expressway.create ~metrics ~trace t in
  Ecan.Expressway.build_tables e ~selector:(fun ~node:_ ~region:_ ~candidates ->
      Some (Rng.pick sel candidates));
  ( Can.Overlay.node_ids t,
    1 lsl can_key_bits,
    fun ~src ~key -> Ecan.Expressway.route e ~src (point_of_key key) )

let instrumented_chord ~n : instrumented =
 fun ~metrics ~trace ->
  let module Ring = Chord.Ring in
  let rng = Rng.create 41 and sel = Rng.create 42 in
  let t = Ring.create ~metrics ~trace () in
  for id = 0 to n - 1 do
    Ring.add_node t ~rng id
  done;
  Ring.build_fingers t ~selector:(fun ~node:_ ~arc:_ ~candidates -> Some (Rng.pick sel candidates));
  (Ring.node_ids t, 1 lsl Ring.key_bits t, Ring.route t)

let instrumented_pastry ~n : instrumented =
 fun ~metrics ~trace ->
  let module Mesh = Pastry.Mesh in
  let rng = Rng.create 41 and sel = Rng.create 42 in
  let t = Mesh.create ~metrics ~trace () in
  for id = 0 to n - 1 do
    Mesh.add_node t ~rng id
  done;
  Mesh.build_tables t ~selector:(fun ~node:_ ~prefix:_ ~candidates ->
      Some (Rng.pick sel candidates));
  (Mesh.node_ids t, 1 lsl (Mesh.digit_bits t * Mesh.num_digits t), Mesh.route t)

let instrumented_koorde ~n : instrumented =
 fun ~metrics ~trace ->
  let module Dbj = Koorde.Debruijn in
  let rng = Rng.create 41 and sel = Rng.create 42 in
  let t = Dbj.create ~metrics ~trace ~degree:4 () in
  for id = 0 to n - 1 do
    Dbj.add_node t ~rng id
  done;
  Dbj.build_fingers t ~selector:(fun ~node:_ ~arc:_ ~candidates -> Some (Rng.pick sel candidates));
  (Dbj.node_ids t, 1 lsl Dbj.key_bits t, Dbj.route t)

let instrumented_overlays =
  [
    ("can", instrumented_can ~n:48);
    ("ecan", instrumented_ecan ~n:48);
    ("chord", instrumented_chord ~n:48);
    ("pastry", instrumented_pastry ~n:48);
    ("koorde", instrumented_koorde ~n:48);
  ]

let rec forwarding_steps = function
  | a :: (b :: _ as rest) -> (a, b) :: forwarding_steps rest
  | [ _ ] | [] -> []

let test_route_accounting (name, (build : instrumented)) () =
  let metrics = Metrics.create () and trace = Trace.create () in
  let members, key_space, route = build ~metrics ~trace in
  let rng = Rng.create 43 in
  let queries = 64 in
  let results =
    List.init queries (fun _ ->
        let src = Rng.pick rng members in
        route ~src ~key:(Rng.int rng key_space))
  in
  let routes = List.filter_map Fun.id results in
  let route_instruments =
    List.filter
      (fun (e : Metrics.snapshot_entry) -> String.starts_with ~prefix:"route_" e.Metrics.name)
      (Metrics.snapshot metrics)
  in
  Alcotest.(check (list (pair string (list (pair string string)))))
    "route instruments, labeled overlay=<name>"
    [
      ("route_failures", [ ("overlay", name) ]);
      ("route_hops", [ ("overlay", name) ]);
      ("route_requests", [ ("overlay", name) ]);
    ]
    (List.map
       (fun (e : Metrics.snapshot_entry) -> (e.Metrics.name, e.Metrics.labels))
       route_instruments);
  let labels = [ ("overlay", name) ] in
  Alcotest.(check int) "requests = queries issued" queries
    (Metrics.count (Metrics.counter metrics ~labels "route_requests"));
  Alcotest.(check int) "failures = queries that returned None" (queries - List.length routes)
    (Metrics.count (Metrics.counter metrics ~labels "route_failures"));
  Alcotest.(check (array (float 0.0)))
    "one hop-count sample per success"
    (Array.of_list (List.map (fun hops -> float_of_int (List.length hops - 1)) routes))
    (Metrics.samples (Metrics.histogram metrics ~labels "route_hops"));
  let spans = Trace.spans trace in
  Alcotest.(check bool) "every span is a route hop" true
    (List.for_all (fun (s : Trace.span) -> s.Trace.kind = Trace.Route_hop) spans);
  Alcotest.(check (list (pair int int)))
    "one span per forwarding step: sum of (hops - 1)"
    (List.concat_map forwarding_steps routes)
    (List.map (fun (s : Trace.span) -> (s.Trace.node, s.Trace.peer)) spans)

let suite =
  List.concat_map
    (fun entry ->
      let name = fst entry in
      [
        QCheck_alcotest.to_alcotest (qcheck_terminates_within_bound entry);
        QCheck_alcotest.to_alcotest (qcheck_lookup_matches_oracle entry);
        QCheck_alcotest.to_alcotest (qcheck_churn_preserves_invariants entry);
        Alcotest.test_case
          (name ^ ": metrics JSON deterministic across same-seed runs")
          `Quick
          (test_deterministic_json entry);
      ])
    backends
  @ List.map
      (fun entry ->
        Alcotest.test_case
          (fst entry ^ ": route metrics and spans match the queries")
          `Quick (test_route_accounting entry))
      instrumented_overlays
