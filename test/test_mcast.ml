(* Engine.Mcast + Workload.Exp_mcast: tree invariants under seeded churn
   storms, placement/relay semantics on a toy line network, regraft
   latency through the trace analyzer, and the experiment's determinism
   contract (same-seed byte-identical metrics). *)

module Mcast = Engine.Mcast
module Trace = Engine.Trace
module Repair = Engine.Repair
module Metrics = Engine.Metrics
module Rng = Prelude.Rng
module Json = Prelude.Json

(* ------------------------------------------------------------------ *)
(* Toy line backend                                                    *)
(* ------------------------------------------------------------------ *)

(* [n] nodes on a line, latency 10 ms per unit; [gone] nodes have left.
   Routes walk the line (through gone nodes — the line is the physical
   path, membership is an overlay property), candidates are the nearest
   live members. *)
let line_backend ?(gone = fun _ -> false) ?(candidates = 4) n =
  let member i = i >= 0 && i < n && not (gone i) in
  {
    Mcast.name = "line";
    member;
    route_to =
      (fun ~src ~dst ->
        if not (member dst) then None
        else begin
          let step = if dst >= src then 1 else -1 in
          let rec go acc u =
            if u = dst then List.rev (u :: acc) else go (u :: acc) (u + step)
          in
          Some (go [] src)
        end);
    candidates =
      (fun ~node ~exclude ->
        List.init n (fun c -> c)
        |> List.filter (fun c -> member c && c <> node && not (List.mem c exclude))
        |> List.map (fun c -> (abs (c - node), c))
        |> List.sort compare
        |> List.filteri (fun i _ -> i < candidates)
        |> List.map snd);
    publish_load = (fun ~node:_ ~load:_ -> ());
  }

let link u v = 10.0 *. Float.abs (float_of_int (u - v))

(* ------------------------------------------------------------------ *)
(* Validation and basic placement                                      *)
(* ------------------------------------------------------------------ *)

let test_validation () =
  let backend = line_backend 8 in
  Alcotest.check_raises "degree < 1" (Invalid_argument "Mcast.create: degree must be >= 1")
    (fun () ->
      ignore
        (Mcast.create
           ~config:{ Mcast.default_config with Mcast.degree = 0 }
           ~link ~root:0 backend));
  Alcotest.check_raises "root not a member"
    (Invalid_argument "Mcast.create: root is not a member") (fun () ->
      ignore (Mcast.create ~link ~root:99 backend));
  let t = Mcast.create ~link ~root:0 backend in
  Alcotest.check_raises "subscribe non-member"
    (Invalid_argument "Mcast.subscribe: not a member") (fun () -> Mcast.subscribe t 99);
  Mcast.subscribe t 3;
  Alcotest.check_raises "double subscribe"
    (Invalid_argument "Mcast.subscribe: already subscribed") (fun () -> Mcast.subscribe t 3);
  Alcotest.check_raises "drop the root"
    (Invalid_argument "Mcast.drop_member: cannot drop the root") (fun () ->
      ignore (Mcast.drop_member t 0));
  Alcotest.check_raises "regraft a non-orphan"
    (Invalid_argument "Mcast.regraft: not an orphan") (fun () -> Mcast.regraft t 3);
  Alcotest.(check bool) "drop of an absent node is a no-op" false (Mcast.drop_member t 5)

let test_aware_places_near () =
  (* Root at 0; the first subscriber lands under the root, and a far
     subscriber prefers the in-tree node nearest to it once the tree
     offers a closer spare than the root. *)
  let backend = line_backend ~candidates:0 8 in
  let t =
    Mcast.create ~config:{ Mcast.default_config with Mcast.degree = 2 } ~link ~root:0 backend
  in
  Mcast.subscribe t 1;
  Alcotest.(check (option int)) "first under the root" (Some 0) (Mcast.parent_of t 1);
  Mcast.subscribe t 7;
  Alcotest.(check (option int)) "far node under its nearest spare" (Some 1)
    (Mcast.parent_of t 7);
  Mcast.subscribe t 6;
  Alcotest.(check (option int)) "joins the closest subtree" (Some 7) (Mcast.parent_of t 6);
  Alcotest.(check bool) "invariants hold" true (Mcast.check_invariants t = Ok ());
  Alcotest.(check int) "no relays without candidates" 0 (Mcast.relays_recruited t)

let test_relay_recruitment () =
  (* With map candidates enabled, subscribing 7 while the tree only has
     0 and 1 recruits a strictly closer out-of-tree relay (6) instead of
     a direct long edge. *)
  let backend = line_backend 8 in
  let t =
    Mcast.create ~config:{ Mcast.default_config with Mcast.degree = 2 } ~link ~root:0 backend
  in
  Mcast.subscribe t 1;
  Mcast.subscribe t 7;
  Alcotest.(check bool) "a relay was recruited" true (Mcast.relays_recruited t >= 1);
  let relays = Mcast.relays t in
  Alcotest.(check bool) "relay is interior, not a subscriber" true
    (List.for_all (fun r -> not (List.mem r (Mcast.subscribers t))) relays);
  (match Mcast.parent_of t 7 with
  | Some p -> Alcotest.(check bool) "7 hangs under the relay" true (List.mem p relays)
  | None -> Alcotest.fail "7 has no parent");
  Alcotest.(check bool) "invariants hold" true (Mcast.check_invariants t = Ok ());
  (* The relay later joins the group: promoted in place, not re-attached. *)
  let members_before = Mcast.members t in
  List.iter (fun r -> Mcast.subscribe t r) relays;
  Alcotest.(check (list int)) "promotion adds no vertex" members_before (Mcast.members t);
  Alcotest.(check bool) "promoted relays are subscribers now" true
    (List.for_all (fun r -> List.mem r (Mcast.subscribers t)) relays)

let test_random_policy_respects_degree () =
  let backend = line_backend ~candidates:0 32 in
  let t =
    Mcast.create
      ~config:{ Mcast.degree = 2; policy = Mcast.Random; seed = 9 }
      ~link ~root:0 backend
  in
  for i = 1 to 31 do
    Mcast.subscribe t i
  done;
  Alcotest.(check bool) "invariants (degree bound) hold" true
    (Mcast.check_invariants t = Ok ());
  Alcotest.(check int) "no relays under the random policy" 0 (Mcast.relays_recruited t);
  let d = Mcast.publish t in
  Alcotest.(check int) "everyone delivered" 31 (List.length d.Mcast.delivered)

(* ------------------------------------------------------------------ *)
(* Drop, orphanhood, regraft, and the trace/analyzer loop              *)
(* ------------------------------------------------------------------ *)

let test_drop_regraft_latency () =
  let now = ref 0.0 in
  let tracer = Trace.create ~capacity:1024 ~clock:(fun () -> !now) () in
  let gone = Hashtbl.create 4 in
  let backend = line_backend ~gone:(Hashtbl.mem gone) 10 in
  let t =
    Mcast.create ~trace:tracer
      ~clock:(fun () -> !now)
      ~config:{ Mcast.default_config with Mcast.degree = 2 }
      ~link ~root:0 backend
  in
  List.iter (Mcast.subscribe t) [ 1; 2; 3; 4 ];
  (* Find an interior subscriber with children; drop it at t=100. *)
  let victim =
    match List.find_opt (fun n -> Mcast.children t n <> []) (Mcast.subscribers t) with
    | Some v -> v
    | None -> Alcotest.fail "expected an interior subscriber"
  in
  let expected_orphans = Mcast.children t victim in
  now := 100.0;
  (* The victim crashed: record the fault the analyzer will attribute. *)
  Trace.emit tracer (Trace.Fault_inject Trace.Crash) ~node:victim;
  Hashtbl.replace gone victim ();
  Alcotest.(check bool) "drop detaches" true (Mcast.drop_member t victim);
  Alcotest.(check (list int)) "children orphaned" expected_orphans (Mcast.orphans t);
  let d = Mcast.publish t in
  Alcotest.(check bool) "orphan subtree missed while detached" true
    (List.for_all
       (fun o -> List.mem o d.Mcast.missed || not (List.mem o (Mcast.subscribers t)))
       expected_orphans);
  now := 450.0;
  List.iter (Mcast.regraft t) (Mcast.orphans t);
  Alcotest.(check (list int)) "no orphans left" [] (Mcast.orphans t);
  Alcotest.(check bool) "invariants after regraft" true (Mcast.check_invariants t = Ok ());
  let d2 = Mcast.publish t in
  Alcotest.(check int) "full delivery after regraft" (List.length (Mcast.subscribers t))
    (List.length d2.Mcast.delivered);
  (* The regraft spans carry the dead parent and the orphanhood duration,
     and the analyzer attributes them to the crash. *)
  let spans = Trace.spans tracer in
  let regraft_spans =
    List.filter_map
      (fun s ->
        match s.Trace.kind with
        | Trace.Mcast_regraft { lost_parent } -> Some (lost_parent, s.Trace.dur)
        | _ -> None)
      spans
  in
  Alcotest.(check int) "one span per orphan" (List.length expected_orphans)
    (List.length regraft_spans);
  List.iter
    (fun (lost_parent, dur) ->
      Alcotest.(check int) "lost parent" victim lost_parent;
      Alcotest.(check (float 1e-9)) "orphanhood duration" 350.0 dur)
    regraft_spans;
  let report = Repair.analyze spans in
  Alcotest.(check int) "analyzer found the regrafts"
    (List.length expected_orphans)
    report.Repair.regraft.Repair.n;
  Alcotest.(check (float 1e-9)) "regraft p50 is the orphanhood" 350.0
    report.Repair.regraft.Repair.p50

(* ------------------------------------------------------------------ *)
(* qcheck: invariants across seeded churn storms                       *)
(* ------------------------------------------------------------------ *)

let seed_gen = QCheck.int_range 0 100_000

(* A random walk of subscribe / drop / regraft / publish on the line:
   after every operation the tree is connected, degree-bounded and
   acyclic, and every publish partitions the subscribers into delivered
   and missed. *)
let qcheck_invariants_under_churn =
  QCheck.Test.make ~name:"mcast: invariants survive seeded churn storms" ~count:60
    QCheck.(triple seed_gen (int_range 1 4) (bool))
    (fun (seed, degree, random_policy) ->
      let n = 24 in
      let rng = Rng.create (seed + 13) in
      let now = ref 0.0 in
      let gone = Hashtbl.create 8 in
      let backend = line_backend ~gone:(Hashtbl.mem gone) n in
      let policy = if random_policy then Mcast.Random else Mcast.Aware in
      let t =
        Mcast.create
          ~clock:(fun () -> !now)
          ~config:{ Mcast.degree; policy; seed }
          ~link ~root:0 backend
      in
      let ok = ref true in
      let check () =
        (match Mcast.check_invariants t with Ok () -> () | Error _ -> ok := false);
        let d = Mcast.publish t in
        let subs = Mcast.subscribers t in
        let delivered = List.map (fun (s, _, _) -> s) d.Mcast.delivered in
        let covered = List.sort compare (delivered @ d.Mcast.missed) in
        if covered <> subs then ok := false;
        if d.Mcast.traversals < d.Mcast.link_count then ok := false;
        if d.Mcast.cost_ms < 0.0 then ok := false
      in
      for _ = 1 to 60 do
        now := !now +. 10.0;
        let members = Mcast.members t in
        let orphans = Mcast.orphans t in
        let roll = Rng.int rng 100 in
        if roll < 45 then begin
          (* subscribe a live node that is not yet subscribed *)
          let fresh =
            List.init n (fun i -> i)
            |> List.filter (fun i ->
                   i <> 0
                   && (not (Hashtbl.mem gone i))
                   && not (List.mem i (Mcast.subscribers t)))
          in
          match fresh with
          | [] -> ()
          | l -> Mcast.subscribe t (Rng.pick rng (Array.of_list l))
        end
        else if roll < 70 then begin
          (* drop a random non-root tree member *)
          match List.filter (fun m -> m <> 0) members with
          | [] -> ()
          | l ->
            let v = Rng.pick rng (Array.of_list l) in
            Hashtbl.replace gone v ();
            ignore (Mcast.drop_member t v)
        end
        else if roll < 90 then begin
          match orphans with
          | [] -> ()
          | l -> Mcast.regraft t (Rng.pick rng (Array.of_list l))
        end
        else check ()
      done;
      (* Drain: every orphan can always re-graft (spare capacity never
         runs out for degree >= 1), ending with a fully connected tree. *)
      let rec drain () =
        match Mcast.orphans t with
        | [] -> ()
        | o :: _ ->
          Mcast.regraft t o;
          drain ()
      in
      drain ();
      check ();
      !ok && Mcast.orphans t = [] && Mcast.check_invariants t = Ok ())

let qcheck_same_seed_same_tree =
  QCheck.Test.make ~name:"mcast: equal seeds build identical random trees" ~count:40
    seed_gen
    (fun seed ->
      let build () =
        let backend = line_backend ~candidates:0 16 in
        let t =
          Mcast.create
            ~config:{ Mcast.degree = 2; policy = Mcast.Random; seed }
            ~link ~root:0 backend
        in
        for i = 1 to 15 do
          Mcast.subscribe t i
        done;
        List.map (fun m -> (m, Mcast.parent_of t m)) (Mcast.members t)
      in
      build () = build ())

(* ------------------------------------------------------------------ *)
(* Experiment-level determinism (DESIGN section 12)                    *)
(* ------------------------------------------------------------------ *)

let exp_scale = 32

let test_exp_mcast_ordering () =
  match Workload.Exp_mcast.data ~scale:exp_scale ~metrics:(Metrics.create ()) () with
  | aware :: random :: _ ->
    let open Workload.Exp_mcast in
    Alcotest.(check string) "row order" "ecan aware" aware.label;
    Alcotest.(check string) "row order" "ecan random" random.label;
    Alcotest.(check bool) "equal static delivery counts" true
      (aware.static_delivered = random.static_delivered);
    (* p50 latency is noisy at this tiny scale (few dozen samples); the
       tail, the stretch and the aggregate network cost are the orderings
       the placement policy actually guarantees. *)
    let pct a p = Prelude.Stats.percentile a p in
    Alcotest.(check bool) "aware p99 <= random p99" true
      (pct aware.static_lat 99.0 <= pct random.static_lat 99.0);
    Alcotest.(check bool) "aware stretch p50 <= random stretch p50" true
      (pct aware.static_stretch 50.0 <= pct random.static_stretch 50.0);
    Alcotest.(check bool) "aware network cost <= random network cost" true
      (aware.static_cost_ms <= random.static_cost_ms);
    Alcotest.(check bool) "churn repaired something somewhere" true
      (aware.regrafts + random.regrafts > 0)
  | _ -> Alcotest.fail "exp_mcast: expected the ecan pair first"

let test_exp_mcast_metrics_deterministic () =
  let dump () =
    let metrics = Metrics.create () in
    let stats = Workload.Exp_mcast.data ~scale:exp_scale ~metrics () in
    (stats, Json.to_string (Metrics.to_json metrics))
  in
  let stats1, json1 = dump () in
  let stats2, json2 = dump () in
  Alcotest.(check bool) "stats identical" true (stats1 = stats2);
  Alcotest.(check string) "metrics registry byte-identical" json1 json2;
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mcast instruments registered" true
    (contains "mcast_delivered" json1
    && contains "mcast_delivery_ms" json1
    && contains "mcast_link_stress" json1
    && contains "mcast_regrafts" json1)

let suite =
  [
    Alcotest.test_case "create/subscribe/drop/regraft validation" `Quick test_validation;
    Alcotest.test_case "aware placement follows proximity" `Quick test_aware_places_near;
    Alcotest.test_case "map candidates recruit relays" `Quick test_relay_recruitment;
    Alcotest.test_case "random policy holds the degree bound" `Quick
      test_random_policy_respects_degree;
    Alcotest.test_case "drop/regraft latency reaches the analyzer" `Quick
      test_drop_regraft_latency;
    QCheck_alcotest.to_alcotest qcheck_invariants_under_churn;
    QCheck_alcotest.to_alcotest qcheck_same_seed_same_tree;
    Alcotest.test_case "exp: aware beats random at equal delivery" `Slow
      test_exp_mcast_ordering;
    Alcotest.test_case "exp: metrics byte-identical across same-seed runs" `Slow
      test_exp_mcast_metrics_deterministic;
  ]
