(* Tests for the observability layer: Engine.Metrics registry semantics,
   deterministic JSON output, the Engine.Trace ring buffer and the
   Engine.Route_obs route observer. *)

module Metrics = Engine.Metrics
module Trace = Engine.Trace
module Json = Prelude.Json
module Rng = Prelude.Rng

(* ---- registry semantics ---- *)

let test_interning () =
  let m = Metrics.create () in
  let c1 = Metrics.counter m ~labels:[ ("a", "1"); ("b", "2") ] "reqs" in
  let c2 = Metrics.counter m ~labels:[ ("b", "2"); ("a", "1") ] "reqs" in
  Metrics.incr c1;
  Metrics.incr c2;
  (* Label order is canonicalized: both handles are the same instrument. *)
  Alcotest.(check int) "same instrument" 2 (Metrics.count c1);
  Alcotest.(check int) "one registered" 1 (Metrics.size m);
  let c3 = Metrics.counter m ~labels:[ ("a", "1") ] "reqs" in
  Metrics.incr c3;
  Alcotest.(check int) "different labels, different counter" 1 (Metrics.count c3);
  Alcotest.(check int) "two registered" 2 (Metrics.size m)

let test_kind_mismatch () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.(check bool) "re-registering as a gauge raises" true
    (try
       ignore (Metrics.gauge m "x");
       false
     with Invalid_argument _ -> true)

let test_instruments () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.count c);
  let g = Metrics.gauge m "g" in
  Alcotest.(check (float 0.0)) "gauge starts 0" 0.0 (Metrics.value g);
  Metrics.set g 2.5;
  Metrics.set g 1.5;
  Alcotest.(check (float 0.0)) "gauge last write wins" 1.5 (Metrics.value g);
  let h = Metrics.histogram m "h" in
  List.iter (Metrics.observe h) [ 3.0; 1.0; 2.0 ];
  Alcotest.(check int) "observations" 3 (Metrics.observations h);
  Alcotest.(check (array (float 0.0))) "samples in order" [| 3.0; 1.0; 2.0 |]
    (Metrics.samples h);
  Alcotest.(check (float 1e-9)) "hmean" 2.0 (Metrics.hmean h);
  Alcotest.(check (float 1e-9)) "median" 2.0 (Metrics.quantile h 50.0)

let test_reset () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.reset m;
  Alcotest.(check int) "empty after reset" 0 (Metrics.size m);
  (* Re-interning after reset starts fresh. *)
  Alcotest.(check int) "fresh counter" 0 (Metrics.count (Metrics.counter m "c"))

(* ---- determinism ---- *)

(* A seeded workload recorded into two fresh registries must serialize to
   the same bytes — the property [bench --json] regression baselines rely
   on. *)
let seeded_fill seed m =
  let rng = Rng.create seed in
  for i = 0 to 199 do
    let labels = [ ("shard", string_of_int (i mod 3)) ] in
    Metrics.incr (Metrics.counter m ~labels "events");
    Metrics.set (Metrics.gauge m ~labels "level") (Rng.float rng 10.0);
    Metrics.observe (Metrics.histogram m ~labels "lat") (Rng.float rng 100.0)
  done

let test_same_seed_identical_json () =
  let m1 = Metrics.create () and m2 = Metrics.create () in
  seeded_fill 77 m1;
  seeded_fill 77 m2;
  Alcotest.(check string) "byte-identical"
    (Json.to_string (Metrics.to_json m1))
    (Json.to_string (Metrics.to_json m2))

let test_registration_order_irrelevant () =
  (* Snapshot order is (name, labels), not registration order. *)
  let m1 = Metrics.create () and m2 = Metrics.create () in
  Metrics.incr (Metrics.counter m1 ~labels:[ ("k", "a") ] "n");
  Metrics.incr (Metrics.counter m1 ~labels:[ ("k", "b") ] "n");
  Metrics.incr (Metrics.counter m2 ~labels:[ ("k", "b") ] "n");
  Metrics.incr (Metrics.counter m2 ~labels:[ ("k", "a") ] "n");
  Alcotest.(check string) "same serialization"
    (Json.to_string (Metrics.to_json m1))
    (Json.to_string (Metrics.to_json m2))

(* ---- JSON schema round-trip ---- *)

let test_json_roundtrip () =
  let m = Metrics.create () in
  seeded_fill 13 m;
  let s = Json.to_string (Metrics.to_json m) in
  match Json.of_string s with
  | Error e -> Alcotest.failf "registry JSON does not parse: %s" e
  | Ok parsed ->
    (* print (parse (print m)) = print m: the printer's floats survive the
       decimal round trip. *)
    Alcotest.(check string) "print/parse fixpoint" s (Json.to_string parsed);
    (match Json.member "schema" parsed with
    | Some (Json.String v) ->
      Alcotest.(check string) "schema version" Metrics.schema_version v
    | _ -> Alcotest.fail "missing schema field");
    let section name =
      match Option.bind (Json.member name parsed) Json.to_list_opt with
      | Some l -> l
      | None -> Alcotest.failf "missing %s section" name
    in
    Alcotest.(check int) "counters" 3 (List.length (section "counters"));
    Alcotest.(check int) "gauges" 3 (List.length (section "gauges"));
    Alcotest.(check int) "histograms" 3 (List.length (section "histograms"));
    match section "histograms" with
    | h :: _ ->
      Alcotest.(check bool) "histogram has p99" true (Json.member "p99" h <> None)
    | [] -> Alcotest.fail "no histograms"

(* ---- quantile bounds (qcheck) ---- *)

let qcheck_quantile_bounds =
  QCheck.Test.make ~name:"histogram quantiles lie within [min, max] and are monotone"
    ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0)) (0 -- 100))
    (fun (xs, p) ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "q" in
      List.iter (Metrics.observe h) xs;
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      let q = Metrics.quantile h (float_of_int p) in
      let s = Metrics.summarize_histogram h in
      q >= lo && q <= hi
      && s.Metrics.p50 <= s.Metrics.p90
      && s.Metrics.p90 <= s.Metrics.p95
      && s.Metrics.p95 <= s.Metrics.p99
      && s.Metrics.min <= s.Metrics.p50
      && s.Metrics.p99 <= s.Metrics.max)

(* ---- chunked histogram storage ---- *)

(* Around the chunk boundaries the histogram answers what the Stats
   functions compute from the list of observed values. *)
let test_histogram_chunks () =
  let c = Metrics.histogram_chunk in
  List.iter
    (fun n ->
      let rng = Rng.create n in
      let xs = Array.init n (fun _ -> Rng.float rng 1000.0) in
      let h = Metrics.histogram (Metrics.create ()) "chunked" in
      Array.iter (Metrics.observe h) xs;
      let name what = Printf.sprintf "%s after %d" what n in
      let same what a b = Alcotest.(check (float 0.0)) (name what) a b in
      Alcotest.(check (array (float 0.0))) (name "samples") xs (Metrics.samples h);
      Alcotest.(check int) (name "observations") n (Metrics.observations h);
      same "hmean" (Prelude.Stats.mean xs) (Metrics.hmean h);
      List.iter
        (fun p -> same "quantile" (Prelude.Stats.percentile xs p) (Metrics.quantile h p))
        [ 0.0; 37.5; 50.0; 99.0; 100.0 ];
      let s = Metrics.summarize_histogram h in
      Alcotest.(check int) (name "summary n") n s.Metrics.n;
      same "summary mean" (Prelude.Stats.mean xs) s.Metrics.mean;
      same "summary min" (if n = 0 then 0.0 else Array.fold_left Float.min xs.(0) xs) s.Metrics.min;
      same "summary max" (if n = 0 then 0.0 else Array.fold_left Float.max xs.(0) xs) s.Metrics.max;
      same "summary p50" (Prelude.Stats.percentile xs 50.0) s.Metrics.p50;
      same "summary p90" (Prelude.Stats.percentile xs 90.0) s.Metrics.p90;
      same "summary p95" (Prelude.Stats.percentile xs 95.0) s.Metrics.p95;
      same "summary p99" (Prelude.Stats.percentile xs 99.0) s.Metrics.p99)
    [ 0; 1; c - 1; c; c + 1; (3 * c) + 5 ]

(* ---- tracer ---- *)

let test_trace_basic () =
  let now = ref 0.0 in
  let t = Trace.create ~clock:(fun () -> !now) () in
  now := 5.0;
  Trace.emit t Trace.Route_hop ~node:1 ~peer:2;
  now := 9.0;
  Trace.emit t ~dur:3.0
    (Trace.Notify { change = Trace.Departed; entry = 7; region = [| 1; 0 |] })
    ~node:4;
  Alcotest.(check int) "emitted" 2 (Trace.emitted t);
  match Trace.spans t with
  | [ a; b ] ->
    Alcotest.(check (float 0.0)) "clock stamped" 5.0 a.Trace.at;
    Alcotest.(check int) "peer" 2 a.Trace.peer;
    Alcotest.(check int) "seq increments" 1 b.Trace.seq;
    Alcotest.(check (float 0.0)) "dur" 3.0 b.Trace.dur;
    (match b.Trace.kind with
    | Trace.Notify { change = Trace.Departed; entry; region } ->
      Alcotest.(check int) "entry" 7 entry;
      Alcotest.(check (array int)) "region" [| 1; 0 |] region
    | _ -> Alcotest.fail "expected a departure Notify payload")
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_trace_wraparound () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.emit t ~at:(float_of_int i) (Trace.Ttl_sweep { purged = i }) ~node:i
  done;
  Alcotest.(check int) "emitted" 10 (Trace.emitted t);
  Alcotest.(check int) "length capped" 4 (Trace.length t);
  Alcotest.(check int) "dropped" 6 (Trace.dropped t);
  let nodes = List.map (fun s -> s.Trace.node) (Trace.spans t) in
  let purged =
    List.map
      (fun s -> match s.Trace.kind with Trace.Ttl_sweep { purged } -> purged | _ -> -1)
      (Trace.spans t)
  in
  Alcotest.(check (list int)) "payloads travel with their spans" [ 6; 7; 8; 9 ] purged;
  (* Oldest spans were overwritten; the survivors are the last 4, in
     emission order. *)
  Alcotest.(check (list int)) "newest retained oldest-first" [ 6; 7; 8; 9 ] nodes;
  let seqs = List.map (fun s -> s.Trace.seq) (Trace.spans t) in
  Alcotest.(check (list int)) "seq never reused" [ 6; 7; 8; 9 ] seqs

let json_note j =
  Option.bind (Json.member "args" j) (fun a -> Option.bind (Json.member "note" a) Json.to_string_opt)

let test_trace_jsonl () =
  let t = Trace.create () in
  Trace.emit t ~at:1.5 ~dur:0.25 ~peer:7
    (Trace.Rtt_probe { Trace.queue_ms = 0.5; attempt = 2 })
    ~node:3;
  let lines = String.split_on_char '\n' (String.trim (Trace.to_jsonl t)) in
  Alcotest.(check int) "one line per span" 1 (List.length lines);
  match Json.of_string (List.hd lines) with
  | Error e -> Alcotest.failf "span line does not parse: %s" e
  | Ok j ->
    let str k = Option.bind (Json.member k j) Json.to_string_opt in
    let num k = Option.bind (Json.member k j) Json.to_float_opt in
    Alcotest.(check (option string)) "name" (Some "rtt_probe") (str "name");
    Alcotest.(check (option string)) "ph" (Some "X") (str "ph");
    (* Chrome trace events use microseconds; sim time is milliseconds. *)
    Alcotest.(check (option (float 1e-9))) "ts in us" (Some 1500.0) (num "ts");
    Alcotest.(check (option (float 1e-9))) "dur in us" (Some 250.0) (num "dur");
    Alcotest.(check (option (float 1e-9))) "tid is node" (Some 3.0) (num "tid");
    Alcotest.(check (option string)) "payload rendered as the note" (Some "q=0.5;try=2")
      (json_note j)

(* Reference model for the note renderer: every note format written out
   independently of [Trace].  Trace consumers and the byte-identity of
   [topoaware trace] dumps depend on these exact strings. *)
let ref_region bits =
  if Array.length bits = 0 then "root"
  else String.concat "" (List.map string_of_int (Array.to_list bits))

let ref_note = function
  | Trace.Route_hop -> ""
  | Trace.Rtt_probe { Trace.queue_ms; attempt } ->
    Printf.sprintf "q=%g;try=%d" queue_ms attempt
  | Trace.Map_publish { region } -> ref_region region
  | Trace.Notify { change; entry; region } ->
    let tag =
      match change with Trace.Published -> "pub" | Trace.Departed -> "dep" | Trace.Load_changed -> "load"
    in
    Printf.sprintf "%s:%d@%s" tag entry (ref_region region)
  | Trace.Ttl_sweep { purged } -> Printf.sprintf "%d purged" purged
  | Trace.Fault_inject Trace.Crash -> "crash"
  | Trace.Fault_inject Trace.Leave -> "leave"
  | Trace.Fault_inject Trace.Join -> "join"
  | Trace.Fault_inject (Trace.Expire f) -> Printf.sprintf "expire %.3f" f
  | Trace.Fault_inject Trace.Channel_drop -> "channel drop"
  | Trace.Cache_request { outcome; key } ->
    let tag = match outcome with Trace.Hit -> "hit" | Trace.Miss -> "miss" | Trace.Shed -> "shed" in
    Printf.sprintf "%s:%d" tag key
  | Trace.Cache_replicate { key } -> string_of_int key
  | Trace.Mcast_deliver { publish } -> Printf.sprintf "pub:%d" publish
  | Trace.Mcast_regraft { lost_parent } -> Printf.sprintf "dead:%d" lost_parent

let gen_kind =
  QCheck.Gen.(
    let id = int_range 0 100_000 in
    let region = map Array.of_list (list_size (int_range 0 12) (int_range 0 1)) in
    let ms = oneof [ map float_of_int (int_range 0 5000); float_range 0.0 1e6 ] in
    oneof
      [
        return Trace.Route_hop;
        map2 (fun queue_ms attempt -> Trace.Rtt_probe { Trace.queue_ms; attempt }) ms
          (int_range 1 5);
        map (fun region -> Trace.Map_publish { region }) region;
        map3
          (fun change entry region -> Trace.Notify { change; entry; region })
          (oneofl [ Trace.Published; Trace.Departed; Trace.Load_changed ])
          id region;
        map (fun purged -> Trace.Ttl_sweep { purged }) (int_range 0 10_000);
        map
          (fun f -> Trace.Fault_inject f)
          (oneof
             [
               oneofl [ Trace.Crash; Trace.Leave; Trace.Join; Trace.Channel_drop ];
               map (fun f -> Trace.Expire f) (float_range 0.0 1.0);
             ]);
        map2
          (fun outcome key -> Trace.Cache_request { outcome; key })
          (oneofl [ Trace.Hit; Trace.Miss; Trace.Shed ])
          id;
        map (fun key -> Trace.Cache_replicate { key }) id;
        map (fun publish -> Trace.Mcast_deliver { publish }) id;
        map (fun lost_parent -> Trace.Mcast_regraft { lost_parent }) id;
      ])

let qcheck_note_reference =
  QCheck.Test.make ~name:"span_json notes match the reference note formats" ~count:1000
    (QCheck.make ~print:(fun k -> Trace.kind_name k ^ " " ^ ref_note k) gen_kind)
    (fun kind ->
      let s = { Trace.seq = 0; at = 0.0; dur = 0.0; kind; node = 1; peer = 2 } in
      let expected = ref_note kind in
      json_note (Trace.span_json s) = if expected = "" then None else Some expected)

(* One literal line per kind pins the whole event shape, including the
   cache and multicast kinds [topoaware trace] never emits. *)
let test_trace_jsonl_literals () =
  let line ?(peer = 4) kind =
    Json.to_string
      (Trace.span_json { Trace.seq = 9; at = 2.5; dur = 0.125; kind; node = 3; peer })
  in
  let expect name note kind =
    let note = if note = "" then "" else Printf.sprintf {|,"note":"%s"|} note in
    Alcotest.(check string) name
      (Printf.sprintf
         {|{"name":"%s","cat":"topo","ph":"X","ts":2500.0,"dur":125.0,"pid":0,"tid":3,"args":{"seq":9,"peer":4%s}}|}
         name note)
      (line kind)
  in
  expect "route_hop" "" Trace.Route_hop;
  expect "rtt_probe" "q=12.75;try=3" (Trace.Rtt_probe { Trace.queue_ms = 12.75; attempt = 3 });
  expect "map_publish" "root" (Trace.Map_publish { region = [||] });
  expect "map_publish" "0110" (Trace.Map_publish { region = [| 0; 1; 1; 0 |] });
  expect "notify" "pub:42@01"
    (Trace.Notify { change = Trace.Published; entry = 42; region = [| 0; 1 |] });
  expect "notify" "dep:7@root"
    (Trace.Notify { change = Trace.Departed; entry = 7; region = [||] });
  expect "notify" "load:5@1"
    (Trace.Notify { change = Trace.Load_changed; entry = 5; region = [| 1 |] });
  expect "ttl_sweep" "3 purged" (Trace.Ttl_sweep { purged = 3 });
  expect "fault_inject" "crash" (Trace.Fault_inject Trace.Crash);
  expect "fault_inject" "leave" (Trace.Fault_inject Trace.Leave);
  expect "fault_inject" "join" (Trace.Fault_inject Trace.Join);
  expect "fault_inject" "expire 0.100" (Trace.Fault_inject (Trace.Expire 0.1));
  expect "fault_inject" "channel drop" (Trace.Fault_inject Trace.Channel_drop);
  expect "cache_request" "hit:11" (Trace.Cache_request { outcome = Trace.Hit; key = 11 });
  expect "cache_request" "miss:12"
    (Trace.Cache_request { outcome = Trace.Miss; key = 12 });
  expect "cache_request" "shed:13"
    (Trace.Cache_request { outcome = Trace.Shed; key = 13 });
  expect "cache_replicate" "14" (Trace.Cache_replicate { key = 14 });
  expect "mcast_deliver" "pub:2" (Trace.Mcast_deliver { publish = 2 });
  expect "mcast_regraft" "dead:8" (Trace.Mcast_regraft { lost_parent = 8 });
  Alcotest.(check string) "no peer, no note"
    {|{"name":"route_hop","cat":"topo","ph":"X","ts":2500.0,"dur":125.0,"pid":0,"tid":3,"args":{"seq":9}}|}
    (line ~peer:(-1) Trace.Route_hop)

(* ---- route observer ---- *)

let test_route_obs () =
  let m = Metrics.create () and t = Trace.create () in
  let obs = Engine.Route_obs.create (Some m) ~labels:[ ("k", "v") ] ~trace:(Some t) ~overlay:"x" in
  let path = Some [ 1; 2; 3 ] in
  Alcotest.(check bool) "result returned unchanged" true
    (Engine.Route_obs.observe obs path == path);
  ignore (Engine.Route_obs.observe obs None);
  ignore (Engine.Route_obs.observe obs (Some [ 4 ]));
  let labels = [ ("overlay", "x"); ("k", "v") ] in
  Alcotest.(check int) "requests" 3 (Metrics.count (Metrics.counter m ~labels "route_requests"));
  Alcotest.(check int) "failures" 1 (Metrics.count (Metrics.counter m ~labels "route_failures"));
  Alcotest.(check (array (float 0.0)))
    "hops per success" [| 2.0; 0.0 |]
    (Metrics.samples (Metrics.histogram m ~labels "route_hops"));
  Alcotest.(check int) "three instruments" 3 (Metrics.size m);
  Alcotest.(check (list (pair int int)))
    "one Route_hop span per forwarding step" [ (1, 2); (2, 3) ]
    (List.map (fun s -> (s.Trace.node, s.Trace.peer)) (Trace.spans t));
  (* without a registry: nothing recorded, the tracer ignored *)
  let t' = Trace.create () in
  let inert = Engine.Route_obs.create None ~labels:[] ~trace:(Some t') ~overlay:"x" in
  Alcotest.(check bool) "inert returns the result" true
    (Engine.Route_obs.observe inert path == path);
  Alcotest.(check int) "inert emits no span" 0 (Trace.emitted t')

let suite =
  [
    Alcotest.test_case "interning canonicalizes labels" `Quick test_interning;
    Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch;
    Alcotest.test_case "counter/gauge/histogram semantics" `Quick test_instruments;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "same seed, identical JSON" `Quick test_same_seed_identical_json;
    Alcotest.test_case "registration order irrelevant" `Quick test_registration_order_irrelevant;
    Alcotest.test_case "JSON schema round-trip" `Quick test_json_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_quantile_bounds;
    Alcotest.test_case "trace basics" `Quick test_trace_basic;
    Alcotest.test_case "trace ring wraparound" `Quick test_trace_wraparound;
    Alcotest.test_case "trace JSONL is Chrome-trace shaped" `Quick test_trace_jsonl;
    QCheck_alcotest.to_alcotest qcheck_note_reference;
    Alcotest.test_case "one literal JSONL line per span kind" `Quick test_trace_jsonl_literals;
    Alcotest.test_case "route observer accounting" `Quick test_route_obs;
    Alcotest.test_case "chunked histograms = Stats on the observed values" `Quick
      test_histogram_chunks;
  ]
