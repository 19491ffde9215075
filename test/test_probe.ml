(* Tests for the probe plane: window queueing arithmetic, the window-1
   sequential-equivalence contract and the TTL'd RTT cache. *)

module Probe = Engine.Probe
module Metrics = Engine.Metrics
module Oracle = Topology.Oracle
module Ts = Topology.Transit_stub
module Landmarks = Landmark.Landmarks
module Rng = Prelude.Rng

let cfg ?(window = 1) ?(cache_ttl = 0.0) () = { Probe.window; cache_ttl }

(* Synthetic measurement function: deterministic per-pair RTT plus a log
   of every call, so tests can check order and count byte for byte. *)
let synthetic () =
  let log = ref [] in
  let measure src dst =
    log := (src, dst) :: !log;
    float_of_int (((src * 31) + (dst * 7)) mod 23 + 1)
  in
  (measure, fun () -> List.rev !log)

let ok = function Ok v -> v | Error _ -> Alcotest.fail "expected Ok"

let test_window1_matches_sequential () =
  let measure, calls = synthetic () in
  let p = Probe.create ~measure () in
  let dsts = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
  let b = Probe.run_batch p ~src:7 ~dsts in
  (* Reference: the seed behaviour — call the measurement function in a
     plain loop over the same destinations. *)
  let ref_measure, ref_calls = synthetic () in
  let expected = Array.map (fun d -> ref_measure 7 d) dsts in
  Alcotest.(check (array (float 0.0))) "same values in same order" expected b.Probe.results;
  Alcotest.(check (list (pair int int))) "same measurement call sequence" (ref_calls ())
    (calls ());
  Alcotest.(check (float 1e-9)) "window 1 prices the sum"
    (Array.fold_left ( +. ) 0.0 expected)
    (Probe.elapsed b)

let test_wide_window_prices_max () =
  let measure _ dst = float_of_int dst in
  let p = Probe.create ~config:(cfg ~window:10 ()) ~measure () in
  let b = Probe.run_batch p ~src:0 ~dsts:[| 10; 30; 20 |] in
  Alcotest.(check (array (float 0.0))) "results unchanged" [| 10.0; 30.0; 20.0 |] b.Probe.results;
  Alcotest.(check (float 1e-9)) "batch finishes at the max RTT" 30.0 (Probe.elapsed b)

let test_window2_queueing () =
  (* rtts 10,20,30 through 2 slots: d0 on slot a (ends 10), d1 on slot b
     (ends 20), d2 re-uses slot a at 10 and ends at 40. *)
  let measure _ dst = float_of_int dst in
  let p = Probe.create ~config:(cfg ~window:2 ()) ~measure () in
  let b = Probe.run_batch p ~src:0 ~dsts:[| 10; 20; 30 |] in
  Alcotest.(check (float 1e-9)) "exact queueing schedule" 40.0 (Probe.elapsed b)

let test_cache_hit_and_stale () =
  let now = ref 0.0 in
  let measure, calls = synthetic () in
  let p =
    Probe.create ~clock:(fun () -> !now) ~config:(cfg ~cache_ttl:1000.0 ()) ~measure ()
  in
  let first = ok (Probe.rtt p ~src:0 ~dst:1) in
  Alcotest.(check int) "one measurement" 1 (List.length (calls ()));
  now := 500.0;
  Alcotest.(check (float 0.0)) "hit serves the cached value" first
    (ok (Probe.rtt p ~src:0 ~dst:1));
  Alcotest.(check int) "hit does not re-measure" 1 (List.length (calls ()));
  Alcotest.(check int) "hit counted" 1 (Probe.cache_hits p);
  now := 5000.0;
  ignore (Probe.rtt p ~src:0 ~dst:1);
  Alcotest.(check int) "stale re-measures" 2 (List.length (calls ()));
  Alcotest.(check int) "stale counted" 1 (Probe.cache_stale p);
  Alcotest.(check int) "stale also counts as miss" 2 (Probe.cache_misses p);
  (* a cache hit costs no modelled time *)
  now := 5100.0;
  let before = Probe.total_elapsed p in
  ignore (Probe.rtt p ~src:0 ~dst:1);
  Alcotest.(check (float 0.0)) "hit is instant" before (Probe.total_elapsed p)

let test_cache_invalidate () =
  let measure, calls = synthetic () in
  let p = Probe.create ~config:(cfg ~cache_ttl:infinity ()) ~measure () in
  ignore (Probe.rtt p ~src:0 ~dst:1);
  ignore (Probe.rtt p ~src:2 ~dst:3);
  Probe.invalidate p 1;
  ignore (Probe.rtt p ~src:0 ~dst:1);
  ignore (Probe.rtt p ~src:2 ~dst:3);
  (* (0,1) re-measured after invalidation; (2,3) still served from cache *)
  Alcotest.(check (list (pair int int))) "only the invalidated pair re-measures"
    [ (0, 1); (2, 3); (0, 1) ]
    (calls ())

let qcheck_cache_equivalence =
  QCheck.Test.make ~name:"cached and uncached probers agree on every RTT" ~count:100
    QCheck.(pair (int_range 2 40) small_nat)
    (fun (pairs, salt) ->
      let gen = Rng.create (salt + 1) in
      let plan = List.init pairs (fun _ -> (Rng.int gen 8, Rng.int gen 8)) in
      let measure_a, _ = synthetic () in
      let measure_b, calls_b = synthetic () in
      let plain = Probe.create ~measure:measure_a () in
      let cached = Probe.create ~config:(cfg ~cache_ttl:1e12 ()) ~measure:measure_b () in
      let agree =
        List.for_all
          (fun (src, dst) -> Probe.rtt plain ~src ~dst = Probe.rtt cached ~src ~dst)
          plan
      in
      let distinct = List.length (List.sort_uniq compare plan) in
      agree
      && List.length (calls_b ()) = distinct
      && Probe.cache_hits cached = List.length plan - distinct)

(* [rtt] serves a fresh cache hit, and a miss, without building a
   batch; it must be indistinguishable from the one-probe batch.  Twin
   probers see the same (src, dst, clock) script, one through [rtt] and
   one through [run_batch ~dsts:[|dst|]], and must agree on everything
   observable: results, counts, modelled time, histogram samples,
   spans, measurement calls and clock reads.  Half the cases trace, so
   a miss's [Rtt_probe] span is compared too; TTLs of 0 never cache,
   and clock advances past short TTLs leave stale entries.

   Some steps submit a multi-destination batch to both instead, with
   duplicate destinations and destinations fresh in the cache, so the
   twins stay in step across mixed scripts. *)
let qcheck_rtt_is_one_probe_batch =
  let twin ~config ~traced now =
    let reads = ref 0 and calls = ref 0 in
    let metrics = Metrics.create () and trace = Engine.Trace.create () in
    let trace_opt = if traced then Some trace else None in
    let measure a b =
      incr calls;
      float_of_int ((((a * 31) + (b * 7)) mod 23) + 1)
    in
    let clock () =
      incr reads;
      !now
    in
    (Probe.create ~metrics ?trace:trace_opt ~clock ~config ~measure (), metrics, trace, reads, calls)
  in
  QCheck.Test.make ~name:"rtt = one-probe run_batch, cache hits included" ~count:150
    QCheck.(triple (int_range 0 10_000) (int_range 1 60) bool)
    (fun (seed, steps, traced) ->
      let rng = Rng.create seed in
      let ttls = [| 0.0; 0.0; 30.0; 200.0; infinity |] in
      let config =
        cfg ~window:(1 + Rng.int rng 3) ~cache_ttl:ttls.(Rng.int rng (Array.length ttls)) ()
      in
      let now = ref 0.0 in
      let a, ma, ta, reads_a, calls_a = twin ~config ~traced now in
      let b, mb, tb, reads_b, calls_b = twin ~config ~traced now in
      let same_state () =
        Probe.probes a = Probe.probes b
        && Probe.cache_hits a = Probe.cache_hits b
        && Probe.cache_misses a = Probe.cache_misses b
        && Probe.cache_stale a = Probe.cache_stale b
        && Int64.equal
             (Int64.bits_of_float (Probe.total_elapsed a))
             (Int64.bits_of_float (Probe.total_elapsed b))
        && !reads_a = !reads_b
        && !calls_a = !calls_b
      in
      let step () =
        (* advances cross the TTLs: none, within, past *)
        (now :=
           !now
           +.
           match Rng.int rng 4 with
           | 0 -> 0.0
           | 1 -> Rng.float rng 20.0
           | 2 -> 25.0 +. Rng.float rng 200.0
           | _ -> 30.0);
        if Rng.chance rng 0.05 then begin
          let node = Rng.int rng 5 in
          List.iter (fun p -> Probe.invalidate p node) [ a; b ]
        end;
        let src = Rng.int rng 5 in
        let batch p dsts = (Probe.run_batch p ~src ~dsts).Probe.results in
        let agree =
          if Rng.chance rng 0.3 then begin
            (* up to 14 destinations among 12: duplicates and repeats of
               earlier (cached) pairs *)
            let dsts = Array.init (2 + Rng.int rng 13) (fun _ -> Rng.int rng 12) in
            batch a dsts = batch b dsts
          end
          else begin
            let dst = Rng.int rng 5 in
            [| ok (Probe.rtt a ~src ~dst) |] = batch b [| dst |]
          end
        in
        agree && same_state ()
      in
      let samples m = Metrics.samples (Metrics.histogram m "probe_batch_ms") in
      let json m = Prelude.Json.to_string (Metrics.to_json m) in
      List.for_all (fun _ -> step ()) (List.init steps Fun.id)
      && samples ma = samples mb
      && json ma = json mb
      && Engine.Trace.spans ta = Engine.Trace.spans tb)

let test_config_validation () =
  let measure _ _ = 1.0 in
  Alcotest.check_raises "window" (Invalid_argument "Probe.create: window must be >= 1")
    (fun () -> ignore (Probe.create ~config:(cfg ~window:0 ()) ~measure ()));
  Alcotest.check_raises "cache_ttl" (Invalid_argument "Probe.create: cache_ttl must be >= 0")
    (fun () -> ignore (Probe.create ~config:(cfg ~cache_ttl:(-1.0) ()) ~measure ()))

let test_metrics_instruments () =
  let m = Metrics.create () in
  let p = Probe.create ~metrics:m ~config:(cfg ~window:2 ~cache_ttl:100.0 ()) ~measure:(fun _ d -> float_of_int d) () in
  ignore (Probe.run_batch p ~src:0 ~dsts:[| 1; 2; 1 |]);
  Alcotest.(check (list string)) "exactly the seven probe instruments"
    [
      "probe_batch_ms";
      "probe_cache_hits";
      "probe_cache_misses";
      "probe_cache_stale";
      "probe_measured";
      "probe_queue_wait";
      "probe_submitted";
    ]
    (List.map (fun (e : Metrics.snapshot_entry) -> e.name) (Metrics.snapshot m));
  let count name = Metrics.count (Metrics.counter m name) in
  Alcotest.(check int) "submitted" 3 (count "probe_submitted");
  Alcotest.(check int) "measured (third probe cached)" 2 (count "probe_measured");
  Alcotest.(check int) "cache hits" 1 (count "probe_cache_hits");
  Alcotest.(check int) "cache misses" 2 (count "probe_cache_misses");
  Alcotest.(check int) "batch histogram" 1
    (Metrics.observations (Metrics.histogram m "probe_batch_ms"))

(* Reference models for the direct landmark loops the probe plane
   replaced: a node's vector and the landmark-to-landmark matrix, each
   RTT measured with [Oracle.measure] in landmark order. *)
let reference_vector oracle lms node =
  Array.map (fun lm -> Oracle.measure oracle node lm) (Landmarks.nodes lms)

let reference_matrix oracle landmarks =
  Array.map
    (fun a -> Array.map (fun b -> if a = b then 0.0 else Oracle.measure oracle a b) landmarks)
    landmarks

let landmark_oracle =
  lazy
    (Oracle.build
       (Ts.generate (Rng.create 3)
          {
            Ts.transit_domains = 2;
            transit_nodes_per_domain = 2;
            stubs_per_transit_node = 2;
            stub_size = 6;
            extra_domain_edges = 1;
            extra_edge_fraction = 0.3;
            latency = Ts.Gtitm_random;
          }))

(* [f ()] and the oracle measurements it spent. *)
let spending oracle f =
  let before = Oracle.measurements oracle in
  let v = f () in
  (v, Oracle.measurements oracle - before)

(* The consumer-facing contract: a default-configured prober wired to the
   oracle measures a landmark vector exactly as the direct loop does,
   measurement count included. *)
let test_vector_via_equivalence () =
  let oracle = Lazy.force landmark_oracle in
  let lms = Landmarks.choose (Rng.create 4) oracle 5 in
  let p = Probe.create ~measure:(Oracle.measure oracle) () in
  let want, want_n = spending oracle (fun () -> reference_vector oracle lms 17) in
  let got, got_n = spending oracle (fun () -> Landmarks.vector_via lms p 17) in
  Alcotest.(check (array (float 0.0))) "identical vector" want got;
  Alcotest.(check int) "identical measurement count" want_n got_n

let qcheck_vector_via_matches_reference =
  QCheck.Test.make ~name:"vector_via on a default prober = the direct landmark loop" ~count:200
    QCheck.(triple (int_range 0 1_000_000) (int_range 1 12) (int_range 0 1_000))
    (fun (seed, l, node) ->
      let oracle = Lazy.force landmark_oracle in
      let node = node mod Oracle.node_count oracle in
      let lms = Landmarks.choose (Rng.create seed) oracle l in
      let p = Probe.create ~measure:(Oracle.measure oracle) () in
      let want = spending oracle (fun () -> reference_vector oracle lms node) in
      let got = spending oracle (fun () -> Landmarks.vector_via lms p node) in
      want = got)

(* The embedding's measured matrix is observed through the measurement
   function: every off-diagonal pair, row by row, with the reference's
   value; the fit itself does not depend on the prober's window. *)
let qcheck_embed_measures_reference_matrix =
  QCheck.Test.make ~name:"embed_landmarks measures the direct landmark matrix" ~count:20
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 8))
    (fun (seed, l) ->
      let oracle = Lazy.force landmark_oracle in
      let landmarks = Landmarks.nodes (Landmarks.choose (Rng.create seed) oracle l) in
      let want, want_n = spending oracle (fun () -> reference_matrix oracle landmarks) in
      let embed window =
        let log = ref [] in
        let measure a b =
          let d = Oracle.measure oracle a b in
          log := (a, b, d) :: !log;
          d
        in
        let p = Probe.create ~config:(cfg ~window ()) ~measure () in
        let t, n =
          spending oracle (fun () ->
              Landmark.Coordinates.embed_landmarks (Rng.create seed) p landmarks)
        in
        (t, n, List.rev !log)
      in
      let expected_log =
        List.concat
          (List.init l (fun i ->
               List.filter_map
                 (fun j ->
                   if j = i then None else Some (landmarks.(i), landmarks.(j), want.(i).(j)))
                 (List.init l Fun.id)))
      in
      let t1, n1, log1 = embed 1 and tl, _, _ = embed l in
      n1 = want_n && log1 = expected_log
      && t1.Landmark.Coordinates.landmark_coords = tl.Landmark.Coordinates.landmark_coords)

(* The cache packs a pair into one int: the largest ids stay distinct
   pairs, and ids it cannot pack are refused rather than aliased. *)
let test_cache_key_range () =
  let measure, calls = synthetic () in
  let p = Probe.create ~config:(cfg ~cache_ttl:infinity ()) ~measure () in
  let top = (1 lsl 31) - 1 in
  ignore (Probe.rtt p ~src:top ~dst:0);
  ignore (Probe.rtt p ~src:0 ~dst:top);
  ignore (Probe.rtt p ~src:top ~dst:0);
  Alcotest.(check (list (pair int int))) "two pairs, one hit" [ (top, 0); (0, top) ] (calls ());
  Probe.invalidate p top;
  ignore (Probe.rtt p ~src:0 ~dst:top);
  Alcotest.(check int) "invalidate drops the pair by either end" 3 (List.length (calls ()));
  let refused = Invalid_argument "Probe: node id outside [0, 2^31) in the RTT cache" in
  Alcotest.check_raises "negative src" refused (fun () -> ignore (Probe.rtt p ~src:(-1) ~dst:0));
  Alcotest.check_raises "dst of 2^31" refused (fun () ->
      ignore (Probe.run_batch p ~src:0 ~dsts:[| 1 lsl 31 |]));
  let uncached = Probe.create ~measure () in
  Alcotest.(check bool) "no cache, no range check" true
    (Result.is_ok (Probe.rtt uncached ~src:(-1) ~dst:(1 lsl 31)))

let suite =
  [
    Alcotest.test_case "window 1 = sequential loop" `Quick test_window1_matches_sequential;
    Alcotest.test_case "wide window prices the max" `Quick test_wide_window_prices_max;
    Alcotest.test_case "window 2 queueing schedule" `Quick test_window2_queueing;
    Alcotest.test_case "cache hit and stale" `Quick test_cache_hit_and_stale;
    Alcotest.test_case "cache invalidate" `Quick test_cache_invalidate;
    Alcotest.test_case "cache key range" `Quick test_cache_key_range;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "metrics instruments" `Quick test_metrics_instruments;
    Alcotest.test_case "vector_via = vector" `Quick test_vector_via_equivalence;
    QCheck_alcotest.to_alcotest qcheck_vector_via_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_embed_measures_reference_matrix;
    QCheck_alcotest.to_alcotest qcheck_cache_equivalence;
    QCheck_alcotest.to_alcotest qcheck_rtt_is_one_probe_batch;
  ]
