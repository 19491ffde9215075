(* Unit and property tests for the prelude library: RNG, stats, heap. *)

module Rng = Prelude.Rng
module Stats = Prelude.Stats
module Heap = Prelude.Heap

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  let x = Rng.bits64 child and y = Rng.bits64 a in
  Alcotest.(check bool) "split stream differs from parent" true (x <> y)

let test_rng_int_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_uniform () =
  let rng = Rng.create 11 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let v = Rng.int rng 4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (frac > 0.23 && frac < 0.27))
    counts

let test_rng_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_int_in () =
  let rng = Rng.create 9 in
  for _ = 1 to 500 do
    let v = Rng.int_in rng (-3) 3 in
    Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3)
  done

let test_rng_sample_distinct () =
  let rng = Rng.create 13 in
  let arr = Array.init 20 (fun i -> i) in
  for _ = 1 to 100 do
    let s = Rng.sample rng 8 arr in
    Alcotest.(check int) "size" 8 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    for i = 1 to 7 do
      Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
    done
  done

let test_rng_sample_full () =
  let rng = Rng.create 13 in
  let arr = [| 1; 2; 3 |] in
  let s = Rng.sample rng 3 arr in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" arr sorted

let test_rng_shuffle_permutation () =
  let rng = Rng.create 17 in
  let arr = Array.init 50 (fun i -> i) in
  let shuffled = Array.copy arr in
  Rng.shuffle rng shuffled;
  let sorted = Array.copy shuffled in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" arr sorted

(* The first outputs of SplitMix64 seeded with 0 (Vigna's reference
   splitmix64.c), reached as the outputs from states 0, gamma, 2 gamma. *)
let test_rng_splitmix64 () =
  let gamma = 0x9E3779B97F4A7C15L in
  List.iteri
    (fun k expect ->
      Alcotest.(check int64)
        (Printf.sprintf "output %d" k)
        expect
        (Rng.splitmix64 (Int64.mul (Int64.of_int k) gamma)))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]

let test_rng_exponential () =
  let rng = Rng.create 19 in
  let acc = ref 0.0 in
  let n = 20_000 in
  for _ = 1 to n do
    let v = Rng.exponential rng 2.0 in
    Alcotest.(check bool) "positive" true (v >= 0.0);
    acc := !acc +. v
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let test_stats_mean_var () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "stddev" 2.0 (Stats.stddev xs);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Stats.mean [||])

let test_stats_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2.0 (Stats.percentile xs 25.0);
  (* the input must not be mutated *)
  Alcotest.(check (array (float 0.0))) "input untouched" [| 5.0; 1.0; 3.0; 2.0; 4.0 |] xs

let test_stats_percentile_edge_cases () =
  (* Empty: the summarize convention, 0, not an index error. *)
  Alcotest.(check (float 0.0)) "empty" 0.0 (Stats.percentile [||] 50.0);
  Alcotest.(check (float 0.0)) "empty p0" 0.0 (Stats.percentile [||] 0.0);
  Alcotest.(check (float 0.0)) "empty p100" 0.0 (Stats.percentile [||] 100.0);
  (* Singleton: every percentile is the single value. *)
  Alcotest.(check (float 0.0)) "singleton p0" 7.5 (Stats.percentile [| 7.5 |] 0.0);
  Alcotest.(check (float 0.0)) "singleton p50" 7.5 (Stats.percentile [| 7.5 |] 50.0);
  Alcotest.(check (float 0.0)) "singleton p100" 7.5 (Stats.percentile [| 7.5 |] 100.0);
  (* Out-of-range p raises, including NaN (which evades < comparisons). *)
  let rejects p =
    Alcotest.check_raises
      (Printf.sprintf "p=%f rejected" p)
      (Invalid_argument "Stats.percentile: p out of [0,100]")
      (fun () -> ignore (Stats.percentile [| 1.0; 2.0 |] p))
  in
  rejects (-0.001);
  rejects 100.001;
  rejects Float.nan

let test_stats_summary () =
  let s = Stats.summarize (Array.init 101 (fun i -> float_of_int i)) in
  Alcotest.(check int) "count" 101 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 50.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "p50" 50.0 s.Stats.p50;
  Alcotest.(check (float 1e-9)) "p90" 90.0 s.Stats.p90;
  Alcotest.(check (float 1e-9)) "min" 0.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 100.0 s.Stats.max

let test_stats_online_matches_batch () =
  let rng = Rng.create 23 in
  let xs = Array.init 500 (fun _ -> Rng.float rng 10.0) in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  Alcotest.(check (float 1e-9)) "online mean" (Stats.mean xs) (Stats.Online.mean o);
  Alcotest.(check (float 1e-6)) "online var" (Stats.variance xs) (Stats.Online.variance o)

(* A heap of (priority, value) pairs ordered by priority alone. *)
let by_prio (p, _) (q, _) = p < q

let test_heap_ordering () =
  let h = Heap.create ~before:by_prio ~dummy:(nan, -1) () in
  let rng = Rng.create 29 in
  let n = 1000 in
  for i = 0 to n - 1 do
    Heap.push h (Rng.float rng 100.0, i)
  done;
  Alcotest.(check int) "length" n (Heap.length h);
  let last = ref neg_infinity in
  for _ = 1 to n do
    match Heap.pop h with
    | None -> Alcotest.fail "premature empty"
    | Some (p, _) ->
      Alcotest.(check bool) "nondecreasing" true (p >= !last);
      last := p
  done;
  Alcotest.(check bool) "empty at end" true (Heap.is_empty h)

let test_heap_peek () =
  let h = Heap.create ~before:by_prio ~dummy:(nan, "") () in
  Alcotest.(check bool) "empty peek" true (Heap.peek h = None);
  Heap.push h (2.0, "b");
  Heap.push h (1.0, "a");
  (match Heap.peek h with
  | Some (p, v) ->
    Alcotest.(check (float 0.0)) "peek prio" 1.0 p;
    Alcotest.(check string) "peek value" "a" v
  | None -> Alcotest.fail "peek on non-empty");
  Alcotest.(check int) "peek does not pop" 2 (Heap.length h)

(* A popped element is unreachable from the heap: after [k] of [n]
   boxed elements are popped and a full major collection, exactly the
   popped ones are gone from a weak array that saw every push. *)
let test_heap_releases_popped () =
  let n = 1000 and k = 700 in
  let h = Heap.create ~before:(fun a b -> !a < !b) ~dummy:(ref (-1)) () in
  let seen = Weak.create n in
  let push_all () =
    for i = n - 1 downto 0 do
      let x = ref i in
      Weak.set seen i (Some x);
      Heap.push h x
    done
  in
  push_all ();
  for _ = 1 to k do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "element %d reachable" i) (i >= k) (Weak.check seen i)
  done;
  Alcotest.(check int) "live elements" (n - k) (Heap.length h)

let qcheck_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.0) small_int))
    (fun entries ->
      let h = Heap.create ~before:by_prio ~dummy:(nan, -1) () in
      List.iter (Heap.push h) entries;
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some (p, _) -> drain (p :: acc) in
      let popped = drain [] in
      let sorted = List.sort compare (List.map fst entries) in
      popped = sorted)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int uniformity" `Quick test_rng_int_uniform;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng int_in" `Quick test_rng_int_in;
    Alcotest.test_case "rng sample distinct" `Quick test_rng_sample_distinct;
    Alcotest.test_case "rng sample full population" `Quick test_rng_sample_full;
    Alcotest.test_case "rng shuffle is a permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential;
    Alcotest.test_case "rng splitmix64 reference outputs" `Quick test_rng_splitmix64;
    Alcotest.test_case "stats mean/var" `Quick test_stats_mean_var;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats percentile edge cases" `Quick test_stats_percentile_edge_cases;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats online = batch" `Quick test_stats_online_matches_batch;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap peek" `Quick test_heap_peek;
    QCheck_alcotest.to_alcotest qcheck_heap_sorts;
    Alcotest.test_case "heap releases popped elements" `Quick test_heap_releases_popped;
  ]
