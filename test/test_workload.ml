(* Smoke tests: every registered experiment runs end-to-end at a small
   scale, produces a non-empty table and leaves its run's metrics
   registry non-empty (table2, which prints the parameters as text, has
   no instrument).  Catches regressions anywhere in the pipeline
   (topology, overlays, soft-state, measurement). *)

let smoke_scale = 32

let run_entry (e : Workload.Registry.entry) () =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let run = Workload.Run.create ~scale:smoke_scale in
  Workload.Registry.print e run ppf;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  Alcotest.(check bool)
    (Printf.sprintf "%s produced output" e.Workload.Registry.name)
    true
    (String.length out > 40);
  Alcotest.(check bool)
    (Printf.sprintf "%s output has a table" e.Workload.Registry.name)
    true
    (String.length out > 0
    && (String.index_opt out '=' <> None || String.index_opt out ':' <> None));
  Alcotest.(check bool)
    (Printf.sprintf "%s left its run's registry populated" e.Workload.Registry.name)
    true
    (e.Workload.Registry.name = "table2" || Engine.Metrics.size run.Workload.Run.metrics > 0)

let test_registry_lookup () =
  Alcotest.(check bool) "find fig10" true (Workload.Registry.find "fig10" <> None);
  Alcotest.(check bool) "find cache" true (Workload.Registry.find "cache" <> None);
  Alcotest.(check bool) "unknown id" true (Workload.Registry.find "nope" = None);
  Alcotest.(check bool) "enough experiments" true (List.length Workload.Registry.all >= 16)

let test_cache_experiment () =
  (* The cache experiment renders a populated table and records its
     per-backend gauges into the run's registry. *)
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let run = Workload.Run.create ~scale:smoke_scale in
  let metrics = run.Workload.Run.metrics in
  Workload.Tableout.render metrics ppf (Workload.Exp_cache.run run);
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "table lists every backend" true
    (contains "ecan aware" out && contains "ecan random" out && contains "can greedy" out
   && contains "chord" out && contains "pastry" out && contains "koorde" out);
  Alcotest.(check bool) "cache gauges registered" true (Engine.Metrics.size metrics > 0);
  let json = Prelude.Json.to_string (Engine.Metrics.to_json metrics) in
  Alcotest.(check bool) "headline comparison gauges present" true
    (contains "cache_random_over_aware_p99" json && contains "cache_repl_load_ratio" json)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_degree_experiment () =
  (* The degree sweep is registered, renders every (backend, k) cell at a
     real scale, and a rerun on a fresh run records the same registry. *)
  Alcotest.(check bool) "degree registered" true (Workload.Registry.find "degree" <> None);
  let render () =
    let buf = Buffer.create 1024 in
    let ppf = Format.formatter_of_buffer buf in
    let run = Workload.Run.create ~scale:2 in
    Workload.Tableout.render run.Workload.Run.metrics ppf (Workload.Exp_degree.run run);
    Format.pp_print_flush ppf ();
    (Buffer.contents buf, Prelude.Json.to_string (Engine.Metrics.to_json run.Workload.Run.metrics))
  in
  let out, json = render () in
  List.iter
    (fun b ->
      Alcotest.(check bool) (b ^ " row present") true (contains b out))
    [ "ecan"; "can"; "chord"; "pastry"; "koorde" ];
  Alcotest.(check bool) "degree gauges registered" true (contains "degree_stretch_aware" json);
  Alcotest.(check string) "a rerun records the same registry" json (snd (render ()));
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "headline gauge for k=%d present" k)
        true
        (contains (Printf.sprintf "degree_random_over_aware_k%d" k) json))
    [ 2; 4; 8; 16 ]

let render_to_string render =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  render ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_tableout () =
  let module T = Workload.Tableout in
  let t = T.create ~title:"t" ~columns:[ "a"; "bb" ] in
  T.add_row t [ T.text "1"; T.gauge ~labels:[ ("cell", "b") ] "tableout_test" T.cell_f 2.0 ];
  Alcotest.check_raises "cell count enforced"
    (Invalid_argument "Tableout.add_row: cell count mismatch") (fun () ->
      T.add_row t [ T.text "only one" ]);
  let out =
    render_to_string (fun ppf ->
        T.render (Engine.Metrics.create ()) ppf [ T.table t; T.line [ T.text "end" ] ])
  in
  Alcotest.(check string) "title, header, rule, row, line"
    "\n== t ==\n  a  bb   \n  -  -----\n  1  2.000\nend\n" out;
  Alcotest.(check string) "float cell" "1.500" (T.cell_f 1.5);
  Alcotest.(check string) "inf cell" "inf" (T.cell_f infinity);
  Alcotest.(check string) "nan cell" "-" (T.cell_f Float.nan);
  Alcotest.(check string) "nan fixed cell" "-" (T.fixed 0 Float.nan)

(* Two cells of one output that declare one instrument with different
   values cannot both be what the instrument holds, whether they sit in
   one table or in two blocks. *)
let test_conflicting_cells () =
  let module T = Workload.Tableout in
  let cell v = T.gauge ~labels:[ ("cell", "same") ] "tableout_test" T.cell_f v in
  let rejected blocks =
    let ppf = Format.formatter_of_buffer (Buffer.create 64) in
    match T.render (Engine.Metrics.create ()) ppf blocks with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  let t = T.create ~title:"t" ~columns:[ "v" ] in
  T.add_row t [ cell 1.0 ];
  T.add_row t [ cell 1.0 ];
  Alcotest.(check bool) "one value, declared twice, prints" false (rejected [ T.table t ]);
  T.add_row t [ cell 2.0 ];
  Alcotest.(check bool) "a second, different value in the table is rejected" true
    (rejected [ T.table t ]);
  Alcotest.(check bool) "a second, different value on a line is rejected" true
    (rejected [ T.line [ cell 1.0 ]; T.line [ cell 2.0 ] ])

(* Every registered experiment at the smoke scale, in registry order,
   each on a fresh run, twice in one process with nothing reset between:
   the second pass prints the bytes and records the snapshot of the
   first.  Then, as [bench --json] dumps them, the first pass's
   registries are merged, and each experiment's output, re-rendered from
   that union after a JSON round trip, is the bytes it printed.  A cell
   whose instrument another experiment wrote with another value, or that
   holds no instrument at all, fails here. *)
let test_tables_view_the_metrics () =
  let module Metrics = Engine.Metrics in
  let module T = Workload.Tableout in
  let json m = Prelude.Json.to_string (Metrics.to_json m) in
  let pass () =
    List.map
      (fun (e : Workload.Registry.entry) ->
        let run = Workload.Run.create ~scale:smoke_scale in
        let blocks = e.Workload.Registry.run run in
        let metrics = run.Workload.Run.metrics in
        let out = render_to_string (fun ppf -> T.render metrics ppf blocks) in
        (e.Workload.Registry.name, blocks, out, metrics))
      Workload.Registry.all
  in
  let first = pass () in
  List.iter2
    (fun (name, _, out, m) (_, _, again, m') ->
      Alcotest.(check string) (name ^ ": a second run prints the same") out again;
      Alcotest.(check string) (name ^ ": a second run records the same") (json m) (json m'))
    first (pass ());
  let union =
    match Metrics.union (List.map (fun (_, _, _, m) -> m) first) with
    | Ok u -> u
    | Error key -> Alcotest.fail ("two experiments recorded different values for " ^ key)
  in
  let snapshot =
    match Prelude.Json.of_string (json union) with Ok j -> j | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (name, blocks, out, _) ->
      Alcotest.(check string)
        (name ^ " re-rendered from the snapshot")
        out
        (render_to_string (fun ppf -> T.of_metrics snapshot ppf blocks)))
    first

let test_ctx_cache () =
  let o1 = Workload.Ctx.oracle ~scale:smoke_scale Workload.Ctx.Tsk_large Topology.Transit_stub.Manual in
  let o2 = Workload.Ctx.oracle ~scale:smoke_scale Workload.Ctx.Tsk_large Topology.Transit_stub.Manual in
  Alcotest.(check bool) "cached oracle is shared" true (o1 == o2);
  Alcotest.(check bool) "cached Waxman oracle is shared" true
    (Workload.Ctx.waxman ~scale:smoke_scale == Workload.Ctx.waxman ~scale:smoke_scale)

let test_nn_data_curves () =
  let ers, hybrid =
    Workload.Exp_nn.data (Workload.Run.create ~scale:smoke_scale) Workload.Ctx.Tsk_large
  in
  Alcotest.(check bool) "ers curve non-empty" true (Array.length ers > 0);
  Alcotest.(check bool) "hybrid curve non-empty" true (Array.length hybrid > 0);
  (* averages of best-so-far curves are monotone nonincreasing *)
  let monotone name c =
    for i = 1 to Array.length c - 1 do
      Alcotest.(check bool) (name ^ " monotone") true (c.(i) <= c.(i - 1) +. 1e-9)
    done
  in
  monotone "ers" ers;
  monotone "hybrid" hybrid;
  (* all stretches are >= 1 (found node can never beat the true nearest) *)
  Array.iter (fun v -> Alcotest.(check bool) "ers stretch >= 1" true (v >= 1.0 -. 1e-9)) ers;
  Array.iter (fun v -> Alcotest.(check bool) "hybrid stretch >= 1" true (v >= 1.0 -. 1e-9)) hybrid

(* ------------------------------------------------------------------ *)
(* Sweep against the loops it replaced                                *)
(* ------------------------------------------------------------------ *)

(* Test-local copies of the NN averages the experiments spelled out:
   every budget up to the last (the figures), one entry per listed
   budget (optim, coords), and listed budgets read from an every-budget
   array (waxman).  Each sums the curves in list order. *)
let ref_every_budget ~budget curves =
  let acc = Array.make budget 0.0 in
  List.iter
    (fun stretch ->
      let len = Array.length stretch in
      for i = 0 to budget - 1 do
        acc.(i) <- acc.(i) +. stretch.(min i (len - 1))
      done)
    curves;
  Array.map (fun v -> v /. float_of_int (List.length curves)) acc

let ref_listed_budgets ~budgets curves =
  let per_budget = Array.make (List.length budgets) 0.0 in
  List.iter
    (fun stretch ->
      let len = Array.length stretch in
      List.iteri
        (fun i b -> per_budget.(i) <- per_budget.(i) +. stretch.(min (b - 1) (len - 1)))
        budgets)
    curves;
  Array.map (fun v -> v /. float_of_int (List.length curves)) per_budget

let ref_read_back ~budgets curves =
  let max_budget = List.fold_left max 1 budgets in
  let sums = Array.make max_budget 0.0 in
  List.iter
    (fun stretch ->
      let len = Array.length stretch in
      for i = 0 to max_budget - 1 do
        sums.(i) <- sums.(i) +. stretch.(min i (len - 1))
      done)
    curves;
  let q = float_of_int (List.length curves) in
  Array.of_list (List.map (fun b -> sums.(b - 1) /. q) budgets)

let qcheck_nn_average =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 8) (array_size (int_range 1 12) (float_range 1.0 100.0)))
        (list_size (int_range 1 6) (int_range 1 15)))
  in
  QCheck.Test.make ~name:"Sweep.nn_average = the per-experiment loops it replaced" ~count:300
    (QCheck.make gen) (fun (curves, budgets) ->
      let budget = List.fold_left max 1 budgets in
      let same a b = compare a b = 0 in
      same
        (Workload.Sweep.nn_average ~budgets:(List.init budget succ) curves)
        (ref_every_budget ~budget curves)
      && same (Workload.Sweep.nn_average ~budgets curves) (ref_listed_budgets ~budgets curves)
      && same (Workload.Sweep.nn_average ~budgets curves) (ref_read_back ~budgets curves))

(* The route cell against what its callers did by hand: rebuild the
   tables under each strategy in turn, then measure.  Random_pick fills
   and hybrid fallbacks draw from the builder's rng, so equal end states
   mean the same draws in the same order. *)
let test_route_cell () =
  let module Builder = Core.Builder in
  let module Strategy = Core.Strategy in
  let module Measure = Core.Measure in
  let module Metrics = Engine.Metrics in
  let oracle =
    Workload.Ctx.oracle ~scale:smoke_scale Workload.Ctx.Tsk_large Topology.Transit_stub.Manual
  in
  let config =
    {
      Builder.default_config with
      Builder.overlay_size = 96;
      landmark_count = 6;
      strategy = Strategy.Random_pick;
      seed = 5;
    }
  in
  let swept = Builder.build oracle config and by_hand = Builder.build oracle config in
  let metrics = Metrics.create () in
  List.iteri
    (fun i fill ->
      let into =
        if i mod 2 = 0 then None
        else Some (Metrics.histogram metrics ~labels:[ ("cell", string_of_int i) ] "route_stretch")
      in
      let got = Workload.Sweep.route ?fill ?into ~pairs:64 swept in
      Option.iter (Builder.rebuild_tables by_hand) fill;
      let want = Measure.route_stretch ~pairs:64 by_hand in
      let cell = Printf.sprintf "cell %d" i in
      Alcotest.(check bool) (cell ^ ": same report") true (compare got want = 0);
      Alcotest.(check (float 0.0)) (cell ^ ": mean") want.Measure.stretch.Prelude.Stats.mean
        (Workload.Sweep.mean got);
      Option.iter
        (fun hist ->
          Alcotest.(check (array (float 0.0))) (cell ^ ": histogram holds every stretch")
            (Array.of_list (Measure.stretches want.Measure.samples))
            (Metrics.samples hist))
        into)
    [
      None;
      Some Strategy.Optimal;
      Some (Strategy.hybrid ~rtts:2 ());
      Some Strategy.Random_pick;
      Some (Strategy.hybrid ~rtts:5 ());
      None;
    ];
  Alcotest.(check bool) "builder rng end state" true
    (Prelude.Rng.bits64 swept.Builder.rng = Prelude.Rng.bits64 by_hand.Builder.rng)

(* [Backend.mix62] as it was written out before it shared
   [Rng.splitmix64]: cache and multicast homes hash keys with it, so it
   must not move by a bit. *)
let test_mix62_bits () =
  let mix62 k =
    let z = Int64.add (Int64.of_int k) 0x9E3779B97F4A7C15L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.shift_right_logical z 2)
  in
  List.iter
    (fun k -> Alcotest.(check int) (string_of_int k) (mix62 k) (Workload.Backend.mix62 k))
    (max_int :: min_int :: List.init 4096 (fun k -> k - 64))

let suite =
  Alcotest.test_case "nn data curves" `Quick test_nn_data_curves
  :: Alcotest.test_case "backend mix62 keeps its bits" `Quick test_mix62_bits
  :: Alcotest.test_case "registry lookup" `Quick test_registry_lookup
  :: Alcotest.test_case "cache experiment output & gauges" `Quick test_cache_experiment
  :: Alcotest.test_case "degree experiment output & gauges" `Quick test_degree_experiment
  :: Alcotest.test_case "table rendering" `Quick test_tableout
  :: Alcotest.test_case "one instrument, two values: rejected" `Quick test_conflicting_cells
  :: Alcotest.test_case "every table is a view of the metrics" `Slow test_tables_view_the_metrics
  :: Alcotest.test_case "context cache" `Quick test_ctx_cache
  :: Alcotest.test_case "route cell = rebuild then measure" `Quick test_route_cell
  :: QCheck_alcotest.to_alcotest qcheck_nn_average
  :: List.map
       (fun e ->
         Alcotest.test_case
           (Printf.sprintf "smoke: %s" e.Workload.Registry.name)
           `Slow (run_entry e))
       Workload.Registry.all
