(* Wall-clock benchmark of the overlay stack, timed from outside the
   libraries.  See README.md in this directory.

   Usage:
     perf.exe --workload build|cache|churn [--seed N] [--seconds S] [--trace 0|1]
              [--trace-file FILE]
     perf.exe --smoke [--bench BENCHMARK.json]
     perf.exe compare DIR_A DIR_B [--bench BENCHMARK.json]

   A plain run (--trace 0) sets up, runs warm-up reps, then timed reps in
   whole cycles through the workload's variants until about S seconds of
   reps have been measured, and prints the end-to-end metrics.  A traced
   run (--trace 1) spends half the budget on plain reps and half on reps
   with every layer call wrapped in a span, and prints the per-layer
   metrics.  Either way the last line of standard output is
   one JSON object, and the exit code is 1 when an output check failed. *)

module Stats = Prelude.Stats

let workloads =
  [ ("build", Work_build.make); ("cache", Work_cache.make); ("churn", Work_churn.make) ]

let median xs = Stats.percentile (Array.of_list xs) 50.0

(* Units follow from the metric names, so the program and BENCHMARK.json
   can only agree by naming metrics the same way. *)
let unit_of name =
  let ends suffix = String.ends_with ~suffix name in
  if name = "ops_per_s" then "op/s"
  else if ends "_us_p50" || ends "_us_p99" then "us"
  else if ends "_s" then "s"
  else if ends "_mb" then "MB"
  else if ends "_frac" || ends "_ratio" || ends "_yield" then "ratio"
  else if ends "_words_per_call" then "words"
  else if ends "_per_op" then "words/op"
  else if ends "_hops_mean" then "hops"
  else "count"

let peak_rss_mb () =
  let from_proc =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | text ->
      List.find_map
        (fun line ->
          Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
        (String.split_on_char '\n' text)
    | exception Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type result = { metrics : (string * float) list; attempted : int; failed : int }

let run_workload ~size ~name ~seed ~seconds ~trace ~print =
  Harness.workload := name;
  let inst = (List.assoc name workloads) ~size ~seed ~tracing:trace in
  let variants = inst.Harness.variants in
  let say fmt = Printf.ksprintf (fun s -> if print then print_endline s) fmt in
  (* Every rep of a variant must reproduce that variant's first outputs. *)
  let reference = Array.make variants None and attempted = ref 0 and failed = ref 0 in
  let rep ~variant ~traced ~counted =
    let r = inst.Harness.rep ~variant ~traced in
    (match reference.(variant) with
    | None -> reference.(variant) <- Some r.Harness.outputs
    | Some o when o = r.Harness.outputs -> ()
    | Some _ ->
      Harness.fail
        (if traced then "traced outputs differ from the plain reps'"
         else "simulated outputs differ between reps"));
    if counted then begin
      attempted := !attempted + r.Harness.attempted;
      failed := !failed + r.Harness.failed
    end;
    r.Harness.cost
  in
  if size = Harness.Full then
    for _ = 1 to inst.Harness.warmups do
      ignore (rep ~variant:0 ~traced:false ~counted:false)
    done;
  (* Timed reps in whole cycles through the variants, as many cycles as
     bring the measured wall time nearest to [budget].  The runtime never
     returns freed heap, so the high-water mark creeps up with the rep
     count; it is read once the first cycle is done, which makes it
     independent of how many reps the machine's speed allows. *)
  let rss = ref None in
  let phase ~traced ~budget ~min_reps =
    let rec go costs n spent =
      let boundary = n >= min_reps && n mod variants = 0 in
      if boundary && !rss = None then rss := Some (peak_rss_mb ());
      let cycle = spent /. float_of_int (max 1 (n / variants)) in
      if boundary && spent >= budget -. (cycle /. 2.0) then List.rev costs
      else begin
        let c = rep ~variant:(n mod variants) ~traced ~counted:true in
        let wall = float_of_int c.Harness.ns /. 1e9 in
        say "rep %d%s, variant %d: %.6f s wall, reference kernel %.6f s, %.6f s calibrated, \
             %.0f minor words"
          (n + 1)
          (if traced then " (traced)" else "")
          (n mod variants) wall
          (float_of_int c.Harness.ref_ns /. 1e9)
          (Harness.calibrated_s c) c.Harness.minor_words;
        go (c :: costs) (n + 1) (spent +. wall)
      end
    in
    go [] 0 0.0
  in
  let ops_per_s costs =
    float_of_int inst.Harness.ops_per_rep /. median (List.map Harness.calibrated_s costs)
  in
  let min_reps = if size = Harness.Full then 3 else 1 in
  let metrics =
    if not trace then begin
      let costs = phase ~traced:false ~budget:seconds ~min_reps in
      [
        ("setup_s", median (inst.Harness.setup_s ()));
        ("ops_per_s", ops_per_s costs);
        ("peak_rss_mb", Option.get !rss);
      ]
    end
    else begin
      let plain = phase ~traced:false ~budget:(seconds /. 2.0) ~min_reps:1 in
      let traced = phase ~traced:true ~budget:(seconds /. 2.0) ~min_reps:1 in
      Harness.layer_metrics ~plain ~traced ~plain_ops_per_s:(ops_per_s plain)
        ~traced_ops_per_s:(ops_per_s traced) ~ops_per_rep:inst.Harness.ops_per_rep
    end
  in
  say "setup: %s s calibrated"
    (String.concat " " (List.map (Printf.sprintf "%.6f") (inst.Harness.setup_s ())));
  Array.iteri
    (fun v o -> say "outputs of variant %d: %s" v (Option.value ~default:"-" o))
    reference;
  List.iter
    (fun (n, v) -> if not (Float.is_finite v) then Harness.fail (n ^ " is not finite"))
    metrics;
  { metrics; attempted = !attempted; failed = !failed + !Harness.failed_checks }

let result_line r =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (!Harness.failed_checks = 0) r.attempted r.failed;
  List.iteri
    (fun i (name, v) ->
      Printf.bprintf buf "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name
        (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
        (unit_of name))
    r.metrics;
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Smoke test: toy sizes, every workload plain and traced, names and    *)
(* units checked against BENCHMARK.json                                 *)
(* ------------------------------------------------------------------ *)

let smoke ~bench =
  let spec =
    match Spec.load bench with
    | Ok s -> s
    | Error m ->
      prerr_endline ("perf: " ^ m);
      exit 1
  in
  Harness.calibrate := false;
  let problems = ref 0 in
  let problem fmt =
    Printf.ksprintf
      (fun s ->
        incr problems;
        prerr_endline ("perf: smoke: " ^ s))
      fmt
  in
  let names = List.map fst workloads in
  if List.sort compare spec.Spec.workloads <> List.sort compare names then
    problem "BENCHMARK.json declares workloads %s; the program runs %s"
      (String.concat "," spec.Spec.workloads) (String.concat "," names);
  let agree ~workload ~kind declared printed =
    let declared = List.map (fun (m : Spec.metric) -> (m.Spec.name, m.Spec.unit_)) declared in
    let printed = List.map (fun (n, _) -> (n, unit_of n)) printed in
    List.iter
      (fun (n, u) ->
        if not (List.mem (n, u) printed) then
          problem "%s %s: declared %s (%s) is not printed" workload kind n u)
      declared;
    List.iter
      (fun (n, u) ->
        if not (List.mem (n, u) declared) then
          problem "%s %s: printed %s (%s) is not declared" workload kind n u)
      printed
  in
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, kind, declared) ->
          let r =
            run_workload ~size:Harness.Smoke ~name:workload ~seed:42 ~seconds:0.0 ~trace
              ~print:false
          in
          if r.attempted < 1 then problem "%s %s: no operation attempted" workload kind;
          agree ~workload ~kind declared r.metrics)
        [ (false, "end_to_end", spec.Spec.end_to_end); (true, "per_layer", spec.Spec.per_layer) ])
    names;
  if !problems > 0 || !Harness.failed_checks > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perf: " ^ m);
      exit 2)
    fmt

let nonneg_int flag v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | _ -> die "%s expects a non-negative integer, got %S" flag v

let () =
  Engine.Dpool.set_default (Some Harness.pool);
  let workload = ref None and seed = ref 42 and seconds = ref 12 and trace = ref false in
  let trace_file = ref None and bench = ref "BENCHMARK.json" and mode = ref `Run in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      if not (List.mem_assoc v workloads) then
        die "--workload expects one of %s, got %S" (String.concat ", " (List.map fst workloads)) v;
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := nonneg_int "--seed" v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := nonneg_int "--seconds" v;
      parse rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := false
      | "1" -> trace := true
      | _ -> die "--trace expects 0 or 1, got %S" v);
      parse rest
    | "--trace-file" :: v :: rest ->
      trace_file := Some v;
      parse rest
    | "--bench" :: v :: rest ->
      bench := v;
      parse rest
    | "--smoke" :: rest ->
      mode := `Smoke;
      parse rest
    | "compare" :: a :: b :: rest ->
      mode := `Compare (a, b);
      parse rest
    | [ ("--workload" | "--seed" | "--seconds" | "--trace" | "--trace-file" | "--bench") as f ] ->
      die "%s needs a value" f
    | arg :: _ -> die "unknown argument %S (see bench/perf/README.md)" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !mode with
  | `Smoke -> smoke ~bench:!bench
  | `Compare (a, b) ->
    (match Spec.load !bench with
    | Ok spec -> Compare_runs.run ~spec a b
    | Error m -> die "%s" m)
  | `Run ->
    let name = match !workload with Some w -> w | None -> die "--workload is required" in
    print_endline
      (Printf.sprintf "# perf workload=%s seed=%d seconds=%d trace=%d" name !seed !seconds
         (if !trace then 1 else 0));
    if !trace && !trace_file <> None then Prof.keep_raw ();
    let r =
      run_workload ~size:Harness.Full ~name ~seed:!seed ~seconds:(float_of_int !seconds)
        ~trace:!trace ~print:true
    in
    (match !trace_file with Some f when !trace -> Prof.write_chrome f | _ -> ());
    print_endline (result_line r);
    if !Harness.failed_checks > 0 then exit 1
