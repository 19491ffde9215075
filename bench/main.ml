(* Benchmark harness: reproduces every table and figure of the paper's
   evaluation.

   Usage:
     dune exec bench/main.exe                  -- everything, full size
     dune exec bench/main.exe -- --scale 4     -- quarter-size workloads
     dune exec bench/main.exe -- --only fig10  -- a single experiment
     dune exec bench/main.exe -- --json out.json -- also dump the metrics
                                                    registry as JSON

   Any other argument, or a flag without its value, is an error (exit 2). *)

module Registry = Workload.Registry

let () =
  let scale = ref 1 in
  let only = ref None in
  let json = ref None in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      (match int_of_string_opt v with
      | Some s when s >= 1 -> scale := s
      | Some _ | None ->
        Format.eprintf "bad --scale %S: expected a positive integer (e.g. --scale 4)@." v;
        exit 2);
      parse rest
    | "--only" :: v :: rest ->
      only := Some v;
      parse rest
    | "--json" :: v :: rest ->
      json := Some v;
      parse rest
    | [ ("--scale" | "--only" | "--json") as flag ] ->
      Format.eprintf "%s needs a value@." flag;
      exit 2
    | arg :: _ ->
      Format.eprintf "unknown argument %S (expected --scale N, --only EXPERIMENT, --json FILE)@."
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let ppf = Format.std_formatter in
  (match !only with
  | Some id ->
    (match Registry.find id with
    | Some e -> e.Registry.run ~scale:!scale ppf
    | None ->
      Format.fprintf ppf "unknown experiment %S; known:@." id;
      List.iter (fun e -> Format.fprintf ppf "  %s@." e.Registry.name) Registry.all;
      exit 1)
  | None -> Registry.run_all ~scale:!scale ppf);
  (* The experiments record into the process-global registry as they run;
     the dump is deterministic (sorted instruments, fixed float format),
     so same-seed runs produce byte-identical files. *)
  match !json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Prelude.Json.to_string (Engine.Metrics.to_json Engine.Metrics.global));
    output_char oc '\n';
    close_out oc;
    Format.fprintf ppf "metrics written to %s@." path
