(* Benchmark harness: reproduces every table and figure of the paper's
   evaluation.

   Usage:
     dune exec bench/main.exe                  -- everything, full size
     dune exec bench/main.exe -- --scale 4     -- quarter-size workloads
     dune exec bench/main.exe -- --only fig10  -- a single experiment
     dune exec bench/main.exe -- --json out.json -- also dump the metrics
                                                    as JSON

   Any other argument, a flag without its value, an unknown experiment
   or a --json file that cannot be opened for writing is an error
   (exit 2), reported before any experiment runs.  So is (after the
   runs) an instrument that two experiments recorded with different
   values. *)

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
  let run =
    match !only with
    | None -> Registry.run_all ~scale:!scale
    | Some id ->
      (match Registry.find id with
      | Some e ->
        fun ppf ->
          let run = Workload.Run.create ~scale:!scale in
          Registry.print e run ppf;
          [ run.Workload.Run.metrics ]
      | None ->
        Format.eprintf "unknown experiment %S; known:@." id;
        List.iter (fun e -> Format.eprintf "  %s@." e.Registry.name) Registry.all;
        exit 2)
  in
  (* Open the dump before any experiment runs, so an unwritable path
     fails at once instead of after the whole suite. *)
  let json =
    Option.map
      (fun path ->
        match open_out path with
        | oc -> (path, oc)
        | exception Sys_error e ->
          Format.eprintf "cannot write --json file: %s@." e;
          exit 2)
      !json
  in
  let registries = run ppf in
  (* Each experiment records into its own run's registry; the dump is
     their union, where an instrument two experiments share must hold
     one value.  It is deterministic (sorted instruments, fixed float
     format), so same-seed runs produce byte-identical files. *)
  Option.iter
    (fun (path, oc) ->
      match Engine.Metrics.union registries with
      | Ok metrics ->
        output_string oc (Prelude.Json.to_string (Engine.Metrics.to_json metrics));
        output_char oc '\n';
        close_out oc;
        Format.fprintf ppf "metrics written to %s@." path
      | Error key ->
        close_out oc;
        Sys.remove path;
        Format.eprintf "two experiments recorded different values for %s@." key;
        exit 2)
    json
