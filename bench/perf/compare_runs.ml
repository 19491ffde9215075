(* perf.exe compare DIR_A DIR_B: two sets of plain runs, metric by
   metric and workload by workload.

   Each file in a directory holds the standard output of one run: the
   "# perf workload=..." header line and, last, the JSON result.  Traced
   runs are skipped.  For every end-to-end metric the two sides' medians
   and quartiles are printed with the change of B against A as a share of
   A's median, positive when B is worse.  The verdict:

   - unresolved: either side's quartile spread, as a share of its median,
     exceeds the metric's bound — unless every run of B beats every run
     of A, which reads better;
   - worse / better: the medians differ by more than the bound;
   - same: otherwise.

   Exits 1 when any row is worse. *)

module Json = Prelude.Json

(* Python's statistics.quantiles(data, n=4), default "exclusive" method,
   and statistics.median. *)
let quartiles xs =
  let d = Array.of_list (List.sort compare xs) in
  let n = Array.length d in
  if n < 2 then (d.(0), d.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (i * m / 4) (n - 1)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let median xs =
  let d = Array.of_list (List.sort compare xs) in
  let n = Array.length d in
  if n mod 2 = 1 then d.(n / 2) else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.0

let header_field line key =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
        Some (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' line)

(* (workload, metric) -> values over the plain runs of a directory. *)
let load_dir dir =
  let table = Hashtbl.create 16 in
  Array.iter
    (fun file ->
      let path = Filename.concat dir file in
      if not (Sys.is_directory path) then begin
        let lines =
          In_channel.with_open_bin path In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> String.trim l <> "")
        in
        let header = List.find_opt (fun l -> String.starts_with ~prefix:"# perf " l) lines in
        match (header, List.rev lines) with
        | Some h, last :: _ when header_field h "trace" = Some "0" -> (
          let workload = Option.value ~default:"?" (header_field h "workload") in
          match Json.of_string last with
          | Ok json ->
            (match Json.member "metrics" json with
            | Some (Json.Obj ms) ->
              List.iter
                (fun (name, v) ->
                  match Option.bind (Json.member "value" v) Json.to_float_opt with
                  | Some x ->
                    let key = (workload, name) in
                    Hashtbl.replace table key
                      (x :: Option.value ~default:[] (Hashtbl.find_opt table key))
                  | None -> ())
                ms
            | _ -> ())
          | Error _ -> Printf.eprintf "perf: compare: %s: last line is not a result\n" path)
        | _ -> ()
      end)
    (Sys.readdir dir);
  table

let run ~(spec : Spec.t) dir_a dir_b =
  List.iter
    (fun dir ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Printf.eprintf "perf: compare: %s is not a directory\n" dir;
        exit 2
      end)
    [ dir_a; dir_b ];
  let a = load_dir dir_a and b = load_dir dir_b in
  let row = Printf.printf "%-8s %-12s %12s %-26s %12s %-26s %8s %6s  %s\n" in
  row "workload" "metric" "median A" "quartiles A" "median B" "quartiles B" "delta" "bound"
    "verdict";
  let worse = ref 0 and unresolved = ref 0 and rows = ref 0 in
  List.iter
    (fun workload ->
      List.iter
        (fun (m : Spec.metric) ->
          let key = (workload, m.Spec.name) in
          match (Hashtbl.find_opt a key, Hashtbl.find_opt b key) with
          | Some xa, Some xb ->
            incr rows;
            let bound = Option.value ~default:0.0 m.Spec.bound in
            let lower = m.Spec.better = "lower" in
            let ma = median xa and mb = median xb in
            let qa1, qa3 = quartiles xa and qb1, qb3 = quartiles xb in
            let spread lo hi med = if med = 0.0 then 0.0 else (hi -. lo) /. Float.abs med in
            let delta =
              if ma = 0.0 then 0.0 else (if lower then mb -. ma else ma -. mb) /. Float.abs ma
            in
            let b_beats_a =
              if lower then List.fold_left max neg_infinity xb < List.fold_left min infinity xa
              else List.fold_left min infinity xb > List.fold_left max neg_infinity xa
            in
            let verdict =
              if spread qa1 qa3 ma > bound || spread qb1 qb3 mb > bound then
                if b_beats_a then "better" else "unresolved"
              else if delta > bound then "worse"
              else if delta < -.bound then "better"
              else "same"
            in
            if verdict = "worse" then incr worse;
            if verdict = "unresolved" then incr unresolved;
            let g = Printf.sprintf "%.6g" and range = Printf.sprintf "%.6g..%.6g" in
            row workload m.Spec.name (g ma) (range qa1 qa3) (g mb) (range qb1 qb3)
              (Printf.sprintf "%+.2f%%" (100.0 *. delta))
              (Printf.sprintf "%.0f%%" (100.0 *. bound))
              (Printf.sprintf "%s (n=%d/%d)" verdict (List.length xa) (List.length xb))
          | _ -> ())
        spec.Spec.end_to_end)
    spec.Spec.workloads;
  Printf.printf "%d rows: %d worse, %d unresolved\n" !rows !worse !unresolved;
  if !rows = 0 then begin
    prerr_endline "perf: compare: no plain runs found in both directories";
    exit 2
  end;
  if !worse > 0 then exit 1
