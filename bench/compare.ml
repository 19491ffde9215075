(* Regression gate for the bench metrics snapshot: diff a fresh
   [bench --json] dump against the checked-in baseline.

   Counters must match exactly — the whole simulation is deterministic
   from its seeds, so any drift in an event count is a behaviour change,
   not noise.  Gauges and histogram statistics are floats derived from
   latency arithmetic and may legitimately move a little under compiler
   or libm changes; they must agree within a relative tolerance.
   Instruments present in one file but not the other fail the gate, so
   adding, renaming or dropping an instrument forces a deliberate
   baseline refresh rather than slipping through silently.

   Usage: compare.exe BASELINE FRESH [--tolerance T]
   Exit status: 0 match, 1 regression, 2 usage/parse error. *)

module Json = Prelude.Json

let usage () =
  prerr_endline "usage: compare.exe BASELINE FRESH [--tolerance T]";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench-compare: " ^ s); exit 2) fmt

let load ~role path =
  if not (Sys.file_exists path) then
    fail
      "%s file %S does not exist%s" role path
      (if role = "baseline" then
         "\n\
          \  (checked-in baselines live at the repo root; generate one with:\n\
          \      dune exec bench/main.exe -- [--only EXP] --scale 8 --json FILE)"
       else "");
  let ic = try open_in_bin path with Sys_error e -> fail "%s" e in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string s with
  | Ok j -> j
  | Error e -> fail "%s: parse error: %s" path e

(* Instrument identity: name + the (deterministically printed) labels. *)
let key_of obj =
  match (Json.member "name" obj, Json.member "labels" obj) with
  | Some (Json.String n), Some l -> n ^ " " ^ Json.to_string l
  | _ -> fail "instrument missing name/labels: %s" (Json.to_string obj)

let section name j =
  match Json.member name j with
  | Some (Json.List l) -> List.map (fun o -> (key_of o, o)) l
  | _ -> fail "snapshot has no %S section" name

let int_field name obj =
  match Option.map Json.to_int_opt (Json.member name obj) with
  | Some (Some v) -> v
  | _ -> fail "instrument missing int field %S: %s" name (Json.to_string obj)

(* Non-finite floats print as [null]; read them back as nan so that
   nan-vs-nan compares as unchanged. *)
let float_field name obj =
  match Json.member name obj with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | Some Json.Null -> Float.nan
  | _ -> fail "instrument missing float field %S: %s" name (Json.to_string obj)

let close ~tol a b =
  (Float.is_nan a && Float.is_nan b)
  || a = b
  || Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let () =
  let baseline = ref None and fresh = ref None and tol = ref 0.05 in
  let rec parse = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t >= 0.0 -> tol := t
      | _ -> fail "--tolerance wants a non-negative float, got %S" v);
      parse rest
    | a :: rest when String.length a > 0 && a.[0] <> '-' ->
      (if !baseline = None then baseline := Some a
       else if !fresh = None then fresh := Some a
       else usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let base_path, fresh_path =
    match (!baseline, !fresh) with Some b, Some f -> (b, f) | _ -> usage ()
  in
  let base = load ~role:"baseline" base_path and cur = load ~role:"fresh snapshot" fresh_path in
  (match (Json.member "schema" base, Json.member "schema" cur) with
  | Some (Json.String a), Some (Json.String b) when a = b -> ()
  | Some (Json.String a), Some (Json.String b) ->
    fail "schema mismatch: baseline %S vs fresh %S (regenerate the baseline)" a b
  | _ -> fail "missing schema field");
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let compared = ref 0 in
  (* Instrument-set drift is collected separately and printed as one
     grouped, readable diff instead of a mismatch line per instrument. *)
  let removed = ref [] and added = ref [] in
  let diff_section name fields =
    let b = section name base and c = section name cur in
    List.iter
      (fun (k, bo) ->
        match List.assoc_opt k c with
        | None -> removed := (name, k) :: !removed
        | Some co ->
          incr compared;
          List.iter (fun check -> check k bo co) fields)
      b;
    List.iter
      (fun (k, _) ->
        if not (List.mem_assoc k b) then added := (name, k) :: !added)
      c
  in
  (* Allocation-budget section: [alloc_*] counters are exact minor-word
     budgets per hot-path op (the [alloc] experiment).  They obey the
     same exact-integer rule as every counter, but drift is reported as
     an allocation regression in words — and under its own heading — so
     a hot path that starts allocating reads as such, not as generic
     counter noise.  Budgets are toolchain-sensitive: regenerate the
     baseline on a compiler upgrade, never to paper over a regression. *)
  let alloc_compared = ref 0 in
  let is_alloc k =
    String.length k >= 6 && String.sub k 0 6 = "alloc_"
  in
  (* Which experiment registered the instrument: its ("experiment", ...)
     label when present, else the registered experiment its name starts
     with ([alloc_*], [degree_*], [cache_*], ...) — so every regression
     names the experiment to rerun without opening the JSON. *)
  let experiment_of obj =
    let labelled =
      match Option.bind (Json.member "labels" obj) (Json.member "experiment") with
      | Some (Json.String e) -> Some e
      | _ -> None
    in
    match (labelled, Json.member "name" obj) with
    | Some e, _ -> Some e
    | None, Some (Json.String n) ->
      let prefix = List.hd (String.split_on_char '_' n) in
      if Workload.Registry.find prefix <> None then Some prefix else None
    | None, _ -> None
  in
  let rerun bo =
    match experiment_of bo with Some e -> Printf.sprintf "; rerun with --only %s" e | None -> ""
  in
  let exact_int section_name field k bo co =
    let bv = int_field field bo and cv = int_field field co in
    if section_name = "counter" && is_alloc k then begin
      incr alloc_compared;
      if bv <> cv then
        problem
          "allocation budget %s: %d -> %d minor words/op (exact match required%s; see \
           EXPERIMENTS.md)"
          k bv cv (rerun bo)
    end
    else if bv <> cv then
      problem "%s %s: %s %d -> %d (exact match required%s)" section_name k field bv cv (rerun bo)
  in
  let close_float section_name field k bo co =
    let bv = float_field field bo and cv = float_field field co in
    if not (close ~tol:!tol bv cv) then
      problem "%s %s: %s %.6g -> %.6g (tolerance %.1f%%%s)" section_name k field bv cv
        (100.0 *. !tol) (rerun bo)
  in
  diff_section "counters" [ exact_int "counter" "value" ];
  diff_section "gauges" [ close_float "gauge" "value" ];
  diff_section "histograms"
    (exact_int "histogram" "count"
    :: List.map
         (fun f -> close_float "histogram" f)
         [ "mean"; "min"; "max"; "p50"; "p90"; "p95"; "p99" ]);
  if !removed <> [] || !added <> [] then begin
    Printf.eprintf "bench-compare: instrument set changed vs %s:\n" base_path;
    let dump sign what entries =
      match List.sort compare entries with
      | [] -> ()
      | es ->
        Printf.eprintf "  %s %s (%d):\n" sign what (List.length es);
        List.iter (fun (sect, k) -> Printf.eprintf "      %s %s\n" sect k) es
    in
    dump "-" "removed (in baseline, missing from fresh run)" !removed;
    dump "+" "added (in fresh run, not in baseline)" !added;
    prerr_endline
      "  deliberate change? regenerate the baselines and the pinned scale-8 stdout with:\n\
      \      dune exec bench/main.exe -- --scale 8 --json BENCH_BASELINE.json \
       | sed '$d' > BENCH_BASELINE.txt\n\
      \      dune exec bench/main.exe -- --only join --scale 2 --json \
       BENCH_JOIN_BASELINE.json";
    problem "instrument set drift: %d removed, %d added" (List.length !removed)
      (List.length !added)
  end;
  match !problems with
  | [] ->
    Printf.printf "bench-compare: OK — %d instruments match %s (tolerance %.1f%%)\n" !compared
      base_path (100.0 *. !tol);
    if !alloc_compared > 0 then
      Printf.printf "bench-compare: allocation budgets held — %d exact minor-word counters\n"
        !alloc_compared;
    exit 0
  | ps ->
    List.iter prerr_endline (List.rev ps);
    Printf.eprintf "bench-compare: %d regression(s) against %s\n" (List.length ps) base_path;
    exit 1
