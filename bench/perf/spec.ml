(* BENCHMARK.json: the workloads and metrics the benchmark declares.  The
   smoke test checks the program against it; [compare] takes each
   metric's direction and bound from it. *)

module Json = Prelude.Json

type metric = { name : string; unit_ : string; better : string; bound : float option }
type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let load path =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_bin path In_channel.input_all) with Sys_error m -> Error m
  in
  let* json = Json.of_string text in
  let field name o = Option.bind (Json.member name o) Json.to_string_opt in
  let list key =
    match Option.bind (Json.member key json) Json.to_list_opt with
    | Some l -> Ok l
    | None -> Error (Printf.sprintf "%s: no %S list" path key)
  in
  let metric o =
    match (field "name" o, field "unit" o, field "better" o) with
    | Some name, Some unit_, Some better ->
      Ok { name; unit_; better; bound = Option.bind (Json.member "bound" o) Json.to_float_opt }
    | _ -> Error (Printf.sprintf "%s: a metric lacks name, unit or better" path)
  in
  let all f l =
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* v = f x in
        Ok (v :: acc))
      l (Ok [])
  in
  let* workloads = list "workloads" in
  let* workloads =
    all
      (fun o ->
        match field "name" o with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "%s: a workload lacks a name" path))
      workloads
  in
  let* end_to_end = Result.bind (list "end_to_end") (all metric) in
  let* per_layer = Result.bind (list "per_layer") (all metric) in
  Ok { workloads; end_to_end; per_layer }
