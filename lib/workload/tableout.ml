module Metrics = Engine.Metrics
module Json = Prelude.Json

type stat = Count | Mean | P50 | P95 | P99 | Max

(* A numeric cell prints its own gauge, which holds the value the cell
   declares, or a statistic of a counter or histogram. *)
type read = Own_gauge of float | Stat of stat

type cell =
  | Text of string
  | Num of { name : string; labels : Metrics.labels; read : read; fmt : float -> string }
  | Cat of cell list

let text s = Text s

(* Labels in the registry's order, so a cell finds its snapshot entry. *)
let num name labels read fmt =
  Num { name; labels = List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels; read; fmt }

let gauge ~labels name fmt v = num name labels (Own_gauge v) fmt

let named ~labels name stat fmt = num name labels (Stat stat) fmt
let cat cells = Cat cells

type t = { title : string; columns : string list; mutable rows : cell list list }

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Tableout.add_row: cell count mismatch";
  t.rows <- row :: t.rows

type block = Table of t | Line of cell list

let table t = Table t
let line cells = Line cells
let note fmt = Printf.ksprintf (fun s -> Line [ Text s ]) fmt

(* The one printer: [get name labels read] is the number a cell prints,
   [None] when its instrument is missing. *)
let render_with get ppf blocks =
  let rec show = function
    | Text s -> s
    | Cat cells -> String.concat "" (List.map show cells)
    | Num { name; labels; read; fmt } -> (
      match get name labels read with
      | Some v -> fmt v
      | None -> invalid_arg ("Tableout: no instrument for a cell of " ^ name))
  in
  let print_table t =
    let rows = List.rev_map (List.map show) t.rows in
    let widths =
      List.fold_left
        (fun widths row -> List.map2 (fun w c -> max w (String.length c)) widths row)
        (List.map String.length t.columns)
        rows
    in
    let print_row cells =
      let padded = List.map2 (fun w c -> c ^ String.make (w - String.length c) ' ') widths cells in
      Format.fprintf ppf "  %s@." (String.concat "  " padded)
    in
    Format.fprintf ppf "@.== %s ==@." t.title;
    print_row t.columns;
    print_row (List.map (fun w -> String.make w '-') widths);
    List.iter print_row rows
  in
  List.iter
    (function
      | Table t -> print_table t
      | Line cells -> Format.fprintf ppf "%s@." (show (Cat cells)))
    blocks

(* Every gauge cell writes its value into [m] before any cell is read,
   so a cell that reads back another value shares its gauge with a cell
   that declared that value.  Live instruments are read one at a time;
   interning a missing one grows the registry, so it reads as absent. *)
let render m ppf blocks =
  let rec write = function
    | Text _ | Num { read = Stat _; _ } -> ()
    | Num { name; labels; read = Own_gauge v; _ } -> Metrics.set (Metrics.gauge m ~labels name) v
    | Cat cells -> List.iter write cells
  in
  List.iter
    (function Table t -> List.iter (List.iter write) t.rows | Line cells -> List.iter write cells)
    blocks;
  let get name labels read =
    let size = Metrics.size m in
    let v =
      match read with
      | Own_gauge v ->
        let w = Metrics.value (Metrics.gauge m ~labels name) in
        if not (Float.equal v w) then invalid_arg ("Tableout: two values declared for one " ^ name);
        w
      | Stat Count -> float_of_int (Metrics.count (Metrics.counter m ~labels name))
      | Stat stat -> (
        let s = Metrics.summarize_histogram (Metrics.histogram m ~labels name) in
        match stat with
        | Count -> float_of_int s.Metrics.n
        | Mean -> s.Metrics.mean
        | P50 -> s.Metrics.p50
        | P95 -> s.Metrics.p95
        | P99 -> s.Metrics.p99
        | Max -> s.Metrics.max)
    in
    if Metrics.size m > size then None else Some v
  in
  render_with get ppf blocks

(* The snapshot field each read prints; a non-finite float was printed
   as [null]. *)
let of_metrics json ppf blocks =
  let index = Hashtbl.create 1024 in
  let add o =
    match (Json.member "name" o, Json.member "labels" o) with
    | Some (Json.String name), Some (Json.Obj labels) ->
      let value v = Option.value (Json.to_string_opt v) ~default:"" in
      Hashtbl.replace index (name, List.map (fun (k, v) -> (k, value v)) labels) o
    | _ -> invalid_arg "Tableout.of_metrics: instrument without name or labels"
  in
  List.iter
    (fun section ->
      match Json.member section json with
      | Some (Json.List l) -> List.iter add l
      | _ -> invalid_arg ("Tableout.of_metrics: no " ^ section))
    [ "counters"; "gauges"; "histograms" ];
  let field = function
    | Own_gauge _ | Stat Count -> "value"
    | Stat Mean -> "mean"
    | Stat P50 -> "p50"
    | Stat P95 -> "p95"
    | Stat P99 -> "p99"
    | Stat Max -> "max"
  in
  let get name labels read =
    match Option.bind (Hashtbl.find_opt index (name, labels)) (Json.member (field read)) with
    | Some Json.Null -> Some Float.nan
    | v -> Option.bind v Json.to_float_opt
  in
  render_with get ppf blocks

let fixed digits v = if Float.is_nan v then "-" else Printf.sprintf "%.*f" digits v
let cell_f = fixed 3
let yes_no v = if v = 1.0 then "yes" else "NO"
