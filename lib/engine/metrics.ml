module Json = Prelude.Json
module Stats = Prelude.Stats

type labels = (string * string) list

let canonical labels = List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels

type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

(* Samples in observation order, in fixed-size chunks: sample [i] is
   [chunks.(i / histogram_chunk).(i mod histogram_chunk)].  Growing
   adds a chunk and never copies a sample; only the spine of chunk
   pointers doubles. *)
let histogram_chunk = 1024

type histogram = {
  mutable chunks : float array array;
  mutable h_len : int;
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { instruments : (string * labels, instrument) Hashtbl.t }

let create () = { instruments = Hashtbl.create 64 }

let size t = Hashtbl.length t.instruments

let validate_name name =
  if name = "" then invalid_arg "Metrics: empty instrument name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> ()
      | _ -> invalid_arg (Printf.sprintf "Metrics: invalid instrument name %S" name))
    name

let counter t ?(labels = []) name =
  validate_name name;
  let key = (name, canonical labels) in
  match Hashtbl.find_opt t.instruments key with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.counter: %S registered as another kind" name)
  | None ->
    let c = { c_value = 0 } in
    Hashtbl.replace t.instruments key (Counter c);
    c

let gauge t ?(labels = []) name =
  validate_name name;
  let key = (name, canonical labels) in
  match Hashtbl.find_opt t.instruments key with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.gauge: %S registered as another kind" name)
  | None ->
    let g = { g_value = 0.0 } in
    Hashtbl.replace t.instruments key (Gauge g);
    g

let histogram t ?(labels = []) name =
  validate_name name;
  let key = (name, canonical labels) in
  match Hashtbl.find_opt t.instruments key with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.histogram: %S registered as another kind" name)
  | None ->
    let h = { chunks = [||]; h_len = 0 } in
    Hashtbl.replace t.instruments key (Histogram h);
    h

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let count c = c.c_value

let set g v = g.g_value <- v
let value g = g.g_value

let observe h x =
  let c = h.h_len / histogram_chunk and i = h.h_len mod histogram_chunk in
  if i = 0 then begin
    if c = Array.length h.chunks then begin
      let spine = Array.make (max 4 (2 * c)) [||] in
      Array.blit h.chunks 0 spine 0 c;
      h.chunks <- spine
    end;
    h.chunks.(c) <- Array.make histogram_chunk 0.0
  end;
  h.chunks.(c).(i) <- x;
  h.h_len <- h.h_len + 1

let observations h = h.h_len

let samples h =
  let xs = Array.make h.h_len 0.0 in
  for c = 0 to ((h.h_len + histogram_chunk - 1) / histogram_chunk) - 1 do
    let off = c * histogram_chunk in
    Array.blit h.chunks.(c) 0 xs off (min histogram_chunk (h.h_len - off))
  done;
  xs

let hmean h = Stats.mean (samples h)

let quantile h p = Stats.percentile (samples h) p

let key_name (name, labels) =
  Printf.sprintf "%s{%s}" name (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

let same a b =
  match (a, b) with
  | Counter a, Counter b -> a.c_value = b.c_value
  | Gauge a, Gauge b -> Float.equal a.g_value b.g_value
  | Histogram a, Histogram b ->
    a.h_len = b.h_len && Array.for_all2 Float.equal (samples a) (samples b)
  | _ -> false

exception Conflict of string

let union ts =
  let u = create () in
  let add key inst =
    match Hashtbl.find_opt u.instruments key with
    | None -> Hashtbl.replace u.instruments key inst
    | Some prev -> if not (same prev inst) then raise (Conflict (key_name key))
  in
  match List.iter (fun t -> Hashtbl.iter add t.instruments) ts with
  | () -> Ok u
  | exception Conflict key -> Error key

(* ---- snapshots ---- *)

type hist_summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

let summarize_histogram h =
  let xs = samples h in
  let n = Array.length xs in
  if n = 0 then
    { n = 0; mean = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p90 = 0.0; p95 = 0.0; p99 = 0.0 }
  else
    {
      n;
      mean = Stats.mean xs;
      min = Array.fold_left Float.min xs.(0) xs;
      max = Array.fold_left Float.max xs.(0) xs;
      p50 = Stats.percentile xs 50.0;
      p90 = Stats.percentile xs 90.0;
      p95 = Stats.percentile xs 95.0;
      p99 = Stats.percentile xs 99.0;
    }

type snapshot_value = Counter_v of int | Gauge_v of float | Histogram_v of hist_summary

type snapshot_entry = { name : string; labels : labels; v : snapshot_value }

let snapshot t =
  let entries =
    Hashtbl.fold
      (fun (name, labels) inst acc ->
        let v =
          match inst with
          | Counter c -> Counter_v c.c_value
          | Gauge g -> Gauge_v g.g_value
          | Histogram h -> Histogram_v (summarize_histogram h)
        in
        { name; labels; v } :: acc)
      t.instruments []
  in
  (* Sorted by (name, labels): output order never depends on hash-table
     iteration or registration order. *)
  List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels)) entries

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let schema_version = "topo-overlay/metrics-v1"

let to_json t =
  let entries = snapshot t in
  let pick f = List.filter_map f entries in
  let counters =
    pick (fun e ->
        match e.v with
        | Counter_v v ->
          Some
            (Json.Obj
               [ ("name", Json.String e.name); ("labels", labels_json e.labels); ("value", Json.Int v) ])
        | _ -> None)
  in
  let gauges =
    pick (fun e ->
        match e.v with
        | Gauge_v v ->
          Some
            (Json.Obj
               [ ("name", Json.String e.name); ("labels", labels_json e.labels); ("value", Json.Float v) ])
        | _ -> None)
  in
  let histograms =
    pick (fun e ->
        match e.v with
        | Histogram_v s ->
          Some
            (Json.Obj
               [
                 ("name", Json.String e.name);
                 ("labels", labels_json e.labels);
                 ("count", Json.Int s.n);
                 ("mean", Json.Float s.mean);
                 ("min", Json.Float s.min);
                 ("max", Json.Float s.max);
                 ("p50", Json.Float s.p50);
                 ("p90", Json.Float s.p90);
                 ("p95", Json.Float s.p95);
                 ("p99", Json.Float s.p99);
               ])
        | _ -> None)
  in
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("counters", Json.List counters);
      ("gauges", Json.List gauges);
      ("histograms", Json.List histograms);
    ]
