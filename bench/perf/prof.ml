(* Span recorder for traced runs.

   The benchmark wraps each call it makes into a layer in [time].  Spans
   nest; a span's self time is its duration minus the time its child spans
   cover.  Everything is aggregated in memory per layer name — calls,
   total and self time, minor words, and a bounded reservoir of durations
   for percentiles — and written out once, when the run ends.  A plain run
   installs no wrappers, so none of this code runs there.

   Minor words come from [Gc.minor_words], which reads the allocation
   pointer without allocating, so a span's word count is what the wrapped
   call allocated (plus a few words of bookkeeping from nested spans). *)

module Json = Prelude.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let reservoir_size = 4096

type layer = {
  name : string;
  index : int;
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable words : float;
  reservoir : float array;  (* durations in ns *)
  mutable seen : int;
}

let layers : layer list ref = ref []
let by_name : (string, layer) Hashtbl.t = Hashtbl.create 64

let fresh name index =
  {
    name;
    index;
    calls = 0;
    total_ns = 0;
    self_ns = 0;
    words = 0.0;
    reservoir = Array.make reservoir_size 0.0;
    seen = 0;
  }

let layer name =
  match Hashtbl.find_opt by_name name with
  | Some l -> l
  | None ->
    let l = fresh name (Hashtbl.length by_name) in
    Hashtbl.replace by_name name l;
    layers := l :: !layers;
    l

(* Algorithm R with a fixed seed: percentiles repeat run to run for the
   same sequence of durations. *)
let sampler = Prelude.Rng.create 0x5eed

let observe l ns =
  l.seen <- l.seen + 1;
  if l.seen <= reservoir_size then l.reservoir.(l.seen - 1) <- float_of_int ns
  else begin
    let j = Prelude.Rng.int sampler l.seen in
    if j < reservoir_size then l.reservoir.(j) <- float_of_int ns
  end

(* Time spent in root spans (depth 0): the attributed share of a rep. *)
let root_ns = ref 0
let last_self_ns = ref 0

(* The open-span stack, preallocated so opening a span allocates nothing. *)
let max_depth = 64
let f_layer = Array.make max_depth (fresh "" (-1))
let f_start = Array.make max_depth 0
let f_child = Array.make max_depth 0
let f_words = Array.make max_depth 0.0
let f_raw = Array.make max_depth (-1)
let depth = ref 0

(* Raw spans for the Chrome trace, kept only after [keep_raw]: the first
   [raw_ops] root spans and everything nested in them. *)
let raw_ops = 10_000
let raw_layer = ref [||]
let raw_start = ref [||]
let raw_dur = ref [||]
let raw_parent = ref [||]
let raw_len = ref 0
let roots_closed = ref 0

let keep_raw () =
  let cap = 1 lsl 18 in
  raw_layer := Array.make cap 0;
  raw_start := Array.make cap 0;
  raw_dur := Array.make cap 0;
  raw_parent := Array.make cap (-1)

let open_raw d =
  if
    !raw_len < Array.length !raw_layer
    && (d > 0 || !roots_closed < raw_ops)
    && (d = 0 || f_raw.(d - 1) >= 0)
  then begin
    let id = !raw_len in
    incr raw_len;
    !raw_parent.(id) <- (if d > 0 then f_raw.(d - 1) else -1);
    id
  end
  else -1

let close d =
  let stop = now_ns () in
  let words = Gc.minor_words () -. f_words.(d) in
  let l = f_layer.(d) in
  let dur = stop - f_start.(d) in
  let self = dur - f_child.(d) in
  depth := d;
  l.calls <- l.calls + 1;
  l.total_ns <- l.total_ns + dur;
  l.self_ns <- l.self_ns + self;
  l.words <- l.words +. words;
  observe l dur;
  last_self_ns := self;
  let id = f_raw.(d) in
  if id >= 0 then begin
    !raw_layer.(id) <- l.index;
    !raw_start.(id) <- f_start.(d);
    !raw_dur.(id) <- dur
  end;
  if d > 0 then f_child.(d - 1) <- f_child.(d - 1) + dur
  else begin
    root_ns := !root_ns + dur;
    incr roots_closed
  end

let time l f =
  let d = !depth in
  if d >= max_depth then failwith "Prof.time: spans nested too deep";
  f_layer.(d) <- l;
  f_child.(d) <- 0;
  f_raw.(d) <- open_raw d;
  depth := d + 1;
  f_words.(d) <- Gc.minor_words ();
  f_start.(d) <- now_ns ();
  match f () with
  | v ->
    close d;
    v
  | exception e ->
    close d;
    raise e

let time_if tracing l f = if tracing then time l f else f ()

(* Charge an interval measured elsewhere (e.g. the self time of a
   simulator step) to a layer, as one call. *)
let charge l ns =
  l.calls <- l.calls + 1;
  l.total_ns <- l.total_ns + ns;
  l.self_ns <- l.self_ns + ns;
  observe l ns

(* ---- reading aggregates ---- *)

let calls l = l.calls
let total_s l = float_of_int l.total_ns /. 1e9
let self_s l = float_of_int l.self_ns /. 1e9

let percentile_us l p =
  let n = min l.seen reservoir_size in
  Prelude.Stats.percentile (Array.sub l.reservoir 0 n) p /. 1e3

let words_per_call l = if l.calls = 0 then 0.0 else l.words /. float_of_int l.calls

(* ---- Chrome trace output (the JSONL shape Engine.Trace writes) ---- *)

let write_chrome path =
  let names = Array.make (Hashtbl.length by_name) "" in
  List.iter (fun l -> names.(l.index) <- l.name) !layers;
  let t0 = if !raw_len > 0 then !raw_start.(0) else 0 in
  let oc = open_out path in
  for id = 0 to !raw_len - 1 do
    let span =
      Json.Obj
        [
          ("name", Json.String names.(!raw_layer.(id)));
          ("cat", Json.String "perf");
          ("ph", Json.String "X");
          ("ts", Json.Float (float_of_int (!raw_start.(id) - t0) /. 1e3));
          ("dur", Json.Float (float_of_int !raw_dur.(id) /. 1e3));
          ("pid", Json.Int 0);
          ("tid", Json.Int 0);
          ("args", Json.Obj [ ("seq", Json.Int id); ("parent", Json.Int !raw_parent.(id)) ]);
        ]
    in
    output_string oc (Json.to_string span);
    output_char oc '\n'
  done;
  close_out oc
