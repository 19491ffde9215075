(** Zero-dependency metrics registry.

    A registry interns {e instruments} — counters, gauges and
    sample-retaining histograms — keyed by a name plus a canonical
    (sorted, deduplicated) label set, e.g.
    [histogram m ~labels:[("overlay", "ecan")] "route_hops"].  Asking for
    the same (name, labels) pair again returns the {e same} instrument, so
    library code can re-resolve its instruments cheaply instead of
    threading handles around; asking for it as a different kind raises
    [Invalid_argument].

    Everything is deterministic: snapshots and JSON output are sorted by
    (name, labels), histograms retain the exact sample sequence, and the
    JSON printer ({!Prelude.Json}) formats floats reproducibly — two runs
    of the same seeded experiment serialize to identical bytes, which is
    what lets [BENCH_*.json] files act as regression baselines.

    Instruments are named with [a-zA-Z0-9_.] only.  The registry is not
    thread-safe; the whole engine is single-threaded by design. *)

type labels = (string * string) list
(** Label sets are canonicalized (sorted by key, duplicate keys collapse)
    before lookup, so order does not matter at the call site. *)

type t
(** A registry. *)

type counter
(** Monotonically increasing integer. *)

type gauge
(** Last-write-wins float. *)

type histogram
(** Retains every observed sample (exact quantiles, deterministic JSON),
    in chunks of {!histogram_chunk} samples: recording never copies the
    samples already held, and a histogram holds at most one partly
    filled chunk. *)

val histogram_chunk : int
(** Samples per chunk of a histogram's storage (1024). *)

val create : unit -> t
(** Fresh empty registry. *)

val global : t
(** The process-wide default registry.  Experiments record here unless
    handed an explicit registry; [bench --json] serializes it. *)

val reset : t -> unit
(** Drop every instrument (tests, or isolating bench sections). *)

val size : t -> int
(** Number of registered instruments. *)

val counter : t -> ?labels:labels -> string -> counter
(** Intern a counter (starts at 0). *)

val gauge : t -> ?labels:labels -> string -> gauge
(** Intern a gauge (starts at 0). *)

val histogram : t -> ?labels:labels -> string -> histogram
(** Intern a histogram (starts empty). *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val set : gauge -> float -> unit
val value : gauge -> float

val observe : histogram -> float -> unit
(** Record one sample. *)

val observations : histogram -> int
(** Number of samples recorded. *)

val samples : histogram -> float array
(** Copy of the recorded samples, in observation order. *)

val hmean : histogram -> float
(** Mean of the samples; 0 when empty. *)

val quantile : histogram -> float -> float
(** [quantile h p] with [p] in [0,100] ({!Prelude.Stats.percentile}
    semantics: interpolated, 0 when empty). *)

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
(** All-zero when the histogram is empty. *)

val summarize_histogram : histogram -> hist_summary

type snapshot_value = Counter_v of int | Gauge_v of float | Histogram_v of hist_summary

type snapshot_entry = { name : string; labels : labels; v : snapshot_value }

val snapshot : t -> snapshot_entry list
(** Point-in-time view of every instrument, sorted by (name, labels). *)

val schema_version : string
(** The ["schema"] field value of {!to_json} output,
    ["topo-overlay/metrics-v1"].  Bump when the JSON shape changes. *)

val to_json : t -> Prelude.Json.t
(** The stable snapshot schema (see DESIGN.md "Observability"):
    [{"schema": ..., "counters": [{"name","labels","value"}...],
    "gauges": [...], "histograms": [{"name","labels","count","mean","min",
    "max","p50","p90","p95","p99"}...]}], each section sorted by
    (name, labels). *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-instrument-per-line dump, same ordering as
    {!to_json}. *)
