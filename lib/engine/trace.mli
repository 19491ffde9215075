(** Ring-buffer event tracer with a typed span taxonomy.

    A tracer records {e spans} — timestamped events with a subject node,
    an optional peer and a payload typed by the span's kind — into a
    fixed-capacity ring buffer.  Recording is O(1) and allocation-light,
    so hot paths (per-hop routing, per-probe measurement) can trace
    unconditionally; when the buffer wraps, the oldest spans are
    overwritten and counted in {!dropped}.

    Timestamps come from the injected [clock] (pass
    [fun () -> Sim.now sim] to trace virtual time) unless the caller
    supplies [?at] explicitly.  Spans can be dumped as JSONL in the Chrome
    trace-event format ([chrome://tracing] / Perfetto load it directly);
    see the [topoaware trace] subcommand. *)

type change = Published | Departed | Load_changed
type fault = Crash | Leave | Join | Expire of float | Channel_drop
type outcome = Hit | Miss | Shed

(** What a span records, with its payload.  The note each payload is
    rendered as in {!span_json} is in brackets.  Region paths are shared
    with the emitter, which passes a store-owned or freshly cut path and
    never writes to it afterwards. *)
type kind =
  | Route_hop  (** one overlay forwarding step; [node] -> [peer] *)
  | Rtt_probe of { queue_ms : float }
      (** one RTT measurement by {!Engine.Probe}; [dur] is the measured RTT,
          the payload the wait for a window slot [[q=<queue_ms>]] *)
  | Map_publish of { region : int array }
      (** a soft-state entry was (re)published; [node] = map host, [peer]
          = described member [[<region label>]] *)
  | Notify of { change : change; entry : int; region : int array }
      (** a pub/sub notification about [entry] in [region]; [node] = map
          host, [peer] = subscriber, [dur] = delivery delay
          [[<pub|dep|load>:<entry>@<region label>]] *)
  | Ttl_sweep of { purged : int }  (** a TTL sweep ran [[<purged> purged]] *)
  | Fault_inject of fault
      (** a fault fired or a message was dropped; [node] = the victim, or
          -1 for a plan event whose victim is picked later [[<fault label>]] *)
  | Cache_request of { outcome : outcome; key : int }
      (** one cache request served; [node] = client, [peer] = serving
          replica, [dur] = delivered latency [[<hit|miss|shed>:<key>]] *)
  | Cache_replicate of { key : int }
      (** a hot entry was copied; [node] = overloaded source, [peer] =
          new replica host [[<key>]] *)
  | Mcast_deliver of { publish : int }
      (** one tree delivery of the [publish]-th publish; [node] =
          subscriber, [peer] = its tree parent, [dur] = root-to-subscriber
          latency [[pub:<publish>]] *)
  | Mcast_regraft of { lost_parent : int }
      (** an orphaned subtree re-attached; [node] = the orphan's root,
          [peer] = its new parent, [dur] = orphanhood duration
          [[dead:<lost_parent>]] *)

val kind_name : kind -> string
(** ["route_hop"], ["rtt_probe"], ["map_publish"], ["notify"],
    ["ttl_sweep"], ["fault_inject"], ["cache_request"],
    ["cache_replicate"], ["mcast_deliver"], ["mcast_regraft"]. *)

val region_label : int array -> string
(** The path bits concatenated (["01"]), or ["root"] for the empty path. *)

val fault_label : fault -> string
(** ["crash"], ["leave"], ["join"], ["expire %.3f"], ["channel drop"]. *)

type span = {
  seq : int;  (** global emission index, 0-based, never reused *)
  at : float;  (** virtual time (ms) the span started *)
  dur : float;  (** duration (ms); 0 for instant events *)
  kind : kind;
  node : int;  (** subject overlay node; -1 for system-wide events *)
  peer : int;  (** counterpart node; -1 when not applicable *)
}

type t

val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** Fresh tracer.  [capacity] (default 65,536 spans) must be >= 1;
    [clock] (default: frozen at 0) supplies [at] when {!emit} is not given
    one. *)

val emit : t -> ?at:float -> ?dur:float -> ?peer:int -> kind -> node:int -> unit
(** Record one span.  [at] defaults to [clock ()], [dur] to 0, [peer] to
    -1. *)

val spans : t -> span list
(** Retained spans, oldest first (at most [capacity]; earlier spans may
    have been overwritten — see {!dropped}). *)

val emitted : t -> int
(** Spans ever recorded. *)

val length : t -> int
(** Spans currently retained, [min emitted capacity]. *)

val dropped : t -> int
(** Spans lost to ring wraparound, [emitted - length]. *)

val span_json : span -> Prelude.Json.t
(** One Chrome trace event (["ph": "X"], [ts]/[dur] in microseconds,
    [tid] = node, [args] holds [seq], [peer] when >= 0, and [note], the
    payload rendered as text, unless it is empty). *)

val to_jsonl : t -> string
(** All retained spans as JSON Lines, one {!span_json} object per line. *)
