(** Topology-aware Zipf content cache: a service workload on the overlay.

    Clients attached to overlay members (cycling online/offline on a
    seeded duty cycle) issue Zipf-distributed requests for keys mapped
    onto the overlay key space; every backend — eCAN with topology-aware
    tables, the same eCAN rebuilt with random tables, plain greedy CAN,
    Chord, Pastry, Koorde — serves the {e identical} request schedule through
    {!Engine.Cache} and reports delivered-latency percentiles, hit rate,
    hotspot replications, load sheds and the max per-node load.  See the
    module comment in the implementation for the two controlled
    comparisons (aware vs random at equal hit rate; replication on vs
    off at equal hit rate). *)

type stats = {
  label : string;
  requests : int;
  replications : int;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  hit_rate : float;
  max_load : int;  (** most requests served by a single node *)
  key_digest : int;  (** order-independent multiset digest of requested keys *)
}

val data :
  ?seed:int ->
  ?zipf_s:float ->
  ?clients:int ->
  ?replicas:int ->
  ?trace:Engine.Trace.t ->
  Run.t ->
  stats list
(** Run every backend over the shared schedule and return the rows in
    order: eCAN aware, eCAN random-tables, plain CAN, Chord, Pastry,
    Koorde, eCAN aware with [replicas = 1] (replication disabled).  The first
    three and the last share the same CAN substrate and key homes, so
    their hit rates are equal by construction.  Every row records into
    the run's registry. *)

val run :
  ?seed:int -> ?zipf_s:float -> ?clients:int -> ?replicas:int -> Run.t -> Tableout.block list
(** {!data} as a table whose cells are per-backend [cache_*] gauges and
    the cache's own counters, plus the headline comparison gauges, in
    the run's registry; the registry entry runs it with its defaults. *)

val backend_of : Backend.service -> Engine.Cache.backend
(** The cache rows' projection of the shared service adapter: [near] is
    the head of [candidates]; the other fields carry over. *)
