(** Construction of a topology-aware overlay over a physical topology.

    [build] performs the paper's whole pipeline: sample the overlay
    membership, grow the CAN/eCAN by successive joins, pick landmarks,
    measure every member's landmark vector, publish all members into the
    global soft-state maps, and fill the expressway routing tables with
    the configured neighbor-selection strategy. *)

type config = {
  dims : int;  (** CAN dimensionality (paper default 2) *)
  span_bits : int;  (** eCAN digit width, k = 2^span_bits zones per higher order *)
  overlay_size : int;  (** number of overlay members *)
  landmark_count : int;
      (** at least 3: landmark numbers index a vector's first 3 components
          ({!Landmark.Number.default_scheme}) *)
  strategy : Strategy.t;
  condense : float;  (** map condense/reduction rate *)
  ttl : float;  (** soft-state entry lifetime, ms *)
  shards : int;  (** soft-state expiry shards (see {!Softstate.Store.create}) *)
  curve : Landmark.Number.curve;  (** space-filling curve for landmark numbers *)
  probe : Engine.Probe.config;
      (** probe-plane configuration shared by every RTT measurement the
          overlay spends (landmark vectors, per-slot selection) *)
  domains : int;
      (** ignored: the store runs on the calling domain (DESIGN.md §12).
          Kept only so [bench/perf] builds; ROADMAP item 3 deletes it. *)
  seed : int;
}

val default_config : config
(** Table 2 defaults: 2-d eCAN, span 2, 4096 members, 15 landmarks,
    [Hybrid {rtts = 10}], condense 1.0, ttl 600,000 ms, 1 shard, Hilbert,
    probe {!Engine.Probe.default_config} (sequential, uncached — the seed
    path), domains 0 (ignored), seed 42. *)

type join_cost = {
  vector_ms : float;  (** modelled wall-clock of the landmark-vector batch *)
  selection_ms : float;  (** modelled wall-clock of per-slot candidate probing *)
}
(** Modelled latency breakdown of one {!join_node} (the RTT-probe phases;
    map lookups and publishes are accounted separately by the bus). *)

type t = {
  config : config;
  oracle : Topology.Oracle.t;
  ecan : Ecan.Expressway.t;
  store : Softstate.Store.t;
  landmarks : Landmark.Landmarks.t;
  scheme : Landmark.Number.scheme;
  members : int array;  (** overlay member node ids (physical ids) *)
  vectors : (int, float array) Hashtbl.t;  (** member -> landmark vector *)
  prober : Engine.Probe.t;
      (** the shared probe plane ([config.probe]) every measurement —
          build, join, re-selection — drains through *)
  rng : Prelude.Rng.t;  (** generator for post-build sampling *)
}

val build :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  ?trace:Engine.Trace.t ->
  ?clock:(unit -> float) ->
  Topology.Oracle.t ->
  config ->
  t
(** Build the overlay.  Raises [Invalid_argument] if [overlay_size]
    exceeds the topology size or parameters are out of range.  [clock]
    feeds the soft-state store (defaults to a frozen clock).

    [metrics] / [labels] / [trace] are threaded into the CAN overlay, the
    eCAN expressway, and the soft-state store, so one registry observes
    the whole stack (see {!Engine.Metrics} for the instrument names each
    layer registers). *)

val vector_of : t -> int -> float array
(** Landmark vector of a member.  Raises [Not_found] for non-members. *)

val selector : t -> Strategy.t -> Ecan.Expressway.selector
(** The eCAN selector implementing a strategy against this overlay's
    soft-state and oracle (exposed so tables can be rebuilt under a
    different strategy without reconstructing the overlay). *)

val rebuild_tables : t -> Strategy.t -> unit
(** Re-run neighbor selection for every member under a new strategy
    ({!build} fills its tables the same way).  The result is exactly
    [Ecan.Expressway.build_tables t.ecan ~selector:(selector t strategy)]:
    the same entries, referrer order, probes, counters, spans and rng
    draws.  Under [Hybrid] and [Load_aware] it gets there in two passes
    (DESIGN.md §13, "Region-ordered fill"): every slot's map lookup
    first, grouped by region, then the node-by-node probes and picks,
    reading each slot's candidates from one flat buffer of
    [min rtts lookup_results] int32 cells per slot. *)

val join_node : t -> int -> join_cost
(** Dynamic join of a fresh physical node: measures its landmark vector
    (one concurrent batch through the prober), inserts it into the CAN at
    a random point, publishes its soft state and builds its routing table
    under [t.config.strategy].  Existing entries are rehosted to reflect
    the new zone map.  Returns the modelled probe-latency breakdown: with
    probe window >= landmark count the vector phase costs the {e max}
    landmark RTT instead of the sum. *)

val stale_slots : t -> int list -> (int * int * int) list
(** Table slots [(node, row, digit)] whose entry targets one of the given
    relocated members but whose region no longer contains that target —
    the residue a zone takeover leaves in other nodes' tables.  Read from
    the reverse-entry index ({!Ecan.Expressway.referrers}), so the cost
    follows the relocated members' referrers, not the overlay size.

    Order contract: holders in reverse {!Can.Overlay.node_ids} order,
    then [(row, digit)] ascending within a holder — the order a fold over
    every member's table gives.  Re-selection consumes the list in this
    order (its probes and the rng's fallback picks), so seeded outputs
    depend on it. *)

val leave_node : t -> int -> unit
(** Dynamic departure (proactive policy): retract soft state, remove from
    the CAN, rehost the remaining entries and clear dangling table
    entries (the departed node's referrers, read from the reverse-entry
    index). *)
