(** Global soft-state: per-region coordinate maps stored on the overlay.

    For every high-order zone (a path prefix of the eCAN split tree) there
    is a {e map} holding one entry per member node of the region: the
    node's landmark vector, landmark number, and optional load statistics.
    The map for region [Z] is itself stored inside (a condensed fraction
    of) [Z]: each entry sits at the position [h(p, dp, dz, Z)] derived
    from the node's landmark number, and is held by the overlay node whose
    CAN zone contains that position.  Nodes that are physically close have
    close landmark numbers and therefore their entries land on the same or
    nearby hosts — so a single overlay lookup retrieves the right
    candidate set (Table 1 of the paper).

    Entries are {e soft state}: they carry an expiry time and vanish
    unless refreshed.  The clock is injected so the store can run under
    the discrete-event engine or under manual time in tests. *)

module Entry : sig
  type t = {
    node : int;  (** the described node *)
    vector : float array;  (** its landmark vector *)
    number : int;  (** its landmark number *)
    position : Geometry.Point.t;  (** where in the map's box it is stored *)
    mutable host : int;
        (** the overlay node holding this entry — the owner of [position],
            cached at publish time and refreshed by {!rehost} *)
    mutable expires : float;
    mutable load : float;  (** current load fraction, for QoS extensions *)
    mutable capacity : float;  (** forwarding capacity, for QoS extensions *)
  }
end

type t

val create :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  ?trace:Engine.Trace.t ->
  ?pool:Engine.Dpool.t ->
  ?shards:int ->
  ?condense:float ->
  ?default_ttl:float ->
  ?clock:(unit -> float) ->
  scheme:Landmark.Number.scheme ->
  Can.Overlay.t ->
  t
(** [create ~scheme can] builds an empty store over a CAN overlay.

    [shards] (default 1) partitions the region maps by region-prefix key
    into independently-swept shards, each with its own TTL expiry heap;
    sharding never changes which entries exist, only how sweep work is
    scheduled (see {!sweep_shard}).

    [pool] (default {!Engine.Dpool.default}[ ()]) hosts the store's
    shard-parallel phases: the {!sweep_expired} {e scans}, {!rehost} and
    the {!hosting_stats} counting pass fan out one read-only (or
    shard-disjoint) task per shard, while every mutation of shared state
    is applied on the calling domain in shard order.  {!sweep_shard}
    runs on the calling domain.  The contract (DESIGN.md §12) guarantees
    results — including all metrics below — are byte-identical across
    pool sizes; shard [i]'s expiry heap is touched only from slot
    [i mod size] of the pool during a batch and from the calling domain
    otherwise.

    [condense] (default 1.0) is the paper's map condense/reduction rate:
    the map of a region occupies the sub-box of the region with volume
    fraction [min (condense /. 8) 1.0], so 1/8 at rate 1.  Raising
    [condense] above 1 "enlarges the map" to spread entries over more
    hosts, lowering entries-per-node (Fig. 16).

    [default_ttl] (default 600,000 ms = 10 min) is the soft-state
    lifetime; [clock] defaults to a frozen clock at 0 (pass
    [fun () -> Sim.now sim] to run under the engine).

    With [metrics], the store maintains [store_publishes] /
    [store_refreshes] / [store_expired] / [store_sweep_visited] counters
    (plus any [labels]); [store_sweep_visited] counts expiry-heap records
    popped by sweeps — it scales with the number of expired entries (plus
    superseded stamps), not with the total entry population.  It also
    maintains [domain_batches] / [domain_tasks]: pool batches and tasks
    issued by the shard-parallel phases ({!sweep_shard} issues none).
    These count {e dispatch structure} (batches per call site, tasks per
    shard/chunk), which
    depends only on the data and the shard count — never on the pool
    size — so they stay byte-identical between single- and multi-domain
    runs and serve as regression gates on the parallel plumbing.  With
    [trace], every {!publish} emits a [Map_publish {region}] span (node
    = map host, peer = described node) and every sweep a
    [Ttl_sweep {purged}] span. *)

val can : t -> Can.Overlay.t

val shard_count : t -> int
(** Number of expiry shards the store was created with. *)

val shard_of_region : t -> int array -> int
(** The shard that owns a region's map (region-prefix key mod
    {!shard_count}); stable for the store's lifetime. *)

val map_box : t -> int array -> Geometry.Zone.t
(** The (condensed) box of a region's map. *)

val publish : t -> region:int array -> node:int -> vector:float array -> unit
(** Insert or overwrite the entry describing [node] in a region's map,
    stamped with the default TTL.  Overwriting is a refresh-by-replacement:
    the replaced entry's load statistics ({!Entry.t.load} /
    {!Entry.t.capacity}) carry over to the new entry. *)

val publish_all : t -> span_bits:int -> node:int -> vector:float array -> unit
(** Publish [node] into every high-order zone enclosing its CAN zone
    (prefixes of its path in steps of [span_bits], including the root
    region) — at most [O(log n)] maps, as the paper notes. *)

val unpublish : t -> region:int array -> node:int -> unit
(** Proactive departure: drop the entry immediately. *)

val unpublish_everywhere : t -> int -> unit
(** Drop every entry describing a node, across all regions. *)

val refresh : t -> region:int array -> node:int -> bool
(** Re-stamp the entry's expiry at [now + default_ttl] and return
    [true]; return [false], changing nothing, if the entry is absent or
    already expired.  One map probe: a caller that wants "refresh, else
    re-publish" needs no {!find} first. *)

val refresh_prefix : t -> path:int array -> len:int -> node:int -> bool
(** [refresh_prefix t ~path ~len ~node] is
    [refresh t ~region:(Array.sub path 0 len) ~node] without building the
    region.  Raises [Invalid_argument] unless [0 <= len <= length path]. *)

val update_stats : t -> region:int array -> node:int -> load:float -> capacity:float -> unit
(** Update the load statistics piggybacked on an entry. *)

val find : t -> region:int array -> node:int -> Entry.t option
(** Direct (non-overlay) access to a live entry; expired entries are
    invisible. *)

val host_of : t -> region:int array -> vector:float array -> int
(** The overlay node a lookup with this vector lands on (owner of the
    hashed position in the map box). *)

val lookup_route : t -> from:int -> region:int array -> vector:float array -> int list option
(** The overlay route a lookup issued by [from] takes to reach the map
    host (greedy CAN routing to the hashed position) — the message cost
    of {!lookup}, for accounting. *)

val lookup :
  t ->
  region:int array ->
  vector:float array ->
  ?max_results:int ->
  ?ttl:int ->
  ?max_load:float ->
  unit ->
  Entry.t list
(** The paper's Table 1 procedure.  Route to the host designated by the
    querying node's landmark vector; collect its live entries for the
    region; if fewer than [max_results] (default 16) were found, widen the
    search to hosts up to [ttl] (default 2) CAN hops away inside the map
    box.  Results are ordered by landmark-space distance to [vector],
    closest first, ties broken by ascending node id (a map holds one
    entry per node, so the order is total), truncated to [max_results].
    The widening stops on the count of every admissible live entry seen,
    not on the truncated result.

    The lookup keeps only the best [max_results] entries as it goes, in
    a bounded buffer.  So the entries it examines cost no allocation
    beyond one boxed distance (2 words) each.  The rest is the result
    list, fixed per-call scratch (the hashed position, the buffer and
    the scan closures), and per visited host two list cells (the
    visited set and the ring frontier) plus the option its bucket lookup
    returns, about 8 words; each widening ring adds its own closures.
    On the [alloc] experiment's fixture (256-member CAN, root map,
    default bounds) a lookup that stays on its start host and examines
    16 entries allocates 253 words; the fixture's lookups visit 1 to 12
    hosts, mostly 4 to 6, and average 331 words
    ([alloc_minor_words_per_lookup]).

    [max_load] consults the load statistics piggybacked on the entries
    ({!Entry.t.load}, kept fresh by {!update_stats}): entries whose load
    exceeds the bound are skipped entirely, so an overloaded node never
    enters the candidate set — the QoS/§6 hook the cache service's
    replica placement uses.  Omitted = no load filtering (the default
    lookup is unchanged). *)

val region_entries : t -> int array -> Entry.t list
(** All live entries of a region (ground truth / tests). *)

val regions_of : t -> int -> int array list
(** The regions in whose maps a node currently has a live entry. *)

val described_nodes : t -> int list
(** Every node currently described by at least one live entry, whether or
    not it is still an overlay member — the population a liveness-polling
    maintainer must check. *)

val entries_at_host : t -> int -> int
(** Number of live entries held by an overlay node across all maps
    (Fig. 16's "map entries / node"). *)

val avg_entries_per_node : t -> float
(** Mean of [entries_at_host] over current overlay members.  Invariant in
    the condense rate (the total entry count does not change); see
    {!hosting_stats} for the per-hosting-node distribution. *)

val hosting_stats : t -> Prelude.Stats.summary
(** Distribution of [entries_at_host] over the nodes that host at least
    one entry — Fig. 16's "map entries / node".  Condensing maps
    concentrates entries on fewer hosts (higher mean), enlarging them
    spreads entries thin. *)

val expire_sweep : t -> int
(** Purge expired entries; returns how many were dropped. *)

val sweep_expired : t -> (int array * Entry.t) list
(** Like {!expire_sweep} but returns the purged [(region, entry)] pairs,
    so a maintenance layer can turn TTL expiry into departure
    notifications for the region's subscribers.  Sweeps every shard; the
    cost is O(expired · log heap), independent of the live population, and
    the purge order is deterministic (ascending expiry within a shard,
    shards in index order).

    Runs as one pool batch of shard-count scan tasks: each shard's heap
    is popped and its due entries collected on the shard's pool slot
    (reads only), then all purges are applied on the calling domain in
    shard order — reproducing the sequential purge order exactly. *)

val sweep_shard : t -> int -> (int array * Entry.t) list
(** Sweep a single shard (raises [Invalid_argument] out of range) — the
    unit of work a maintenance plane schedules independently per shard so
    no single sweep touches the whole store.  Scan and purges both run
    on the calling domain, between pool batches, and dispatch nothing to
    the pool. *)

val inject_staleness : t -> rng:Prelude.Rng.t -> fraction:float -> int
(** Fault injection: age a random [fraction] of all live entries to
    expired-as-of-now.  Returns how many entries were aged. *)

val rehost : t -> unit
(** Recompute entry hosting after overlay membership changed (zones moved).
    Positions are stable; only the position->owner assignment is redone,
    and only where it can have changed: the entries held by a host that
    left the overlay, or whose zone changed since its entries were
    placed, are re-placed with [owner_of]; every other entry keeps its
    host untouched.  A join therefore re-places about the splitting
    owner's entries and a leave those of the two or three hosts it
    merged or moved, not every entry of every map.  A host counts as
    moved when its CAN node record or path array is not physically the
    one it had when it was first given a bucket or last re-placed
    ([Can.Overlay] makes a new node record on every join and a new path
    array on every zone change, and never writes one in place).

    Shard-parallel, one pool batch of shard-count tasks: task [i] reads
    and writes only shard [i]'s host index and the buckets of the maps
    shard [i] owns, so no two tasks share state and the result is
    independent of the pool size. *)

val check_invariants : t -> (unit, string) result
(** Entry positions lie in their map boxes; hosting matches CAN ownership;
    per-host index agrees with the maps, and each shard's host index
    names exactly the buckets its maps hold. *)
