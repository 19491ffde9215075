(** Topology-aware content-cache service over an overlay.

    The overlay libraries route {e keys}; this module puts a service on
    top: a distributed content cache in which every key has a {e home}
    node (the overlay member owning the key's position in the key space)
    and, once it gets hot, up to [replicas - 1] additional copies on
    topologically-near hosts.  The module is overlay-agnostic — a
    {!backend} record supplies membership, the key → home mapping, the
    overlay route to a member and the replica-placement policy, so the
    same request path runs over eCAN, plain CAN, Chord or Pastry.

    A request from a client node proceeds as:

    + the key's live copies are looked up (copies on departed members are
      dropped — the lazy repair a soft-state service relies on);
    + if there are none, the request is a {e miss}: it routes to the
      key's home, pays the modelled origin-fetch penalty on top of the
      delivered path latency, and installs the first copy there;
    + otherwise the copies are ranked — non-overloaded replicas first,
      then by client→replica RTT (the probe plane's cache makes this
      cheap), ties to the lower node id — and the request routes to the
      best one that is still reachable.  Skipping the RTT-nearest copy
      because it is overloaded is {e load shedding} and is counted.

    Delivered latency is the physical latency accumulated along the
    overlay route ([link] over consecutive hops) plus the origin penalty
    on a miss — the service-level number the paper's stretch metric never
    shows.

    Load is counted per serving node over the cache's lifetime.  When a
    node's count crosses [load_threshold] (and again at
    every further multiple), its hottest keys are copied to a near host
    chosen by the backend ([near]), bounded by [replicas] copies per key;
    the node's load is pushed through [publish_load] first, so a backend
    wired to the soft-state maps keeps the entries' load/capacity fields
    fresh and its placement lookups can skip overloaded hosts.  With
    [replicas = 1] the whole replication plane is inert: no placement
    lookups, no load publishes, no [Cache_replicate] spans.

    Everything is deterministic: ranking ties break on node ids and table
    iterations are sorted; the cache reads no clock. *)

type backend = {
  name : string;  (** label for metrics/tables, e.g. ["ecan"] *)
  member : int -> bool;  (** is the node currently an overlay member? *)
  home_of : int -> int;  (** key → the member owning it *)
  route_to : src:int -> dst:int -> int list option;
      (** overlay route from a member to a member (both endpoints
          included); [None] when routing fails, e.g. to a departed node *)
  near : node:int -> exclude:int list -> int option;
      (** replica placement: a member topologically near [node], not in
          [exclude]; [None] when no host qualifies *)
  publish_load : node:int -> load:float -> unit;
      (** feed a node's normalized load (1.0 = at threshold) to
          the backend's load store; called before placement lookups *)
}

type config = {
  replicas : int;  (** max copies per key, >= 1; 1 disables replication *)
  load_threshold : int;  (** requests served that mark a node hot, >= 1 *)
  origin_ms : float;  (** modelled origin-fetch penalty on a miss, >= 0 *)
  hot_keys : int;
      (** hottest keys considered for copying per overload event, >= 1 *)
}

val default_config : config
(** [replicas = 1], [load_threshold = 64], [origin_ms = 150.0],
    [hot_keys = 4]. *)

type outcome = {
  key : int;
  client : int;
  served_by : int;
  hit : bool;
  shed : bool;  (** served by a farther copy because the nearest was hot *)
  hops : int;  (** overlay hops of the delivered route *)
  latency : float;  (** delivered latency, ms (origin penalty included) *)
}

type t

val create :
  ?metrics:Metrics.t ->
  ?labels:Metrics.labels ->
  ?trace:Trace.t ->
  ?clock:(unit -> float) ->
  ?rtt:(src:int -> dst:int -> float option) ->
  ?config:config ->
  link:(int -> int -> float) ->
  backend ->
  t
(** [create ~link backend] builds an empty cache.  [link u v] is the
    physical latency between route-adjacent nodes (pass
    [Topology.Oracle.dist]); [rtt] ranks replicas from the client's side
    ([None] = currently unreachable/unknown, ranked last; defaults to
    [link] wrapped in [Some]) — pass the probe plane's cached
    measurement here.  [clock] is accepted and never read: the cache
    keeps no time.

    With [metrics], the cache maintains [cache_requests] / [cache_hits] /
    [cache_misses] / [cache_sheds] / [cache_failovers] /
    [cache_replications] counters, a [cache_request_ms] histogram of
    delivered latencies and a [cache_load_max] gauge (plus any [labels]).
    With [trace], every request emits a [Cache_request] span and every
    copy a [Cache_replicate] span.

    Raises [Invalid_argument] on out-of-range config fields. *)

val config : t -> config

val request : t -> client:int -> key:int -> outcome
(** Serve one request.  Raises [Invalid_argument] if [client] is not a
    member.  Raises [Failure] if even the key's home is unroutable (does
    not happen on consistent overlays). *)

val replicas_of : t -> int -> int list
(** Current copy holders of a key, placement order (home first); [[]] if
    never requested.  Departed members are pruned lazily by requests, so
    a copy on a just-crashed node may still be listed. *)

val stored_keys : t -> int list
(** Keys with at least one copy, ascending. *)

val load_of : t -> int -> int
(** Requests served by a node so far. *)

val max_load : t -> int
(** Most requests served by a single node so far. *)

val requests : t -> int
val hits : t -> int
val misses : t -> int
val sheds : t -> int

val failovers : t -> int
(** Requests that skipped at least one unreachable copy. *)

val replications : t -> int

val rank_copies : t -> client:int -> int list -> int list * bool
(** [rank_copies t ~client holders] is the order in which {!request}
    tries the copies on [holders] for [client] — cool (below-threshold)
    copies before hot ones, then by the [rtt] ranking ([None] last), ties
    to the lower id — and whether the first of them is not the
    RTT-nearest copy (a shed).  Calls [rtt] once per holder, in list
    order.  It is the ranking {!request} runs, exposed for tests. *)

val check_invariants : t -> (unit, string) result
(** Copy lists are duplicate-free, never exceed [config.replicas], and
    every listed holder was a member when listed (holders are only
    checked live on the request path). *)
