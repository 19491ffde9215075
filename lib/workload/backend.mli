(** The one adapter set for the ring-like overlays: every workload drives
    Chord, Pastry and Koorde through the same record, and ranks
    neighbor candidates with the same landmark-then-RTT picker.

    Each record hides the overlay's own handle; its fields are the
    operations the workloads need — membership, joins and leaves,
    stabilisation under a caller-supplied selection policy, keyed
    routing to the key's owner, and the convergence-grade invariants
    (structure consistent and every table slot a clean rebuild would fill
    is filled).  eCAN and CAN stay on {!Core.Builder}.  The service
    adapters at the end are the one set the cache and multicast
    workloads use for all five overlays. *)

type pick = node:int -> candidates:int array -> int option
(** A neighbor-selection policy: the entry [node] keeps among
    [candidates] (never empty, may contain [node] itself). *)

type t = {
  name : string;  (** ["chord"], ["pastry"] or ["koorde"] *)
  mem : int -> bool;
  node_ids : unit -> int array;
  add : int -> unit;  (** join under a fresh random key from the creation rng *)
  remove : int -> unit;  (** leave; entries pointing at the node are cleared *)
  rebuild : pick:pick -> unit;
      (** stabilisation: rebuild every member's tables, one [pick] call per
          slot with candidates *)
  route : src:int -> key:int -> int list option;
      (** hop list including both endpoints; ends at [owner key] *)
  owner : int -> int;  (** member responsible for a key *)
  key_space : int;  (** keys are drawn from [[0, key_space)] *)
  key_of : int -> int;  (** a member's own key: routing to it reaches it *)
  invariants : unit -> (unit, string) result;
      (** the overlay's structural invariants, then table completeness:
          every slot whose candidate region is inhabited holds an entry
          (Chord fingers, Pastry routing slots), or every cover list
          matches the membership (Koorde) *)
}

type kind =
  | Chord
  | Pastry
  | Koorde of int  (** de Bruijn fanout k *)

val create : kind -> Prelude.Rng.t -> t
(** An empty overlay of the given kind with default geometry; [add]
    draws member keys from the rng. *)

val hybrid_pick :
  Engine.Probe.t ->
  vector_of:(int -> float array) ->
  budget:int ->
  node:int ->
  candidates:int array ->
  int option * int
(** The paper's selection step on top of {!Proximity.Search.hybrid_curve}:
    rank [candidates] (minus [node]) by landmark-vector distance, probe
    the first [budget] through the prober, keep the nearest (the earlier
    one on ties).  Returns the pick — [None] when no candidate other than
    [node] exists — and the number of RTT probes spent.  [budget] must be
    >= 1. *)

val publish_load : Core.Builder.t -> node:int -> load:float -> unit
(** Write [node]'s load (capacity 1) into every region entry it has. *)

(** {1 Service adapters}

    The cache and multicast workloads drive every overlay through one
    record; each experiment projects it onto its engine's backend
    ({!Engine.Cache.backend}, {!Engine.Mcast.backend}). *)

type service = {
  name : string;  (** row label *)
  member : int -> bool;  (** is the node currently an overlay member? *)
  home_of : int -> int;  (** key → the member owning it (keys hashed with {!mix62}) *)
  route_to : src:int -> dst:int -> int list option;
      (** overlay route between members, both endpoints included; [None]
          when [dst] is not a member or routing fails *)
  candidates : node:int -> exclude:int list -> int list;
      (** up to 12 members near [node], best first, none of them [node]
          or in [exclude]: replica hosts and relay proposals *)
  publish_load : node:int -> load:float -> unit;
      (** feed a node's normalized load to the placement's load store *)
  on_remove : int -> unit;
      (** row-specific upkeep after a member leaves or crashes *)
  on_join : int -> unit;  (** row-specific upkeep after a member joins *)
}

val service_rtt :
  metrics:Engine.Metrics.t ->
  labels:Engine.Metrics.labels ->
  clock:(unit -> float) ->
  Topology.Oracle.t ->
  src:int ->
  dst:int ->
  float option
(** [service_rtt ~metrics ~labels ~clock oracle] is the RTT the service
    rows rank copies and relays by: a fresh prober over [oracle] (its
    [probe_*] instruments in [metrics] under [labels]) that caches each
    measured RTT for 600 s of [clock] time.  A probe always succeeds, so
    the answer is always [Some]. *)

val mix62 : int -> int
(** {!Prelude.Rng.splitmix64}, truncated to 62 bits: spreads consecutive key
    ids over the key space so homes are uniform whatever the key order. *)

val builder_service :
  name:string ->
  route:(src:int -> Geometry.Point.t -> int list option) ->
  Core.Builder.t ->
  service
(** An eCAN or plain-CAN row over the builder's substrate, [route] being
    the overlay's routing to a point ([Ecan.Expressway.route] or
    [Can.Overlay.route]): homes are the CAN owners of the key's hashed
    point, routes go to the centre of the destination's zone, candidates
    come from a root-region soft-state lookup around [node]'s landmark
    vector (12 results, 2 rings, hosts loaded past 0.99 skipped, live
    members only), and loads are written the way [publish_load] above
    writes them.  No upkeep: the maintenance plane keeps the structure. *)

val ring_service : seed:int -> Core.Builder.t -> kind -> service
(** A Chord, Pastry or Koorde row over the builder's members, keys drawn
    from a rng seeded by [seed] and the kind, tables built with
    {!hybrid_pick} (budget 5) on the builder's landmark vectors through
    one plain prober of the row's own (default configuration, no
    instruments).
    Candidates are the physically nearest members (ground truth, as the
    ring rows have no soft-state plane), [publish_load] is a no-op, and
    [on_remove]/[on_join] update the membership and rebuild every
    table. *)
