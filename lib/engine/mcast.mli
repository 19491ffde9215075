(** Topology-aware dissemination trees over an overlay.

    The overlay libraries route point-to-point; this module puts a
    one-to-many {e service} on top: a group of subscriber nodes organized
    into a bounded-degree tree rooted at a publisher, every tree edge
    realized as an overlay route.  The module is overlay-agnostic — a
    {!backend} record supplies membership, the overlay route between two
    members, and the candidate relays the soft-state maps propose, so
    the same tree logic runs over eCAN, plain CAN, Chord or Pastry.

    {2 Placement policies}

    Under the {!Aware} policy a joining subscriber is placed under the
    in-tree node with spare degree whose RTT to it is smallest (unknown
    RTT ranks last, ties to the lower node id) — and, when the backend's
    map lookup proposes an out-of-tree member {e strictly} closer than
    every in-tree spare, that member is recruited as an interior
    {e relay}: it attaches under its own best in-tree spare and the
    subscriber attaches under it.  The candidate list is where the
    maps' coordinate/load/capacity fields do the work — a backend wired
    to {!Softstate.Store.lookup} with [?max_load] proposes
    landmark-near, non-overloaded members, and every attach pushes the
    parent's fresh fanout load back through [publish_load] so the maps
    keep skipping saturated relays.  Under {!Random} the parent is a
    seeded uniform draw over the in-tree spares — the control arm: same
    group, same degree bound, no topology knowledge.

    {2 Churn}

    {!drop_member} removes a dead or departed member; its children
    become {e orphans} (timestamped at the drop — the fault instant).
    An orphaned subtree stays internally intact but is skipped by
    publishes until {!regraft} re-attaches its root, excluding its own
    descendants so no cycle can form.  Regraft latency (drop to regraft,
    the injected clock's time) is the tree-repair number this subsystem
    exists to measure; drive {!regraft} from a {!Pubsub.Bus}
    [Departure_of] watch and it includes the soft-state plane's real
    detection delay.

    Everything is deterministic: spare scans iterate in ascending node
    order, the random policy draws from a seeded generator, and all
    timing comes from the injected clock. *)

type policy = Aware | Random


type backend = {
  name : string;  (** label for metrics/tables, e.g. ["ecan"] *)
  member : int -> bool;  (** is the node currently an overlay member? *)
  route_to : src:int -> dst:int -> int list option;
      (** overlay route from a member to a member (both endpoints
          included); [None] when routing fails, e.g. to a departed node *)
  candidates : node:int -> exclude:int list -> int list;
      (** relay proposals for a joining subscriber: members near [node],
          best first, none in [exclude] — wire a soft-state
          [Store.lookup ?max_load] here so overloaded hosts are skipped *)
  publish_load : node:int -> load:float -> unit;
      (** feed a tree node's normalized fanout ([children /. degree]) to
          the backend's load store after every attach *)
}

type config = {
  degree : int;  (** max children per tree node, >= 1 *)
  policy : policy;
  seed : int;  (** drives the {!Random} policy's parent draws *)
}

val default_config : config
(** [degree = 4], [policy = Aware], [seed = 42]. *)

type delivery = {
  publish_seq : int;  (** 0-based publish index *)
  delivered : (int * float * float) list;
      (** (subscriber, delivery latency ms, stretch vs the direct
          overlay route), subscriber-ascending *)
  missed : int list;  (** subscribers skipped (orphaned / unroutable), ascending *)
  max_stress : int;  (** most traversals of one physical link this publish *)
  link_count : int;  (** distinct physical links used *)
  traversals : int;  (** total link traversals (sum over links of stress) *)
  cost_ms : float;
      (** resource usage a la end-system multicast: sum over traversed
          links of stress x physical link latency — the aggregate
          network cost of this publish *)
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
  root:int ->
  backend ->
  t
(** [create ~link ~root backend] builds a tree holding only the
    publisher [root].  [link u v] is the physical latency between
    route-adjacent nodes (pass [Topology.Oracle.dist]); [rtt] ranks
    parent candidates from the child's side ([None] = currently
    unknown/unreachable, ranked last; defaults to [link] wrapped in
    [Some]) — pass the probe plane's cached measurement here.  [clock]
    (default frozen at 0) timestamps orphanhood.

    With [metrics], the tree maintains [mcast_subscribes] /
    [mcast_relays] / [mcast_publishes] / [mcast_delivered] /
    [mcast_missed] / [mcast_orphaned] / [mcast_regrafts] counters and
    [mcast_delivery_ms] / [mcast_stretch] / [mcast_link_stress] /
    [mcast_regraft_ms] / [mcast_tree_depth] histograms (plus any
    [labels]).  With [trace], every delivery emits an [Mcast_deliver]
    span and every regraft an [Mcast_regraft] span whose [lost_parent]
    names the dead parent — the victim the repair analyzer keys on.

    Raises [Invalid_argument] if [degree < 1] or [root] is not a
    member. *)

val config : t -> config
val root : t -> int

val subscribe : t -> int -> unit
(** Join the group: attach the node under a parent chosen by the
    placement policy (recruiting a relay first under {!Aware} when the
    maps propose a strictly closer one).  A node already in the tree as
    a recruited relay is promoted to subscriber in place.  Raises
    [Invalid_argument] if the node is not a member or is already
    subscribed. *)

val drop_member : t -> int -> bool
(** The member died or departed: detach it (its children become orphans,
    timestamped now) and forget it.  Returns [false] (and does nothing)
    if the node is not in the tree.  Raises [Invalid_argument] on the
    root — the publisher cannot be dropped. *)

val regraft : t -> int -> unit
(** Re-attach an orphaned subtree's root under a freshly chosen parent
    (policy placement, the orphan's own descendants excluded), recording
    the orphanhood duration.  Raises [Invalid_argument] if the node is
    not currently an orphan. *)

val publish : t -> delivery
(** Disseminate one message from the root: walk the tree breadth-first,
    realize each edge as an overlay route, accumulate physical latency
    along the path, and deliver to every reachable subscriber.  A child
    whose edge fails to route — and every node below it — is missed, as
    is every orphaned subtree.  Stretch compares against the direct
    overlay route root → subscriber. *)

val members : t -> int list
(** Everything in the tree (root, subscribers, relays, orphans),
    ascending. *)

val subscribers : t -> int list
val relays : t -> int list
(** Recruited interior nodes that never subscribed, ascending. *)

val orphans : t -> int list
(** Current orphaned subtree roots, ascending. *)

val parent_of : t -> int -> int option
(** [None] for the root, for orphans and for nodes not in the tree. *)

val children : t -> int -> int list
(** A node's children in attach order; [[]] if absent. *)

val size : t -> int
val publishes : t -> int
val regrafts : t -> int
val relays_recruited : t -> int

val check_invariants : t -> (unit, string) result
(** Parent/child links are mutually consistent, no node exceeds the
    degree bound, child lists are duplicate-free, and walking down from
    the root plus every orphan root reaches each tree node exactly once
    (connected, acyclic). *)
