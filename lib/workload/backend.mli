(** The one adapter set for the ring-like overlays: every workload drives
    Chord, Pastry and Koorde through the same record, and ranks
    neighbor candidates with the same landmark-then-RTT picker.

    Each record hides the overlay's own handle; its fields are the
    operations the workloads need — membership, joins and leaves,
    stabilisation under a caller-supplied selection policy, keyed
    routing to the key's owner, and the convergence-grade invariants
    (structure consistent and every table slot a clean rebuild would fill
    is filled).  eCAN and CAN stay on {!Core.Builder}; the two soft-state
    helpers at the end are what their cache and multicast rows share. *)

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
  Topology.Oracle.t ->
  vector_of:(int -> float array) ->
  budget:int ->
  node:int ->
  candidates:int array ->
  int option * int
(** The paper's selection step on top of {!Proximity.Search.hybrid_curve}:
    rank [candidates] (minus [node]) by landmark-vector distance, probe
    the first [budget] by RTT, keep the nearest (the earlier one on
    ties).  Returns the pick — [None] when no candidate other than
    [node] exists — and the number of RTT probes spent.  [budget] must be
    >= 1. *)

val nearest : Topology.Oracle.t -> int array -> node:int -> exclude:int list -> int list
(** [nearest oracle ids ~node ~exclude]: [ids] minus [node] and
    [exclude], sorted by (true distance to [node], id).  The ground-truth
    placement the ring rows of the service workloads use. *)

val map_candidates : Core.Builder.t -> node:int -> exclude:int list -> int list
(** Root-region soft-state lookup around [node]'s landmark vector (12
    results, 2 rings, hosts loaded past 0.99 skipped), keeping live CAN
    members other than [node] and [exclude]: the eCAN/CAN rows' replica
    and relay placement. *)

val publish_load : Core.Builder.t -> node:int -> load:float -> unit
(** Write [node]'s load (capacity 1) into every region entry it has. *)
