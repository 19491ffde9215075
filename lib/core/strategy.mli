(** Neighbor-selection strategies for proximity-neighbor selection.

    When an overlay node must pick its representative for a high-order
    zone (eCAN), a finger arc (Chord) or a prefix region (Pastry), the
    strategy decides which member of the region it takes:

    - [Random_pick] — ignore topology (the paper's baseline);
    - [Hybrid] — the paper's contribution: one soft-state map lookup for
      candidates near the node's own landmark number, then at most [rtts]
      real RTT probes to pick the closest;
    - [Optimal] — the physically closest member, as if infinitely many
      RTTs were allowed (the paper's "optimal" curve isolating the
      overlay's structural penalty). *)

type t =
  | Random_pick
  | Hybrid of { rtts : int; lookup_results : int; lookup_ttl : int }
  | Load_aware of { rtts : int; lookup_results : int; lookup_ttl : int; load_weight : float }
      (** §6 QoS variant: probe candidates like [Hybrid], but rank them by
          [rtt * (1 + load_weight * load)] using the load statistics
          piggybacked on the soft-state entries — trading a little
          network distance for spare forwarding capacity. *)
  | Optimal

val hybrid : ?lookup_results:int -> ?lookup_ttl:int -> rtts:int -> unit -> t
(** [Hybrid] with defaults [lookup_results = max 16 rtts], [lookup_ttl = 2].
    Raises [Invalid_argument] if [rtts < 1], [lookup_results < 1] or
    [lookup_ttl < 0]. *)

val load_aware :
  ?lookup_results:int -> ?lookup_ttl:int -> ?load_weight:float -> rtts:int -> unit -> t
(** [Load_aware] with the same lookup defaults and [load_weight = 1.0].
    Raises [Invalid_argument] under the same conditions as {!hybrid}, or
    if [load_weight < 0]. *)

val to_string : t -> string
