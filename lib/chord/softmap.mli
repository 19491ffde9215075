(** Soft-state coordinate map on an identifier ring (paper appendix: "in
    the case of Chord, we can simply use the landmark number as the key
    to store the information of a node on a node whose ID is equal to or
    greater than the landmark number").

    Every member publishes one entry under the ring key derived from its
    landmark number, so physically-close nodes (close landmark numbers)
    are stored on the same or succeeding ring hosts.  A lookup routes to
    the querying node's own landmark key and walks the successor chain
    collecting candidates.  The map sits on a {!Keyring.t}, so it serves
    both Chord ({!Ring.keyring}) and Koorde, whose de Bruijn overlay keeps
    the same ring underneath; there the [in_arc] filter takes a node's
    image arc instead of a finger arc. *)

type entry = {
  node : int;
  vector : float array;
  number : int;
  store_key : int;  (** ring position the entry is stored under *)
}

type t

val create : scheme:Landmark.Number.scheme -> Keyring.t -> t
(** An empty map on the given ring.  Membership changes of that ring
    show through; {!rehome} moves entries to their new hosts. *)

val store_key_of : t -> float array -> int
(** Ring key a vector's entry is stored under (landmark number scaled to
    the ring size). *)

val publish : t -> node:int -> vector:float array -> unit
(** Insert or refresh the entry describing [node].  Raises
    [Invalid_argument] if the ring is empty. *)

val unpublish : t -> int -> unit

val rehome : t -> unit
(** Recompute entry->host assignment after ring membership changed. *)

val entries_at : t -> int -> entry list
(** Entries hosted by a ring member. *)

val lookup :
  t ->
  vector:float array ->
  ?in_arc:int * int ->
  ?max_results:int ->
  ?ttl:int ->
  unit ->
  entry list
(** Route to the host of [vector]'s landmark key and walk up to [ttl]
    (default 32) successor hosts, collecting entries — optionally only
    those whose {e owner's} ring key lies in [in_arc = (lo, span)] (a
    finger arc or an image arc).  Results sorted by landmark-vector
    distance, truncated to [max_results] (default 16). *)
