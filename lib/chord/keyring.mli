(** The identifier ring under Chord and Koorde.

    Members sit at distinct keys on a ring of [2^key_bits] positions.
    The ring answers the placement questions both overlays (and their
    soft-state maps) ask: who owns a position, who is in charge of it
    on a de Bruijn hop, and which members fall in an arc.  It holds no
    routing state.

    Member iteration ({!iter}, {!node_ids}) follows a hash table keyed by
    member id, so it depends only on the sequence of {!add} and
    {!remove} calls; the overlays' selectors consume random draws in
    that order. *)

type t

val create : key_bits:int -> t
(** Empty ring of [2^key_bits] positions.  The overlays check
    [key_bits] against their own limits. *)

val key_bits : t -> int

val ring_size : t -> int
(** [2^key_bits]. *)

val size : t -> int
(** Number of members. *)

val mem : t -> int -> bool

val key_taken : t -> int -> bool
(** Whether some member sits at this key. *)

val key_of : t -> int -> int
(** Ring key of a member.  Raises [Invalid_argument] for non-members. *)

val fresh_key : t -> Prelude.Rng.t -> int
(** A uniformly drawn free key: one [Rng.int] draw per attempt, redrawn
    while the key is taken. *)

val add : t -> int -> key:int -> unit
(** Place a member.  The caller guarantees the id is not a member and
    the key is in range and free. *)

val remove : t -> int -> unit
(** Remove a member; a no-op for non-members. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] calls [f id key] for every member, in member order. *)

val node_ids : t -> int array
(** Members in member order. *)

val successor_node : t -> int -> int
(** The member owning ring position [key]: the first member clockwise
    from [key] (wrapping).  Raises [Failure] on an empty ring. *)

val charge_node : t -> int -> int
(** The member whose domain [(own key, successor key]] contains [pos]:
    the predecessor of [successor_node t pos].  Raises [Failure] on an
    empty ring. *)

val arc_members : t -> lo:int -> span:int -> int array
(** Members whose keys fall in [[lo, lo+span)] (mod ring size), in key
    order from [lo]. *)

val between_oc : t -> int -> int -> int -> bool
(** [between_oc t a b x]: [x] lies in the ring interval [(a, b]]; the
    whole ring when [a = b]. *)

val clockwise : t -> int -> int -> int
(** [clockwise t from target]: distance from [from] to [target] going
    clockwise, in [[0, ring_size)]. *)
