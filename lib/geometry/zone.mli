(** Axis-aligned half-open boxes in the unit torus [0,1)^d.

    CAN zones are produced by repeated binary splits of the full space, so
    every zone is a dyadic box.  Split dimensions cycle with depth
    (dimension [depth mod d]), the CAN convention that keeps zones as
    square as possible. *)

type t = { lo : float array; hi : float array }
(** Invariant: [0 <= lo.(i) < hi.(i) <= 1] for every dimension. *)

val full : int -> t
(** The whole space of a given dimensionality. *)

val dims : t -> int

val volume : t -> float

val center : t -> Point.t

val contains : t -> Point.t -> bool
(** Membership in the half-open box. *)

val split : t -> int -> t * t
(** [split z dim] halves the zone along a dimension; returns (lower,
    upper). *)

val split_dim_at_depth : int -> int -> int
(** [split_dim_at_depth d depth] is the dimension CAN splits next,
    [depth mod d]. *)

val subzone : t -> Point.t -> Point.t
(** [subzone z p] maps a point of the unit space affinely into [z].  Used
    to position soft-state entries inside (a condensed fraction of) a
    region. *)

val shrink : t -> float -> t
(** [shrink z f] is the sub-box anchored at [z.lo] whose side lengths are
    scaled by [f] in every dimension, [0 < f <= 1].  Implements condensed
    maps: the map for a region is stored in a fraction of the region. *)

val is_neighbor : t -> t -> bool
(** CAN adjacency on the torus: the zones abut along exactly one dimension
    and their projections overlap (with positive length, or are both
    degenerate-equal) in every other dimension. *)

val intersects : t -> t -> bool
(** Positive-volume overlap of two boxes (half-open semantics: zones that
    merely abut do not intersect).  Both zones are dyadic sub-boxes of the
    unit space, so no torus wrap-around is involved. *)

val min_torus_dist : t -> Point.t -> float
(** Distance from a point to the closest point of the zone on the torus
    (0 when inside).  Used by greedy CAN routing. *)

val equal : t -> t -> bool
