(** Points in a d-dimensional unit space.

    The CAN key space is the unit torus [0,1)^d; the landmark space is a
    plain Euclidean box.  Both use this representation; torus-ness is a
    property of the distance function used, not of the point. *)

type t = float array
(** Coordinates.  Owned by the caller; functions never mutate their
    arguments. *)

val create : float array -> t
(** Validate that every coordinate is in [0,1) and return the point
    (a defensive copy).  Raises [Invalid_argument] otherwise. *)

val dims : t -> int

val random : Prelude.Rng.t -> int -> t
(** Uniform point of the given dimensionality. *)

val torus_axis_dist : float -> float -> float
(** Wrap-around distance between two coordinates on the unit circle. *)

val torus_dist : t -> t -> float
(** Euclidean distance on the unit torus. *)

val euclidean_dist : t -> t -> float
(** Plain Euclidean distance (no wrap-around); also accepts points outside
    the unit box, as used for landmark vectors. *)
