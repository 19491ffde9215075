(** Landmark numbers: space-filling-curve reduction of landmark vectors.

    The landmark space is gridded into [2^(bits * index_dims)] cells; a
    node's {e landmark number} is its cell's index along a space-filling
    curve.  Closeness in landmark number then indicates physical
    closeness.  Following the appendix's {e landmark vector index}
    optimisation, only the first [index_dims] components of the vector are
    used to compute the number (the full vector is still used for final
    candidate ranking), which keeps the curve dimensionality low and the
    clustering tight.

    The module also provides the paper's §4.1 dimension-mismatch hash
    [p' = h(p, dp, dz, z)]: the landmark number is re-expanded through a
    space-filling curve of the {e region's} dimensionality, so that nodes
    with close landmark numbers are stored at close positions inside the
    region. *)

type curve = Hilbert_curve | Z_curve

type scheme = {
  max_latency : float;  (** normalisation bound for vector components, ms *)
  bits : int;  (** grid bits per landmark-space dimension *)
  index_dims : int;  (** leading vector components used for the number *)
  zone_bits : int;  (** grid bits per overlay dimension when positioning *)
  curve : curve;
}

val default_scheme : ?curve:curve -> max_latency:float -> unit -> scheme
(** bits = 8, index_dims = 3, zone_bits = 8, Hilbert. *)

val calibrate_max_latency : Topology.Oracle.t -> int array -> float
(** A global normalisation bound every node can agree on: 1.5 x the
    landmark-set diameter (max pairwise landmark RTT).  Vector entries
    above the bound are clamped. *)

val cell_count : scheme -> int
(** Number of grid cells, [2^(bits * index_dims)]. *)

val normalize : scheme -> float array -> Geometry.Point.t
(** Landmark vector -> point of the unit box (clamped). *)

val number : scheme -> float array -> int
(** Landmark number of a vector, in [0, cell_count). *)

val to_unit : scheme -> int -> float
(** Landmark number -> scalar in [0,1); the DHT key used by Chord/Pastry
    placements. *)

val position_in_zone : scheme -> Geometry.Zone.t -> float array -> Geometry.Point.t
(** [position_in_zone scheme z vec] is the paper's [h(p, dp, dz, z)]:
    where in region [z] the soft-state entry for a node with landmark
    vector [vec] is stored.  Vectors close in landmark space map to close
    positions in [z]. *)

val position_of_number : scheme -> Geometry.Zone.t -> int -> Geometry.Point.t
(** [position_of_number scheme z n] is [position_in_zone scheme z vec]
    for any [vec] whose landmark {!number} is [n], so a caller placing
    one vector in many regions computes the number once. *)
