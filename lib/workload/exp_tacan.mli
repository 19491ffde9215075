(** §1 claim about Topologically-Aware CAN (geographic layout): binding
    the overlay structure to the physical topology skews the zone-volume
    distribution — a few nodes own most of the Cartesian space and
    accumulate very large neighbor sets.  Compares landmark-positioned
    joins against uniform joins. *)

val tacan_point : Landmark.Number.scheme -> Prelude.Rng.t -> float array -> float array
(** [tacan_point scheme rng vector] is a TA-CAN join point in the unit
    square: the vector's landmark-number position
    ({!Landmark.Number.position_in_zone}), jittered uniformly within its
    grid cell so points stay distinct. *)

val run : Run.t -> Tableout.block list
