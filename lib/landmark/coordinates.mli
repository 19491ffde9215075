(** GNP-style network coordinates (the "coordinate-based approach" the
    paper contrasts with in §2).

    Landmark nodes measure RTTs among themselves and solve for positions
    in a low-dimensional Euclidean space; any other node then measures its
    RTTs to the landmarks and solves for its own position.  The Euclidean
    distance between two nodes' coordinates estimates their network
    distance.  Both solves minimise squared {e relative} error by
    deterministic gradient descent.

    Used by the [coords] ablation bench to compare coordinate-based
    pre-selection against the paper's landmark-vector pre-selection. *)

type t = {
  dims : int;
  landmark_nodes : int array;
  landmark_coords : float array array;
}

val embed_landmarks : Prelude.Rng.t -> Engine.Probe.t -> int array -> t
(** [embed_landmarks rng prober landmark_nodes] measures every ordered
    landmark pair through [prober] (one {!Engine.Probe.rtt} each, row by
    row; a pair whose probe fails reads [infinity]) and fits
    5-dimensional coordinates in 2000 descent rounds. *)

val position : ?iterations:int -> t -> Prelude.Rng.t -> measured:float array -> float array
(** Fit a coordinate for a node given its measured RTTs to the landmarks
    (in landmark order), e.g. its [Landmarks.vector_via] vector. *)

val estimate : float array -> float array -> float
(** Estimated network distance between two coordinates. *)

val relative_error : actual:float -> estimated:float -> float
(** |est - actual| / actual (infinite if actual is 0 and est is not). *)
