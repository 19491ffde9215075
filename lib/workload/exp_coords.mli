(** Ablation: GNP-style network coordinates (§2's alternative) vs the
    paper's landmark vectors, as the pre-selection signal for
    nearest-neighbor search, plus the raw distance-estimation accuracy of
    the coordinate embedding. *)

val run : ?scale:int -> unit -> Tableout.block list
