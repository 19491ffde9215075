(** Robustness ablation: the hybrid proximity technique on a flat Waxman
    topology, where no transit-stub hierarchy exists for landmarks to
    pick up.  Reports NN-search stretch of ERS vs landmark+RTT and
    routing stretch of random vs hybrid vs optimal selection. *)

val run : ?scale:int -> unit -> Tableout.block list
