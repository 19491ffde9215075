(** §5.4 "Pushing limits of overlay performance": quantitative breakdown
    of the stretch penalty into (a) the structural cost of the overlay's
    prefix constraint (optimal vs shortest path) and (b) the inaccuracy of
    landmark+RTT proximity generation (hybrid vs optimal), against the
    random-selection baseline. *)

val run : ?scale:int -> unit -> Tableout.block list
