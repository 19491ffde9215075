(** §6 "other uses of global state": heterogeneity- and load-aware
    neighbor selection.  Nodes publish load statistics alongside their
    proximity information; a load-aware selection trades a little network
    distance for spare forwarding capacity, flattening hot spots. *)

val run : ?scale:int -> unit -> Tableout.block list
