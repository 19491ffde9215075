(** Table 2: the experiment parameter space — defaults and the ranges the
    other experiments actually sweep. *)

val run : ?scale:int -> unit -> Tableout.block list
