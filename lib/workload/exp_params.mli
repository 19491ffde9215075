(** Table 2: the experiment parameter space — defaults and the ranges the
    other experiments actually sweep. *)

val run : Run.t -> Tableout.block list
