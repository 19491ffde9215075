(** Figure 16: effect of the map condense/reduction rate — entries per
    node against routing stretch (tsk-large, manual latencies). *)

val fig16 : Run.t -> Tableout.block list
