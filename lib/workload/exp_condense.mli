(** Figure 16: effect of the map condense/reduction rate — entries per
    node against routing stretch (tsk-large, manual latencies). *)

val fig16 : ?scale:int -> unit -> Tableout.block list
