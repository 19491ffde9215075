(** Figures 10-13: eCAN routing stretch as a function of the RTT budget
    and the number of landmarks, with the optimal
    (proximity-selection-with-infinite-RTTs) curve for reference.

    One figure per (topology variant, latency model) combination, 4096
    overlay nodes by default. *)

val fig10 : Run.t -> Tableout.block list
(** tsk-large, GT-ITM random latencies. *)

val fig11 : Run.t -> Tableout.block list
(** tsk-large, manual latencies. *)

val fig12 : Run.t -> Tableout.block list
(** tsk-small, GT-ITM random latencies. *)

val fig13 : Run.t -> Tableout.block list
(** tsk-small, manual latencies. *)
