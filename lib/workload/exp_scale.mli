(** Figures 14-15: routing stretch vs overlay size, hybrid
    neighbor-selection against the random-neighbor baseline, on both
    topology variants. *)

val fig14 : Run.t -> Tableout.block list
(** GT-ITM random latencies. *)

val fig15 : Run.t -> Tableout.block list
(** Manual latencies. *)
