(** Figures 14-15: routing stretch vs overlay size, hybrid
    neighbor-selection against the random-neighbor baseline, on both
    topology variants. *)

val fig14 : ?scale:int -> unit -> Tableout.block list
(** GT-ITM random latencies. *)

val fig15 : ?scale:int -> unit -> Tableout.block list
(** Manual latencies. *)
