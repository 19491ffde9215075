(** Experiment registry: every paper table/figure reproduction plus the
    extra ablations, addressable by id for the CLI and the bench runner. *)

type entry = {
  name : string;  (** experiment id, e.g. "fig10" *)
  title : string;  (** one-line description *)
  run : scale:int -> Tableout.block list;  (** the experiment's printed output *)
}

val all : entry list
(** Every experiment, in presentation order. *)

val find : string -> entry option

val print : entry -> scale:int -> Format.formatter -> unit
(** Run one experiment and {!Tableout.render} its output. *)

val run_all : ?scale:int -> Format.formatter -> unit
(** Run the whole suite, printing each experiment's header and output. *)
