(** Experiment registry: every paper table/figure reproduction plus the
    extra ablations, addressable by id for the CLI and the bench runner. *)

type entry = {
  name : string;  (** experiment id, e.g. "fig10" *)
  title : string;  (** one-line description *)
  run : Run.t -> Tableout.block list;  (** the experiment's printed output *)
}

val all : entry list
(** Every experiment, in presentation order. *)

val find : string -> entry option

val print : entry -> Run.t -> Format.formatter -> unit
(** Run one experiment on the run and {!Tableout.render} its output
    into the run's registry. *)

val run_all : scale:int -> Format.formatter -> Engine.Metrics.t list
(** Run the whole suite, each experiment on a fresh run at [scale],
    printing each experiment's header and output; returns the runs'
    registries in suite order. *)
