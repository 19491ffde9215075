(** One experiment run: the scale its workloads are divided by and the
    metrics registry it records into.  Every registered experiment takes
    one, so two runs in one process share no instrument. *)

type t = {
  scale : int;  (** divides workload sizes; 1 = the paper's sizes *)
  metrics : Engine.Metrics.t;  (** this run's registry *)
}

val create : scale:int -> t
(** A run at [scale] with a fresh, empty registry. *)
