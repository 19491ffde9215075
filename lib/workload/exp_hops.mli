(** Figure 2: logical routing hops, eCAN vs plain CAN of dimensionality
    2-5, as overlay size grows.  Purely logical (no physical topology). *)

val run : Run.t -> Tableout.block list
(** Print the hop-count series.  The run's scale divides the overlay
    sizes. *)
