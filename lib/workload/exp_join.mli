(** Join-latency experiment: prices a soft-state join's RTT work through
    {!Engine.Probe} at probe window 1 (sequential, the seed behaviour)
    and window L (all landmark probes concurrent).  The landmark-vector
    phase collapses from the {e sum} of the L landmark RTTs to the single
    slowest one — roughly an L-fold join-latency improvement — while the
    number of RTT measurements per join stays byte-identical across
    windows.  Records [join_vector_ms]/[join_selection_ms] histograms per
    window plus [join_vector_speedup] into the run's registry. *)

val run : Run.t -> Tableout.block list
