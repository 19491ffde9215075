(** Big-scale churn rows: the eCAN + soft-state + pub/sub stack under
    the default fault storm on transit-stub topologies of 2^14 and 2^17
    physical nodes (small 2^11/2^12 rows at test scales), exercising the
    CSR graph, flat oracle layout and allocation-disciplined hot paths
    at a scale the boxed seed representations could not reach in CI.

    Records [bigscale_*] gauges labelled [nodes=N] into the global
    registry (deterministic from the seed and scale). *)

val run : ?scale:int -> Format.formatter -> unit
(** Registry entry.  [scale <= 8] runs the 2^14 and 2^17 rows with a
    [max 48 (768 / scale)]-member overlay; larger (test) scales run
    2^11/2^12 rows so smoke suites stay fast. *)
