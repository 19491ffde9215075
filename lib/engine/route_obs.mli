(** Route accounting shared by every overlay.

    An observer made with a registry keeps a [route_requests] counter, a
    [route_failures] counter and a [route_hops] histogram, all labeled
    [overlay=<name>] plus the caller's extra labels.  With a tracer it
    also emits one [Route_hop] span ([node] -> [peer]) per forwarding
    step of each successful route.  Without a registry it is inert: the
    tracer is ignored and {!observe} neither records nor allocates. *)

type t

val latency : (int -> int -> float) -> int list -> float
(** [latency link hops]: the summed [link a b] over consecutive pairs
    of the hop list, folded left from [0.0] in route order (0 for a list
    of fewer than two nodes).  The one route-cost fold every consumer of
    an overlay route uses. *)

val create :
  Metrics.t option -> labels:Metrics.labels -> trace:Trace.t option -> overlay:string -> t

val observe : t -> int list option -> int list option
(** Account one finished route, given as its hop list including both
    endpoints ([None] for a failed route), and return it unchanged. *)
