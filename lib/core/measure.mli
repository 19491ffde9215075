(** Measurement of overlay routing quality.

    The metric throughout the paper is {e stretch}: accumulated physical
    latency of the route the overlay actually takes, divided by the
    shortest-path latency between the endpoints.  Logical hop counts are
    collected alongside (Fig. 2). *)

type sample = {
  src : int;
  dst : int;
  hops : int;  (** logical overlay hops *)
  latency : float;  (** accumulated physical latency of the route, ms *)
  shortest : float;  (** direct shortest-path latency, ms *)
}

type report = {
  samples : sample list;
  stretch : Prelude.Stats.summary;
  hops : Prelude.Stats.summary;
}

val path_latency : Topology.Oracle.t -> int list -> float
(** Physical latency accumulated along consecutive hop pairs:
    {!Engine.Route_obs.latency} over [Oracle.dist]. *)

val to_member : Can.Overlay.t -> (src:int -> Geometry.Point.t -> 'a) -> src:int -> int -> 'a
(** [to_member can route ~src dst]: [route] from [src] to the centre of
    [dst]'s zone, a point [dst] owns.  How every CAN and eCAN route to a
    member is aimed. *)

(** How {!sample_routes} draws each route's destination after drawing
    its source member. *)
type draw =
  | Pairs
      (** another member, redrawn while it equals the source; the route
          function receives that member *)
  | Keys of { key_space : int; owner : int -> int }
      (** a key uniform in [[0, key_space)]; the route function receives
          the key and [owner key] is the destination *)

val sample_routes :
  Topology.Oracle.t -> Prelude.Rng.t -> int array -> count:int -> draw ->
  (src:int -> int -> int list option) -> sample list * int
(** [sample_routes oracle rng ids ~count draw route]: the one
    route-sampling loop.  [count] times, draw a source from [ids] (with
    {!Prelude.Rng.pick}), then a destination as [draw] says, and call
    [route ~src target] for the hop list (both endpoints included).
    Returns the samples of the successful routes, newest first (reverse
    draw order), and the number of routes that returned [None].  A
    failed route still consumes its draws; whether it is an error is the
    caller's call, made on the count.  [Pairs] needs at least two
    members.  [owner] is called only for successful routes. *)

val stretches : sample list -> float list
(** [latency /. shortest] of every sample with [shortest > 0], in list
    order.  A [Keys] draw whose source owns the key has [shortest = 0];
    a [Pairs] draw on a transit-stub topology never does, since every
    link there is at least 1 ms. *)

val report : sample list -> report
(** Summaries of {!stretches} and of the hop counts of every sample. *)

val route_stretch : ?pairs:int -> Builder.t -> report
(** Sample [pairs] (default: twice the overlay size, as in the paper)
    random source/destination pairs among current members with a
    [Pairs] draw on a copy of the builder's rng, and measure their eCAN
    routes to the destination's zone centre.  Raises [Failure] if any
    route fails. *)

val can_route_report : ?pairs:int -> Builder.t -> report
(** Same measurement over plain greedy CAN routing (no expressways), for
    the eCAN-vs-CAN comparison of Fig. 2. *)

val neighbor_quality : Builder.t -> Prelude.Stats.summary
(** Over every filled expressway table slot: ratio of the distance to the
    chosen representative over the distance to the best possible member of
    that region (1.0 = optimal selection everywhere). *)
