type obs = {
  requests : Metrics.counter;
  failures : Metrics.counter;
  hops : Metrics.histogram;
  tracer : Trace.t option;
}

type t = obs option

let create metrics ~labels ~trace ~overlay =
  Option.map
    (fun m ->
      let labels = ("overlay", overlay) :: labels in
      {
        requests = Metrics.counter m ~labels "route_requests";
        failures = Metrics.counter m ~labels "route_failures";
        hops = Metrics.histogram m ~labels "route_hops";
        tracer = trace;
      })
    metrics

let rec fold_links link acc = function
  | a :: (b :: _ as rest) -> fold_links link (acc +. link a b) rest
  | [ _ ] | [] -> acc

let latency link hops = fold_links link 0.0 hops

let rec emit_hops tr = function
  | a :: (b :: _ as rest) ->
    Trace.emit tr ~peer:b Trace.Route_hop ~node:a;
    emit_hops tr rest
  | [ _ ] | [] -> ()

let observe t result =
  (match t with
  | None -> ()
  | Some o -> (
    Metrics.incr o.requests;
    match result with
    | Some hops ->
      Metrics.observe o.hops (float_of_int (List.length hops - 1));
      Option.iter (fun tr -> emit_hops tr hops) o.tracer
    | None -> Metrics.incr o.failures));
  result
