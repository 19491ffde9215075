module Oracle = Topology.Oracle
module Can_overlay = Can.Overlay
module Landmarks = Landmark.Landmarks
module Probe = Engine.Probe

type curve = { found : int array; dist : float array; elapsed : float }

type obs = { n_probes : Engine.Metrics.counter; tracer : Engine.Trace.t option }

let make_obs ?metrics ?(labels = []) ?trace ~algo () =
  Option.map
    (fun m ->
      {
        n_probes = Engine.Metrics.counter m ~labels:(("algo", algo) :: labels) "rtt_probes";
        tracer = trace;
      })
    metrics

let count_probe obs = match obs with None -> () | Some o -> Engine.Metrics.incr o.n_probes

let observe_probe obs ~query node d =
  match obs with
  | None -> ()
  | Some o ->
    Engine.Metrics.incr o.n_probes;
    Option.iter
      (fun tr -> Engine.Trace.emit tr ~dur:d ~peer:node (Engine.Trace.Rtt_probe None) ~node:query)
      o.tracer

let true_nearest oracle ~query ~candidates =
  match Oracle.nearest oracle query candidates with
  | Some (node, d) -> (node, d)
  | None -> invalid_arg "Search.true_nearest: no candidate besides the query"

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

(* Fold a sequence of probe batches into a best-so-far curve, spending at
   most [budget] measurements.  Batches model message phases: without a
   prober they are simply flattened into the seed's sequential measurement
   loop; with one, each batch drains through the probe plane (results and
   measurement order are identical — the plane only adds the modelled
   wall-clock, accumulated into [curve.elapsed]).  A probe the plane fails
   (retry exhaustion under an injected channel) still spends budget but
   cannot improve the best-so-far. *)
let curve_of_batches ?obs ?prober oracle ~query ~budget batches =
  let found = ref [] and dist = ref [] in
  let best_node = ref (-1) and best_dist = ref infinity in
  let spent = ref 0 and wall = ref 0.0 in
  let record node = function
    | Some d ->
      if d < !best_dist then begin
        best_dist := d;
        best_node := node
      end;
      found := !best_node :: !found;
      dist := !best_dist :: !dist
    | None ->
      found := !best_node :: !found;
      dist := !best_dist :: !dist
  in
  List.iter
    (fun batch ->
      let batch = if !spent >= budget then [] else take (budget - !spent) batch in
      match (batch, prober) with
      | [], _ -> ()
      | batch, None ->
        List.iter
          (fun node ->
            incr spent;
            let d = Oracle.measure oracle query node in
            wall := !wall +. d;
            observe_probe obs ~query node d;
            record node (Some d))
          batch
      | batch, Some p ->
        let b = Probe.run_batch p ~src:query ~dsts:(Array.of_list batch) in
        wall := !wall +. Probe.elapsed b;
        List.iteri
          (fun i node ->
            incr spent;
            count_probe obs;
            match b.Probe.results.(i) with
            | Ok d -> record node (Some d)
            | Error _ -> record node None)
          batch)
    batches;
  {
    found = Array.of_list (List.rev !found);
    dist = Array.of_list (List.rev !dist);
    elapsed = !wall;
  }

let ers_curve ?metrics ?labels ?trace ?prober oracle can ~query ~budget =
  if not (Can_overlay.mem can query) then invalid_arg "Search.ers_curve: query not a member";
  if budget < 1 then invalid_arg "Search.ers_curve: budget must be >= 1";
  let obs = make_obs ?metrics ?labels ?trace ~algo:"ers" () in
  (* Breadth-first rings over the CAN neighbor graph; each ring is one
     batch (its members are known before any of them is probed). *)
  let visited = Hashtbl.create 64 in
  Hashtbl.replace visited query ();
  let batches = ref [] in
  let collected = ref 0 in
  let ring = ref (List.sort compare (Can_overlay.node can query).Can_overlay.neighbors) in
  List.iter (fun v -> Hashtbl.replace visited v ()) !ring;
  while !collected < budget && !ring <> [] do
    let take_n = min (budget - !collected) (List.length !ring) in
    batches := take take_n !ring :: !batches;
    collected := !collected + take_n;
    if !collected < budget then begin
      let next =
        List.concat_map
          (fun v ->
            List.filter (fun w -> not (Hashtbl.mem visited w)) (Can_overlay.node can v).Can_overlay.neighbors)
          !ring
      in
      let next = List.sort_uniq compare next in
      List.iter (fun v -> Hashtbl.replace visited v ()) next;
      ring := next
    end
  done;
  curve_of_batches ?obs ?prober oracle ~query ~budget (List.rev !batches)

let ranked_curve ?metrics ?labels ?trace ?prober ?(algo = "ranked") oracle ~score ~candidates
    ~query ~budget =
  if budget < 1 then invalid_arg "Search.ranked_curve: budget must be >= 1";
  let obs = make_obs ?metrics ?labels ?trace ~algo () in
  let ranked =
    candidates
    |> Array.to_list
    |> List.filter (fun c -> c <> query)
    |> List.map (fun c -> (score c, c))
    |> List.sort compare
    |> List.map snd
  in
  (* Pre-selection knows the whole ranking up front: the probes form a
     single batch. *)
  curve_of_batches ?obs ?prober oracle ~query ~budget [ take budget ranked ]

let hybrid_curve ?metrics ?labels ?trace ?prober oracle ~vector_of ~candidates ~query ~budget =
  if budget < 1 then invalid_arg "Search.hybrid_curve: budget must be >= 1";
  let qvec = vector_of query in
  ranked_curve ?metrics ?labels ?trace ?prober ~algo:"hybrid" oracle
    ~score:(fun c -> Landmarks.vector_dist qvec (vector_of c))
    ~candidates ~query ~budget

let hill_climb_curve ?metrics ?labels ?trace oracle can ~query ~budget =
  if not (Can_overlay.mem can query) then
    invalid_arg "Search.hill_climb_curve: query not a member";
  if budget < 1 then invalid_arg "Search.hill_climb_curve: budget must be >= 1";
  let obs = make_obs ?metrics ?labels ?trace ~algo:"hill_climb" () in
  (* Walk to the best neighbor while it improves; each neighbor probe
     costs one measurement.  Stops at local minima. *)
  let found = ref [] and dist = ref [] in
  let best_node = ref (-1) and best_dist = ref infinity in
  let spent = ref 0 and wall = ref 0.0 in
  let probe node =
    if !spent < budget then begin
      incr spent;
      let d = Oracle.measure oracle query node in
      wall := !wall +. d;
      observe_probe obs ~query node d;
      if d < !best_dist then begin
        best_dist := d;
        best_node := node
      end;
      found := !best_node :: !found;
      dist := !best_dist :: !dist;
      Some d
    end
    else None
  in
  let visited = Hashtbl.create 32 in
  Hashtbl.replace visited query ();
  let rec climb at current_dist =
    if !spent >= budget then ()
    else begin
      let improved = ref None in
      List.iter
        (fun v ->
          if not (Hashtbl.mem visited v) then begin
            Hashtbl.replace visited v ();
            match probe v with
            | Some d -> (
              match !improved with
              | Some (bd, _) when bd <= d -> ()
              | _ -> if d < current_dist then improved := Some (d, v))
            | None -> ()
          end)
        (List.sort compare (Can_overlay.node can at).Can_overlay.neighbors);
      match !improved with
      | Some (d, v) -> climb v d
      | None -> ()  (* local minimum: the heuristic gives up *)
    end
  in
  climb query infinity;
  {
    found = Array.of_list (List.rev !found);
    dist = Array.of_list (List.rev !dist);
    elapsed = !wall;
  }

let stretch_curve { dist; _ } ~optimal =
  Array.map
    (fun d ->
      if optimal > 0.0 then d /. optimal else if d = 0.0 then 1.0 else infinity)
    dist
