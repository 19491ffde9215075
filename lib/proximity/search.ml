module Oracle = Topology.Oracle
module Can_overlay = Can.Overlay
module Landmarks = Landmark.Landmarks
module Probe = Engine.Probe

type curve = { found : int array; dist : float array; elapsed : float }

(* The [rtt_probes] counter of one search, bumped once per probe. *)
let probe_counter ?metrics ?(labels = []) ~algo () =
  Option.map
    (fun m -> Engine.Metrics.counter m ~labels:(("algo", algo) :: labels) "rtt_probes")
    metrics

let count_probe counter = Option.iter Engine.Metrics.incr counter

let true_nearest oracle ~query ~candidates =
  match Oracle.nearest oracle query candidates with
  | Some (node, d) -> (node, d)
  | None -> invalid_arg "Search.true_nearest: no candidate besides the query"

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

(* Fold a sequence of probe batches into a best-so-far curve, spending at
   most [budget] measurements.  Batches model message phases: each drains
   through the probe plane, which measures in submission order and prices
   the batch under its window; the modelled wall-clock accumulates into
   [curve.elapsed]. *)
let curve_of_batches ?counter prober ~query ~budget batches =
  let found = ref [] and dist = ref [] in
  let best_node = ref (-1) and best_dist = ref infinity in
  let spent = ref 0 and wall = ref 0.0 in
  List.iter
    (fun batch ->
      match if !spent >= budget then [] else take (budget - !spent) batch with
      | [] -> ()
      | batch ->
        let b = Probe.run_batch prober ~src:query ~dsts:(Array.of_list batch) in
        wall := !wall +. Probe.elapsed b;
        List.iteri
          (fun i node ->
            incr spent;
            count_probe counter;
            let d = b.Probe.results.(i) in
            if d < !best_dist then begin
              best_dist := d;
              best_node := node
            end;
            found := !best_node :: !found;
            dist := !best_dist :: !dist)
          batch)
    batches;
  {
    found = Array.of_list (List.rev !found);
    dist = Array.of_list (List.rev !dist);
    elapsed = !wall;
  }

let ers_curve ?metrics ?labels prober can ~query ~budget =
  if not (Can_overlay.mem can query) then invalid_arg "Search.ers_curve: query not a member";
  if budget < 1 then invalid_arg "Search.ers_curve: budget must be >= 1";
  let counter = probe_counter ?metrics ?labels ~algo:"ers" () in
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
  curve_of_batches ?counter prober ~query ~budget (List.rev !batches)

let ranked_curve ?metrics ?labels ?(algo = "ranked") prober ~score ~candidates ~query ~budget =
  if budget < 1 then invalid_arg "Search.ranked_curve: budget must be >= 1";
  let counter = probe_counter ?metrics ?labels ~algo () in
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
  curve_of_batches ?counter prober ~query ~budget [ take budget ranked ]

let hybrid_curve ?metrics ?labels prober ~vector_of ~candidates ~query ~budget =
  if budget < 1 then invalid_arg "Search.hybrid_curve: budget must be >= 1";
  let qvec = vector_of query in
  ranked_curve ?metrics ?labels ~algo:"hybrid" prober
    ~score:(fun c -> Landmarks.vector_dist qvec (vector_of c))
    ~candidates ~query ~budget

let hill_climb_curve ?metrics ?labels prober can ~query ~budget =
  if not (Can_overlay.mem can query) then
    invalid_arg "Search.hill_climb_curve: query not a member";
  if budget < 1 then invalid_arg "Search.hill_climb_curve: budget must be >= 1";
  let counter = probe_counter ?metrics ?labels ~algo:"hill_climb" () in
  (* Walk to the best neighbor while it improves; each neighbor probe
     costs one measurement.  Stops at local minima. *)
  let found = ref [] and dist = ref [] in
  let best_node = ref (-1) and best_dist = ref infinity in
  let spent = ref 0 and start = Probe.total_elapsed prober in
  let probe node =
    if !spent < budget then begin
      incr spent;
      count_probe counter;
      let d = Result.to_option (Probe.rtt prober ~src:query ~dst:node) in
      (match d with
      | Some d when d < !best_dist ->
        best_dist := d;
        best_node := node
      | Some _ | None -> ());
      found := !best_node :: !found;
      dist := !best_dist :: !dist;
      d
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
    elapsed = Probe.total_elapsed prober -. start;
  }

let stretch_curve { dist; _ } ~optimal =
  Array.map
    (fun d ->
      if optimal > 0.0 then d /. optimal else if d = 0.0 then 1.0 else infinity)
    dist
