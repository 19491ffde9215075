(* Nearest-replica selection: the paper's motivating use of global
   soft-state outside routing.

   A content service runs replicas on a few overlay nodes.  Each replica
   publishes its landmark vector into the root region's coordinate map.
   A client then finds a nearby replica with ONE map lookup plus a
   handful of RTT probes — no flooding, no central directory.

   Run with:  dune exec examples/nearest_replica.exe *)

module Ts = Topology.Transit_stub
module Oracle = Topology.Oracle
module Probe = Engine.Probe
module Can_overlay = Can.Overlay
module Store = Softstate.Store
module Landmarks = Landmark.Landmarks
module Number = Landmark.Number
module Point = Geometry.Point
module Stats = Prelude.Stats
module Rng = Prelude.Rng

let replica_count = 20
let client_count = 200
let probe_budget = 4

let () =
  let rng = Rng.create 7 in
  let topo = Ts.generate rng (Ts.tsk_small ~latency:Ts.Gtitm_random ~scale:8 ()) in
  let oracle = Oracle.build topo in
  let n = Oracle.node_count oracle in
  Format.printf "network: %d nodes; %d replicas; %d clients@." n replica_count client_count;

  (* Overlay of every node; the coordinate map lives on the overlay. *)
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to n - 1 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let lms = Landmarks.choose rng oracle 12 in
  let scheme =
    Number.default_scheme ~max_latency:(Number.calibrate_max_latency oracle (Landmarks.nodes lms)) ()
  in
  let store = Store.create ~scheme can in
  (* Every RTT a node spends goes through a prober. *)
  let prober = Probe.create ~measure:(Oracle.measure oracle) () in
  let vectors = Array.init n (Landmarks.vector_via lms prober) in

  (* Replicas publish themselves into the root map. *)
  let all = Array.init n (fun i -> i) in
  let replicas = Rng.sample rng replica_count all in
  Array.iter (fun r -> Store.publish store ~region:[||] ~node:r ~vector:vectors.(r)) replicas;

  (* Clients pick replicas three ways: random, soft-state lookup + RTT
     probes, and the true nearest (omniscient). *)
  let stretch_random = ref [] and stretch_lookup = ref [] and probes_used = ref 0 in
  for _ = 1 to client_count do
    let client = Rng.int rng n in
    let best_possible =
      match Oracle.nearest oracle client replicas with
      | Some (_, d) -> d
      | None -> assert false
    in
    if best_possible > 0.0 then begin
      (* random choice *)
      let r = Rng.pick rng replicas in
      stretch_random := (Oracle.dist oracle client r /. best_possible) :: !stretch_random;
      (* soft-state: one lookup, then probe the top candidates *)
      let entries =
        Store.lookup store ~region:[||] ~vector:vectors.(client) ~max_results:probe_budget
          ~ttl:6 ()
      in
      let chosen =
        List.fold_left
          (fun best (e : Store.Entry.t) ->
            incr probes_used;
            match Probe.rtt prober ~src:client ~dst:e.Store.Entry.node with
            | Ok d when (match best with Some (bd, _) -> d < bd | None -> true) ->
              Some (d, e.Store.Entry.node)
            | Ok _ | Error _ -> best)
          None entries
      in
      match chosen with
      | Some (d, _) -> stretch_lookup := (d /. best_possible) :: !stretch_lookup
      | None -> ()
    end
  done;
  let summary l = Stats.summarize (Array.of_list l) in
  Format.printf "random replica:     stretch %a@." Stats.pp_summary (summary !stretch_random);
  Format.printf "soft-state lookup:  stretch %a@." Stats.pp_summary (summary !stretch_lookup);
  Format.printf "probes per client:  %.1f (budget %d)@."
    (float_of_int !probes_used /. float_of_int client_count)
    probe_budget
