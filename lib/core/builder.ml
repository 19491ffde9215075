module Rng = Prelude.Rng
module Oracle = Topology.Oracle
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Store = Softstate.Store
module Landmarks = Landmark.Landmarks
module Number = Landmark.Number
module Point = Geometry.Point

let log_src = Logs.Src.create "topo.builder" ~doc:"Topology-aware overlay construction"

module Log = (val Logs.src_log log_src)

type config = {
  dims : int;
  span_bits : int;
  overlay_size : int;
  landmark_count : int;
  strategy : Strategy.t;
  condense : float;
  ttl : float;
  shards : int;
  curve : Landmark.Number.curve;
  probe : Engine.Probe.config;
  domains : int;
  seed : int;
}

let default_config =
  {
    dims = 2;
    span_bits = 2;
    overlay_size = 4096;
    landmark_count = 15;
    strategy = Strategy.hybrid ~rtts:10 ();
    condense = 1.0;
    ttl = 600_000.0;
    shards = 1;
    curve = Number.Hilbert_curve;
    probe = Engine.Probe.default_config;
    domains = 0;
    seed = 42;
  }

type join_cost = { vector_ms : float; selection_ms : float }

type t = {
  config : config;
  oracle : Oracle.t;
  ecan : Ecan_exp.t;
  store : Store.t;
  landmarks : Landmarks.t;
  scheme : Number.scheme;
  members : int array;
  vectors : (int, float array) Hashtbl.t;
  prober : Engine.Probe.t;
  rng : Rng.t;
}

let vector_of t node = Hashtbl.find t.vectors node

(* [take_others ~node entries out 0] writes the first entries of
   [entries] that are not [node]'s own into [out], in order, until [out]
   is full, and returns how many it wrote. *)
let rec take_others ~node entries out i =
  match entries with
  | (e : Store.Entry.t) :: rest when i < Array.length out ->
    if e.Store.Entry.node = node then take_others ~node rest out i
    else begin
      out.(i) <- e;
      take_others ~node rest out (i + 1)
    end
  | _ -> i

(* Common shape of the soft-state strategies: one map lookup, then at most
   [rtts] RTT probes, choosing the candidate minimising [score]. *)
let lookup_probe_selector t ~rtts ~lookup_results ~lookup_ttl ~score : Ecan_exp.selector =
 fun ~node ~region ~candidates ->
  let vector = vector_of t node in
  let entries =
    Store.lookup t.store ~region ~vector ~max_results:lookup_results ~ttl:lookup_ttl ()
  in
  let probed =
    match entries with
    | [] -> [||]
    | first :: _ -> Array.make (min rtts (List.length entries)) first
  in
  match take_others ~node entries probed 0 with
  | 0 ->
    (* An empty map (nothing published yet, or over-condensed past the
       lookup's TTL reach): degrade to a blind pick. *)
    Some (Rng.pick t.rng candidates)
  | n ->
    (* The candidate probes form one batch through the probe plane: at
       window 1 this is the seed's sequential measurement loop, at wider
       windows the slot's selection cost collapses toward the max RTT. *)
    let dsts = Array.make n 0 in
    for i = 0 to n - 1 do
      dsts.(i) <- probed.(i).Store.Entry.node
    done;
    let batch = Engine.Probe.run_batch t.prober ~src:node ~dsts in
    let best = ref (-1) and best_score = ref infinity in
    for i = 0 to n - 1 do
      match batch.Engine.Probe.results.(i) with
      | Error _ -> ()
      | Ok rtt ->
        let s = score ~rtt ~entry:probed.(i) in
        if !best < 0 || not (!best_score <= s) then begin
          best := i;
          best_score := s
        end
    done;
    if !best < 0 then None else Some dsts.(!best)

let selector t strategy : Ecan_exp.selector =
  match strategy with
  | Strategy.Random_pick ->
    fun ~node:_ ~region:_ ~candidates -> Some (Rng.pick t.rng candidates)
  | Strategy.Optimal ->
    fun ~node ~region:_ ~candidates ->
      (match Oracle.nearest t.oracle node candidates with
      | Some (best, _) -> Some best
      | None -> None)
  | Strategy.Hybrid { rtts; lookup_results; lookup_ttl } ->
    lookup_probe_selector t ~rtts ~lookup_results ~lookup_ttl ~score:(fun ~rtt ~entry:_ -> rtt)
  | Strategy.Load_aware { rtts; lookup_results; lookup_ttl; load_weight } ->
    lookup_probe_selector t ~rtts ~lookup_results ~lookup_ttl ~score:(fun ~rtt ~entry ->
        rtt *. (1.0 +. (load_weight *. entry.Store.Entry.load)))

let build ?metrics ?labels ?trace ?(clock = fun () -> 0.0) oracle config =
  if config.overlay_size < 1 then invalid_arg "Builder.build: overlay_size must be >= 1";
  if config.overlay_size > Oracle.node_count oracle then
    invalid_arg "Builder.build: overlay larger than the topology";
  if config.landmark_count < 3 then
    invalid_arg "Builder.build: need at least 3 landmarks";
  let rng = Rng.create config.seed in
  let member_rng = Rng.split rng in
  let join_rng = Rng.split rng in
  let landmark_rng = Rng.split rng in
  let all = Array.init (Oracle.node_count oracle) (fun i -> i) in
  let members = Rng.sample member_rng config.overlay_size all in
  let can = Can_overlay.create ?metrics ?labels ?trace ~dims:config.dims members.(0) in
  for i = 1 to Array.length members - 1 do
    ignore (Can_overlay.join can members.(i) (Point.random join_rng config.dims))
  done;
  let ecan = Ecan_exp.create ?metrics ?labels ?trace ~span_bits:config.span_bits can in
  let landmarks = Landmarks.choose landmark_rng oracle config.landmark_count in
  let max_latency = Number.calibrate_max_latency oracle (Landmarks.nodes landmarks) in
  let scheme = Number.default_scheme ~curve:config.curve ~max_latency () in
  if config.domains < 0 then invalid_arg "Builder.build: domains must be >= 0";
  (* domains = 0 defers to the ambient pool (TOPOAWARE_DOMAINS or a
     Dpool.set_default override); n >= 1 pins an interned n-domain pool.
     Only the store runs on it; the prober measures on the calling
     domain.  By the DESIGN.md §12 contract the choice never changes any
     result or metric. *)
  let pool =
    if config.domains = 0 then Engine.Dpool.default ()
    else Engine.Dpool.get ~domains:config.domains
  in
  let store =
    Store.create ?metrics ?labels ?trace ~pool ~shards:config.shards ~condense:config.condense
      ~default_ttl:config.ttl ~clock ~scheme can
  in
  let prober =
    Engine.Probe.create ?metrics ?labels ?trace ~clock ~config:config.probe
      ~measure:(Oracle.measure oracle) ()
  in
  let vectors = Hashtbl.create (Array.length members) in
  Array.iter
    (fun node ->
      let vector = Landmarks.vector_via landmarks prober node in
      Hashtbl.replace vectors node vector;
      Store.publish_all store ~span_bits:config.span_bits ~node ~vector)
    members;
  let t = { config; oracle; ecan; store; landmarks; scheme; members; vectors; prober; rng } in
  Ecan_exp.build_tables ecan ~selector:(selector t config.strategy);
  Log.info (fun m ->
      m "built overlay: %d members, %d landmarks, strategy %s" (Array.length members)
        config.landmark_count
        (Strategy.to_string config.strategy));
  t

let rebuild_tables t strategy =
  Ecan_exp.build_tables t.ecan ~selector:(selector t strategy)

let join_node t node =
  let can = Ecan_exp.can t.ecan in
  let e0 = Engine.Probe.total_elapsed t.prober in
  let vector = Landmarks.vector_via t.landmarks t.prober node in
  let e1 = Engine.Probe.total_elapsed t.prober in
  Hashtbl.replace t.vectors node vector;
  ignore (Can_overlay.join can node (Point.random t.rng t.config.dims));
  Store.rehost t.store;
  Store.publish_all t.store ~span_bits:t.config.span_bits ~node ~vector;
  Ecan_exp.build_table_for t.ecan ~selector:(selector t t.config.strategy) node;
  let e2 = Engine.Probe.total_elapsed t.prober in
  Log.debug (fun m -> m "node %d joined" node);
  { vector_ms = e1 -. e0; selection_ms = e2 -. e1 }

(* Table slots whose entry targets one of the relocated nodes but whose
   region no longer contains that target (zone takeover moves nodes),
   read from the reverse-entry index.  Both callers pass a leave's
   survivor and backfilled node, which are live whenever any table is
   left to scan: [Can.Overlay.leave] names the leaver itself as survivor
   only when it was the last member.  So the membership half of
   [in_region] never decides a slot here.

   The order is the one a fold over every member's table gave, which
   re-selection consumes (probes, and the rng's fallback picks):
   holders in reverse [Can.Overlay.node_ids] order, then (row, digit)
   ascending.  Ranking the holders takes one pass over the member ids
   when there is more than one stale slot. *)
let stale_slots t relocated =
  let stale =
    List.concat_map
      (fun target ->
        List.filter
          (fun (id, row, digit) ->
            let region = Ecan_exp.region_prefix t.ecan id ~row ~digit in
            not (Ecan_exp.in_region t.ecan ~region target))
          (Ecan_exp.referrers t.ecan target))
      (List.sort_uniq compare relocated)
  in
  match stale with
  | [] | [ _ ] -> stale
  | _ ->
    let rank = Hashtbl.create 16 in
    List.iter (fun (id, _, _) -> Hashtbl.replace rank id 0) stale;
    Array.iteri
      (fun i id -> if Hashtbl.mem rank id then Hashtbl.replace rank id i)
      (Can_overlay.node_ids (Ecan_exp.can t.ecan));
    let key (id, row, digit) = (- Hashtbl.find rank id, row, digit) in
    List.sort (fun a b -> compare (key a) (key b)) stale

let clear_stale_entries t relocated =
  List.iter
    (fun (id, row, digit) -> Ecan_exp.set_entry t.ecan id ~row ~digit None)
    (stale_slots t relocated)

let leave_node t node =
  let can = Ecan_exp.can t.ecan in
  (* A departed node's cached RTTs must not satisfy future probes. *)
  Engine.Probe.invalidate t.prober node;
  Store.unpublish_everywhere t.store node;
  let effect = Can_overlay.leave can node in
  Hashtbl.remove t.vectors node;
  Store.rehost t.store;
  (* Clear dangling expressway entries that pointed at the departed node;
     re-selection is pub/sub's job. *)
  List.iter
    (fun (id, row, digit) -> Ecan_exp.set_entry t.ecan id ~row ~digit None)
    (Ecan_exp.referrers t.ecan node);
  (* The takeover changed two nodes' zones; their tables must follow. *)
  let selector = selector t t.config.strategy in
  let rebuild id =
    if id <> node && Can_overlay.mem can id then begin
      Store.unpublish_everywhere t.store id;
      Store.publish_all t.store ~span_bits:t.config.span_bits ~node:id
        ~vector:(vector_of t id);
      Ecan_exp.build_table_for t.ecan ~selector id
    end
  in
  rebuild effect.Can_overlay.survivor;
  Option.iter rebuild effect.Can_overlay.backfilled;
  (* Entries elsewhere that pointed at the relocated nodes may now
     reference the wrong region; clear them (pub/sub re-selects). *)
  clear_stale_entries t
    (effect.Can_overlay.survivor :: Option.to_list effect.Can_overlay.backfilled);
  Log.debug (fun m ->
      m "node %d left (survivor %d, backfilled %s)" node effect.Can_overlay.survivor
        (match effect.Can_overlay.backfilled with Some b -> string_of_int b | None -> "-"))
