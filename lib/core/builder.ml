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

(* [count_others ~node ~rtts 0 entries] is how many of [entries] that are
   not [node]'s own a slot probes: at most [rtts]. *)
let rec count_others ~node ~rtts n = function
  | (e : Store.Entry.t) :: rest when n < rtts ->
    count_others ~node ~rtts (if e.Store.Entry.node = node then n else n + 1) rest
  | _ -> n

(* [fill_others ~node dsts 0 entries] writes the nodes of the first
   entries that are not [node]'s own into [dsts], in order, until it is
   full, and returns how many it wrote. *)
let rec fill_others ~node dsts i = function
  | (e : Store.Entry.t) :: rest when i < Array.length dsts ->
    if e.Store.Entry.node = node then fill_others ~node dsts i rest
    else begin
      dsts.(i) <- e.Store.Entry.node;
      fill_others ~node dsts (i + 1) rest
    end
  | _ -> i

(* [fill_loads ~node loads 0 entries]: the same entries' loads. *)
let rec fill_loads ~node loads i = function
  | (e : Store.Entry.t) :: rest when i < Array.length loads ->
    if e.Store.Entry.node = node then fill_loads ~node loads i rest
    else begin
      loads.(i) <- e.Store.Entry.load;
      fill_loads ~node loads (i + 1) rest
    end
  | _ -> ()

(* The choice among a slot's candidates, shared by the per-slot selector
   and the region-ordered fill: with no candidate node from the map (an
   empty map, nothing published yet, or over-condensed past the lookup's
   TTL reach), a blind pick from the region's members; otherwise one
   probe batch to [dsts] and the candidate minimising the score, its RTT
   times [1 + load_weight * load] under Load-aware, where candidate [i]'s
   load is [loads.(base + i)].  The candidate probes form one batch
   through the probe plane: at window 1 this is the seed's sequential
   measurement loop, at wider windows the slot's selection cost
   collapses toward the max RTT. *)
let choose t ~node ~candidates ~dsts ~load_weight ~loads ~base =
  match Array.length dsts with
  | 0 -> Some (Rng.pick t.rng candidates)
  | n ->
    let rtts = (Engine.Probe.run_batch t.prober ~src:node ~dsts).Engine.Probe.results in
    let best = ref 0 and best_score = ref infinity in
    for i = 0 to n - 1 do
      let s =
        match load_weight with
        | None -> rtts.(i)
        | Some w -> rtts.(i) *. (1.0 +. (w *. loads.(base + i)))
      in
      if i = 0 || not (!best_score <= s) then begin
        best := i;
        best_score := s
      end
    done;
    Some dsts.(!best)

(* Common shape of the soft-state strategies: one map lookup, then at most
   [rtts] RTT probes, choosing the candidate with the least score.
   [load_weight] is [Some w] under Load-aware. *)
let lookup_probe_selector t ~rtts ~lookup_results ~lookup_ttl ~load_weight : Ecan_exp.selector =
 fun ~node ~region ~candidates ->
  let entries =
    Store.lookup t.store ~region ~vector:(vector_of t node) ~max_results:lookup_results
      ~ttl:lookup_ttl ()
  in
  let n = count_others ~node ~rtts 0 entries in
  let dsts = Array.make n 0 in
  ignore (fill_others ~node dsts 0 entries);
  let loads = if load_weight = None then [||] else Array.make n 0.0 in
  fill_loads ~node loads 0 entries;
  choose t ~node ~candidates ~dsts ~load_weight ~loads ~base:0

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
    lookup_probe_selector t ~rtts ~lookup_results ~lookup_ttl ~load_weight:None
  | Strategy.Load_aware { rtts; lookup_results; lookup_ttl; load_weight } ->
    lookup_probe_selector t ~rtts ~lookup_results ~lookup_ttl ~load_weight:(Some load_weight)

(* The slots of one region, for the region-ordered fill below. *)
type group = { region : int array; mutable last : int }

(* The region-ordered fill (DESIGN.md §13, "Region-ordered fill").  A whole
   soft-state fill makes one map lookup per slot, and in the fill's
   node-major order consecutive lookups read unrelated maps, so each
   waits on memory.  The fill is therefore two passes.

   Pass 1 lists the slots in pass 2's order, groups them by region, and
   runs each slot's lookup with every other slot of its region, keeping
   the slot's first [stride] candidates that are not its node's own in
   one flat int32 buffer, in pass 2's slot order: a slot with fewer
   candidates ends at a -1.  Load-aware keeps their loads alongside.

   Pass 2 is [Ecan_exp.build_tables], node by node: slot [k] of the
   fill reads its candidates at [k * stride] and chooses as the per-slot
   selector does.  This is exact because a fill writes neither the store
   nor the CAN, so a lookup returns the same entries in either pass;
   everything that depends on order (probes, their counters, spans and
   cache, the rng's fallback picks, the referrer lists) stays in pass 2. *)
let region_ordered_fill t ~rtts ~lookup_results ~lookup_ttl ~load_weight =
  let ecan = t.ecan in
  let ids = Can_overlay.node_ids (Ecan_exp.can ecan) in
  let fan = 1 lsl Ecan_exp.span_bits ecan in
  let bound = Array.fold_left (fun n id -> n + (Ecan_exp.rows ecan id * (fan - 1))) 0 ids in
  let stride = min rtts lookup_results in
  (* Slot [k]'s candidates go at [k * stride].  Until pass 1 looks it up,
     that cell links [k] to the slot listed before it in its region's
     group, -1 for the first; the group's [last] heads that chain.
     [first.(i)] is [ids.(i)]'s first slot. *)
  let buf = Bigarray.(Array1.create int32 c_layout (bound * stride)) in
  let first = Array.make (Array.length ids + 1) 0 in
  let groups = Hashtbl.create 1024 and slots = ref 0 in
  Array.iteri
    (fun i id ->
      first.(i) <- !slots;
      Ecan_exp.iter_selections ecan id (fun ~row:_ ~digit:_ ~region ~candidates:_ ->
          let key = Can_overlay.region_key region in
          let g =
            match Hashtbl.find groups key with
            | g -> g
            | exception Not_found ->
              let g = { region; last = -1 } in
              Hashtbl.add groups key g;
              g
          in
          Bigarray.Array1.unsafe_set buf (!slots * stride) (Int32.of_int g.last);
          g.last <- !slots;
          incr slots))
    ids;
  first.(Array.length ids) <- !slots;
  (* The node of slot [k]: the last [i] with [first.(i) <= k]. *)
  let node_of k =
    let lo = ref 0 and hi = ref (Array.length ids - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if first.(mid) <= k then lo := mid else hi := mid - 1
    done;
    ids.(!lo)
  in
  let loads = if load_weight = None then [||] else Array.make (!slots * stride) 0.0 in
  let kept = Array.make stride 0 and kept_loads = Array.make stride 0.0 in
  Hashtbl.iter
    (fun _ { region; last } ->
      let rec walk k =
        if k >= 0 then begin
          let node = node_of k and base = k * stride in
          let prev = Int32.to_int (Bigarray.Array1.unsafe_get buf base) in
          let entries =
            Store.lookup t.store ~region ~vector:(vector_of t node) ~max_results:lookup_results
              ~ttl:lookup_ttl ()
          in
          let n = fill_others ~node kept 0 entries in
          for i = 0 to n - 1 do
            Bigarray.Array1.unsafe_set buf (base + i) (Int32.of_int kept.(i))
          done;
          if n < stride then Bigarray.Array1.unsafe_set buf (base + n) (-1l);
          if load_weight <> None then begin
            fill_loads ~node kept_loads 0 entries;
            Array.blit kept_loads 0 loads base n
          end;
          walk prev
        end
      in
      walk last)
    groups;
  let next = ref 0 in
  Ecan_exp.build_tables ecan ~selector:(fun ~node ~region:_ ~candidates ->
      let base = !next * stride in
      incr next;
      let n = ref 0 in
      while !n < stride && Bigarray.Array1.unsafe_get buf (base + !n) >= 0l do
        incr n
      done;
      let dsts = Array.make !n 0 in
      for i = 0 to !n - 1 do
        dsts.(i) <- Int32.to_int (Bigarray.Array1.unsafe_get buf (base + i))
      done;
      choose t ~node ~candidates ~dsts ~load_weight ~loads ~base);
  assert (!next = !slots)

let rebuild_tables t strategy =
  match strategy with
  | Strategy.Hybrid { rtts; lookup_results; lookup_ttl } ->
    region_ordered_fill t ~rtts ~lookup_results ~lookup_ttl ~load_weight:None
  | Strategy.Load_aware { rtts; lookup_results; lookup_ttl; load_weight } ->
    region_ordered_fill t ~rtts ~lookup_results ~lookup_ttl ~load_weight:(Some load_weight)
  | Strategy.Random_pick | Strategy.Optimal ->
    Ecan_exp.build_tables t.ecan ~selector:(selector t strategy)

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
  let store =
    Store.create ?metrics ?labels ?trace ~shards:config.shards ~condense:config.condense
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
  rebuild_tables t config.strategy;
  Log.info (fun m ->
      m "built overlay: %d members, %d landmarks, strategy %s" (Array.length members)
        config.landmark_count
        (Strategy.to_string config.strategy));
  t

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
