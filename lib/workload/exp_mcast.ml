(* Topology-aware dissemination trees: the mcast experiment.

   A group of subscriber nodes receives an identical publish schedule
   through [Engine.Mcast] trees over every backend: two trees on the
   same eCAN overlay differing only in placement policy (soft-state
   [Aware] vs seeded [Random] — the headline pair), plus trees routed
   over plain CAN, Chord, Pastry and Koorde.  During a static phase the
   group is
   stable, so the aware and random rows deliver exactly the same count
   and the stretch/stress/latency gaps are pure placement.  A churn
   storm then crashes, departs and joins group members: parent loss is
   detected through the *real* soft-state plane — every tree node holds
   a [Departure_of parent] watch on the pub/sub bus, and a crashed
   parent's entries must TTL-expire and be swept before the watch fires
   and the orphaned subtree re-grafts through the maps.  The orphanhood
   duration (crash to regraft) lands in [Mcast_regraft] spans, which
   [Engine.Repair.analyze] attributes back to the lost parent like any
   other repair traffic.

   Determinism: the churn schedule (event times, victims, newcomers) is
   derived once from the seed over the shared member population and
   replayed verbatim against every row, so group evolution — and hence
   each publish's delivery opportunity — is identical across backends. *)

module Oracle = Topology.Oracle
module Builder = Core.Builder
module Maintenance = Core.Maintenance
module Sim = Engine.Sim
module Mcast = Engine.Mcast
module Repair = Engine.Repair
module Metrics = Engine.Metrics
module Trace = Engine.Trace
module Bus = Pubsub.Bus
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Stats = Prelude.Stats
module Rng = Prelude.Rng

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

(* Short soft-state timeline (the repair sweep's): with a 30 s TTL and
   no liveness polling, crash detection is pure expiry + sweep, so a
   crashed interior node's subtree stays orphaned for a refresh/sweep-
   dependent window that the churn-phase publishes sample. *)
let ttl = 30_000.0
let refresh = 20_000.0
let sweep = 5_000.0
let shards = 4
let static_start = 4_000.0
let storm_start = 30_000.0
let storm_end = 100_000.0
let pubs_end = 135_000.0
let horizon = 150_000.0

let min_group = 4

(* Overlay size, group size and the publish and fault counts.  A
   requested group size is clamped to [min_group, size - 1]. *)
let sizes ~scale ?group_size () =
  let scale = max 1 scale in
  let size = max 24 (96 / scale) in
  let group =
    match group_size with
    | Some g -> max min_group (min g (size - 1))
    | None -> max 8 (min (size - 1) (64 / scale))
  in
  let static_pubs = max 6 (16 / scale) in
  let churn_pubs = max 12 (48 / scale) in
  let crashes = max 3 (12 / scale) in
  let leaves = max 1 (4 / scale) in
  let joins = max 2 (8 / scale) in
  (size, group, static_pubs, churn_pubs, crashes, leaves, joins)

(* ------------------------------------------------------------------ *)
(* Churn schedule: shared verbatim by every row                        *)
(* ------------------------------------------------------------------ *)

type action =
  | Publish of bool  (* true = churn phase *)
  | Crash of int
  | Leave of int
  | Join of int

type event = { at : float; action : action }

(* Victims and newcomers are resolved here, once, by walking the merged
   event grid in time order against a simulated group roster — so every
   row sees the same faults hit the same node ids at the same instants. *)
let schedule ~seed ~subscribers ~joiners ~static_pubs ~churn_pubs ~crashes ~leaves ~joins =
  let rng = Rng.create ((seed * 9173) + 7) in
  let group = ref subscribers in
  let pool = ref (Array.to_list joiners) in
  let slot start count i =
    start +. (float_of_int i *. (storm_end -. start) /. float_of_int count)
  in
  let grid =
    List.concat
      [
        List.init static_pubs (fun i ->
            ( static_start
              +. float_of_int i
                 *. (storm_start -. static_start -. 1_000.0)
                 /. float_of_int static_pubs,
              `Pub false ));
        List.init churn_pubs (fun i ->
            ( storm_start
              +. (float_of_int i *. (pubs_end -. storm_start) /. float_of_int churn_pubs),
              `Pub true ));
        List.init crashes (fun i -> (slot 32_000.0 crashes i, `Crash));
        List.init leaves (fun i -> (slot 38_500.0 leaves i, `Leave));
        List.init joins (fun i -> (slot 35_250.0 joins i, `Join));
      ]
  in
  let grid = List.stable_sort (fun (a, _) (b, _) -> compare a b) grid in
  let pick_victim () =
    if List.length !group <= min_group then None
    else begin
      let v = Rng.pick rng (Array.of_list !group) in
      group := List.filter (fun n -> n <> v) !group;
      Some v
    end
  in
  List.filter_map
    (fun (at, k) ->
      match k with
      | `Pub churn -> Some { at; action = Publish churn }
      | `Crash -> Option.map (fun v -> { at; action = Crash v }) (pick_victim ())
      | `Leave -> Option.map (fun v -> { at; action = Leave v }) (pick_victim ())
      | `Join -> (
        match !pool with
        | n :: rest ->
          pool := rest;
          group := n :: !group;
          Some { at; action = Join n }
        | [] -> None))
    grid

(* ------------------------------------------------------------------ *)
(* Backends                                                            *)
(* ------------------------------------------------------------------ *)

(* The rows' shared service adapters ({!Backend.service}), projected
   onto the tree's backend; the row-specific structure upkeep the
   maintenance plane does not cover (Chord/Pastry/Koorde keep their own
   tables) stays on the service. *)
let backend_of (s : Backend.service) =
  {
    Mcast.name = s.Backend.name;
    member = s.Backend.member;
    route_to = s.Backend.route_to;
    candidates = s.Backend.candidates;
    publish_load = s.Backend.publish_load;
  }

(* ------------------------------------------------------------------ *)
(* Driving one row through the shared schedule                         *)
(* ------------------------------------------------------------------ *)

type stats = {
  label : string;
  static_lat : float array;  (* per static-phase delivery, ms *)
  static_stretch : float array;
  static_delivered : int;
  static_missed : int;
  static_stress_max : int;
  static_stress_mean : float;  (* traversals per distinct physical link *)
  static_traversals : int;  (* total physical link traversals *)
  static_cost_ms : float;  (* stress-weighted link latency (network cost) *)
  churn_lat : float array;
  churn_delivered : int;
  churn_missed : int;
  regrafts : int;
  relays : int;
  regraft : Repair.dist;  (* orphanhood durations via the trace analyzer *)
}

type kind = Ecan_aware | Ecan_random | Can_greedy | Chord_row | Pastry_row | Koorde_row

let run_row ?metrics ~oracle ~size ~seed ~degree ~subscribers ~events ~label kind =
  let sim = Sim.create () in
  let tracer = Trace.create ~capacity:(1 lsl 17) ~clock:(fun () -> Sim.now sim) () in
  let labels = [ ("experiment", "mcast"); ("backend", label) ] in
  let bconfig =
    {
      Builder.default_config with
      Builder.overlay_size = size;
      ttl;
      shards;
      seed = (seed * 3307) + 2;
    }
  in
  let b =
    Builder.build ?metrics ~labels ~trace:tracer ~clock:(fun () -> Sim.now sim) oracle bconfig
  in
  let m =
    Maintenance.start ~sim ?metrics ~labels ~trace:tracer ~refresh_period:refresh
      ~sweep_period:sweep b
  in
  Maintenance.subscribe_all_slots m;
  let bus = Maintenance.bus m in
  let rtt = Backend.service_rtt ?metrics ~labels ~clock:(fun () -> Sim.now sim) oracle in
  let service =
    match kind with
    | Ecan_aware | Ecan_random ->
      Backend.builder_service ~name:label ~route:(Ecan_exp.route b.Builder.ecan) b
    | Can_greedy ->
      Backend.builder_service ~name:label
        ~route:(Can_overlay.route (Ecan_exp.can b.Builder.ecan))
        b
    | Chord_row -> Backend.ring_service ~seed b Backend.Chord
    | Pastry_row -> Backend.ring_service ~seed b Backend.Pastry
    | Koorde_row -> Backend.ring_service ~seed b (Backend.Koorde 4)
  in
  let policy = match kind with Ecan_random -> Mcast.Random | _ -> Mcast.Aware in
  let tree =
    Mcast.create ?metrics ~labels ~trace:tracer
      ~clock:(fun () -> Sim.now sim)
      ~rtt
      ~config:{ Mcast.degree; policy; seed = (seed * 3307) + 5 }
      ~link:(Oracle.dist oracle) ~root:b.Builder.members.(0) (backend_of service)
  in
  (* Detection wiring: every tree node watches its parent's root-region
     entry on the bus.  The watch firing is the instant the soft-state
     plane learned of the loss — for a leave that's one notification
     delivery, for a crash it's TTL expiry plus the sweep — and the
     orphan re-grafts right there, so regraft latency includes the real
     detection delay. *)
  let watches : (int, int * Bus.subscription) Hashtbl.t = Hashtbl.create 128 in
  let rec sync_watches () =
    (* An orphan's watch on its lost parent must survive until the
       departure notification arrives — that firing is the detection. *)
    let stale =
      Hashtbl.fold
        (fun n (p, sub) acc ->
          match Mcast.parent_of tree n with
          | Some p' when p' = p -> acc
          | None when List.mem n (Mcast.members tree) -> acc
          | _ -> (n, sub) :: acc)
        watches []
    in
    List.iter
      (fun (n, sub) ->
        Bus.unsubscribe bus sub;
        Hashtbl.remove watches n)
      stale;
    List.iter
      (fun n ->
        match Mcast.parent_of tree n with
        | Some p when not (Hashtbl.mem watches n) ->
          let sub =
            Bus.subscribe bus ~subscriber:n ~region:[||] ~condition:(Bus.Departure_of p)
              ~handler:(fun _ -> parent_lost n)
          in
          Hashtbl.replace watches n (p, sub)
        | _ -> ())
      (Mcast.members tree)
  and parent_lost n =
    if List.mem n (Mcast.orphans tree) then begin
      Mcast.regraft tree n;
      sync_watches ()
    end
  in
  List.iter (fun g -> Mcast.subscribe tree g) subscribers;
  sync_watches ();
  let static_lat = ref [] and static_stretch = ref [] in
  let churn_lat = ref [] in
  let static_delivered = ref 0 and static_missed = ref 0 in
  let churn_delivered = ref 0 and churn_missed = ref 0 in
  let static_stress_max = ref 0 and static_links = ref 0 and static_traversals = ref 0 in
  let static_cost = ref 0.0 in
  let fire ev =
    match ev.action with
    | Publish churn ->
      let d = Mcast.publish tree in
      List.iter
        (fun (_, lat, stretch) ->
          if churn then churn_lat := lat :: !churn_lat
          else begin
            static_lat := lat :: !static_lat;
            static_stretch := stretch :: !static_stretch
          end)
        d.Mcast.delivered;
      let nd = List.length d.Mcast.delivered and nm = List.length d.Mcast.missed in
      if churn then begin
        churn_delivered := !churn_delivered + nd;
        churn_missed := !churn_missed + nm
      end
      else begin
        static_delivered := !static_delivered + nd;
        static_missed := !static_missed + nm;
        static_stress_max := max !static_stress_max d.Mcast.max_stress;
        static_links := !static_links + d.Mcast.link_count;
        static_traversals := !static_traversals + d.Mcast.traversals;
        static_cost := !static_cost +. d.Mcast.cost_ms
      end
    | Crash v ->
      Maintenance.node_crashes m v;
      service.Backend.on_remove v;
      ignore (Mcast.drop_member tree v);
      sync_watches ()
    | Leave v ->
      Maintenance.node_departs m v;
      service.Backend.on_remove v;
      ignore (Mcast.drop_member tree v);
      sync_watches ()
    | Join n ->
      Maintenance.node_joins m n;
      service.Backend.on_join n;
      Mcast.subscribe tree n;
      sync_watches ()
  in
  List.iter (fun ev -> ignore (Sim.schedule_at sim ev.at (fun () -> fire ev))) events;
  Sim.run ~until:horizon sim;
  (match Mcast.check_invariants tree with
  | Ok () -> ()
  | Error e -> failwith ("Exp_mcast: tree invariant broken: " ^ e));
  Maintenance.stop m;
  let report = Repair.analyze (Trace.spans tracer) in
  Option.iter (fun mreg -> Repair.record_metrics ~labels mreg report) metrics;
  {
    label;
    static_lat = Array.of_list (List.rev !static_lat);
    static_stretch = Array.of_list (List.rev !static_stretch);
    static_delivered = !static_delivered;
    static_missed = !static_missed;
    static_stress_max = !static_stress_max;
    static_stress_mean =
      (if !static_links = 0 then 0.0
       else float_of_int !static_traversals /. float_of_int !static_links);
    static_traversals = !static_traversals;
    static_cost_ms = !static_cost;
    churn_lat = Array.of_list (List.rev !churn_lat);
    churn_delivered = !churn_delivered;
    churn_missed = !churn_missed;
    regrafts = Mcast.regrafts tree;
    relays = Mcast.relays_recruited tree;
    regraft = report.Repair.regraft;
  }

(* ------------------------------------------------------------------ *)
(* The experiment                                                      *)
(* ------------------------------------------------------------------ *)

let rows ~scale ~seed ~degree ?policy ?metrics
    (size, group_size, static_pubs, churn_pubs, crashes, leaves, joins) =
  if degree < 1 then invalid_arg "Exp_mcast: degree must be >= 1";
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Manual in
  (* One throwaway build resolves the shared member population (a pure
     function of oracle + config + seed) so the churn schedule can be
     derived before — and identically for — every row. *)
  let b0 =
    Builder.build oracle
      {
        Builder.default_config with
        Builder.overlay_size = size;
        ttl;
        shards;
        seed = (seed * 3307) + 2;
      }
  in
  let members = b0.Builder.members in
  let member_set = Hashtbl.create size in
  Array.iter (fun n -> Hashtbl.replace member_set n ()) members;
  let joiners =
    Array.of_seq
      (Seq.filter
         (fun i -> not (Hashtbl.mem member_set i))
         (Seq.init (Oracle.node_count oracle) (fun i -> i)))
  in
  let subscribers = Array.to_list (Array.sub members 1 group_size) in
  let events =
    schedule ~seed ~subscribers ~joiners ~static_pubs ~churn_pubs ~crashes ~leaves ~joins
  in
  let row_kinds =
    (match policy with
    | Some Mcast.Aware -> [ (Ecan_aware, "ecan aware") ]
    | Some Mcast.Random -> [ (Ecan_random, "ecan random") ]
    | None -> [ (Ecan_aware, "ecan aware"); (Ecan_random, "ecan random") ])
    @ [
        (Can_greedy, "can greedy");
        (Chord_row, "chord");
        (Pastry_row, "pastry");
        (Koorde_row, "koorde");
      ]
  in
  List.map
    (fun (kind, label) ->
      run_row ?metrics ~oracle ~size ~seed ~degree ~subscribers ~events ~label kind)
    row_kinds

let data ?(scale = 1) ?(seed = 42) ?group_size ?(degree = 3) ?policy ?metrics () =
  rows ~scale ~seed ~degree ?policy ?metrics (sizes ~scale ?group_size ())

let pct arr p = if Array.length arr = 0 then Float.nan else Stats.percentile arr p

let record_stats metrics s =
  let labels = [ ("backend", s.label) ] in
  let g name v = Metrics.set (Metrics.gauge metrics ~labels name) v in
  g "mcast_delivery_p50_ms" (pct s.static_lat 50.0);
  g "mcast_delivery_p99_ms" (pct s.static_lat 99.0);
  g "mcast_stretch_p50" (pct s.static_stretch 50.0);
  g "mcast_stretch_p99" (pct s.static_stretch 99.0);
  g "mcast_stress_mean" s.static_stress_mean;
  g "mcast_stress_max" (float_of_int s.static_stress_max);
  g "mcast_traversals" (float_of_int s.static_traversals);
  g "mcast_cost_ms" s.static_cost_ms;
  g "mcast_churn_delivery_p50_ms" (pct s.churn_lat 50.0);
  g "mcast_churn_delivery_p99_ms" (pct s.churn_lat 99.0);
  if s.regraft.Repair.n > 0 then begin
    g "mcast_regraft_p50_ms" s.regraft.Repair.p50;
    g "mcast_regraft_p99_ms" s.regraft.Repair.p99
  end

let run_custom ?(scale = 1) ?(seed = 42) ?group_size ?(degree = 3) ?policy ppf =
  let metrics = Metrics.global in
  let ((size, group_size, static_pubs, churn_pubs, crashes, leaves, joins) as dims) =
    sizes ~scale ?group_size ()
  in
  let stats = rows ~scale ~seed ~degree ?policy ~metrics dims in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Mcast: group %d on %d nodes, degree %d, %d static + %d churn publishes, %d \
            crashes / %d leaves / %d joins, seed %d"
           group_size size degree static_pubs churn_pubs crashes leaves joins seed)
      ~columns:
        [
          "backend"; "p50 ms"; "p99 ms"; "stretch"; "cost ms"; "stress"; "deliv"; "miss";
          "regrafts"; "rg p50";
        ]
  in
  List.iter
    (fun s ->
      record_stats metrics s;
      Tableout.add_row table
        [
          s.label;
          Tableout.cell_f (pct s.static_lat 50.0);
          Tableout.cell_f (pct s.static_lat 99.0);
          Printf.sprintf "%.2f" (pct s.static_stretch 50.0);
          Printf.sprintf "%.0f" s.static_cost_ms;
          Printf.sprintf "%.2f" s.static_stress_mean;
          Tableout.cell_i (s.static_delivered + s.churn_delivered);
          Tableout.cell_i (s.static_missed + s.churn_missed);
          Tableout.cell_i s.regrafts;
          (if s.regraft.Repair.n > 0 then Printf.sprintf "%.0f" s.regraft.Repair.p50
           else "-");
        ])
    stats;
  (* Headline gauges the CI gate holds: map-placed trees beat random
     placement on delivered latency, stretch and link stress at equal
     static delivery counts. *)
  (match stats with
  | aware :: random :: _ when aware.label = "ecan aware" && random.label = "ecan random" ->
    let g name v = Metrics.set (Metrics.gauge metrics name) v in
    g "mcast_random_over_aware_p50" (pct random.static_lat 50.0 /. pct aware.static_lat 50.0);
    g "mcast_random_over_aware_p99" (pct random.static_lat 99.0 /. pct aware.static_lat 99.0);
    g "mcast_random_over_aware_stretch_p50"
      (pct random.static_stretch 50.0 /. pct aware.static_stretch 50.0);
    (* aggregate link stress: stress-weighted physical latency (resource
       usage) over the static phase *)
    g "mcast_random_over_aware_stress" (random.static_cost_ms /. aware.static_cost_ms);
    g "mcast_delivered_equal"
      (if random.static_delivered = aware.static_delivered then 1.0 else 0.0)
  | _ -> ());
  Tableout.render ppf table;
  Format.fprintf ppf
    "  p50/p99/stretch/stress from the static phase (identical group, so the aware/random \
     gap is pure placement); deliv/miss include the churn phase.@.";
  Format.fprintf ppf
    "  regrafts re-attach orphaned subtrees after Departure_of watches fire; rg p50 is \
     orphanhood in ms (crash: TTL expiry + sweep, leave: one notification).@."

let run ?scale ?seed ppf = run_custom ?scale ?seed ppf
