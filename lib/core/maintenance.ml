module Sim = Engine.Sim
module Bus = Pubsub.Bus
module Store = Softstate.Store
module Oracle = Topology.Oracle
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway

let log_src = Logs.Src.create "topo.maintenance" ~doc:"Soft-state upkeep and pub/sub repair"

module Log = (val Logs.src_log log_src)

type counters = {
  c_reselections : Engine.Metrics.counter;
  c_refreshes : Engine.Metrics.counter;
  c_crashes : Engine.Metrics.counter;
}

(* Extra instruments registered only in adaptive mode, so a non-adaptive
   run's instrument set (and hence its metrics JSON) is unchanged. *)
type adapt_obs = {
  g_refresh : Engine.Metrics.gauge;
  g_sweep : Engine.Metrics.gauge;
  g_digest : Engine.Metrics.gauge option;  (* only when the policy tunes the digest *)
  c_adaptations : Engine.Metrics.counter;
  h_sample : Engine.Metrics.histogram;
}

type t = {
  builder : Builder.t;
  sim : Sim.t;
  bus : Bus.t;
  mutable refresh_period : float;
  mutable sweep_period : float;
  mutable refresh_timer : Sim.timer option;
  mutable sweep_timers : Sim.timer list;
  mutable timers : Sim.timer list;  (* liveness polling, table audit *)
  watches : (int, Bus.subscription list array) Hashtbl.t;
      (* node -> its slots' live subscriptions, by slot [row * fan + digit] *)
  crash_at : (int, float) Hashtbl.t;  (* victim -> injection time *)
  adapt : Engine.Repair.controller option;
  tracer : Engine.Trace.t option;
  mutable reselections : int;
  mutable refreshes : int;
  mutable stopped : bool;
  counters : counters option;
  adapt_obs : adapt_obs option;
}

let overlay_latency builder ~host ~subscriber =
  let ecan = builder.Builder.ecan in
  let can = Ecan_exp.can ecan in
  if host < 0 || (not (Can_overlay.mem can host)) || not (Can_overlay.mem can subscriber) then 0.0
  else
    match Measure.to_member can (Ecan_exp.route ecan) ~src:host subscriber with
    | Some hops -> Measure.path_latency builder.Builder.oracle hops
    | None -> Oracle.dist builder.Builder.oracle host subscriber

(* A refresh cycle is a re-publication: live entries get their TTL bumped
   in place (stats preserved), and entries that expired (or were injected
   stale and swept) are re-published through the bus, so watchers re-learn
   of the still-alive member. *)
let refresh_all t =
  let builder = t.builder in
  let store = builder.Builder.store in
  let can = Ecan_exp.can builder.Builder.ecan in
  let span_bits = builder.Builder.config.Builder.span_bits in
  Array.iter
    (fun node ->
      let path = (Can_overlay.node can node).Can_overlay.path in
      let len = Array.length path / span_bits * span_bits in
      let rec go l =
        if l >= 0 then begin
          if not (Store.refresh_prefix store ~path ~len:l ~node) then
            Bus.publish t.bus ~region:(Array.sub path 0 l) ~node
              ~vector:(Builder.vector_of builder node);
          t.refreshes <- t.refreshes + 1;
          (match t.counters with
          | Some c -> Engine.Metrics.incr c.c_refreshes
          | None -> ());
          go (l - span_bits)
        end
      in
      go len)
    (Can_overlay.node_ids can)

let arm_refresh t =
  t.refresh_timer <- Some (Sim.every t.sim ~period:t.refresh_period (fun () -> refresh_all t))

(* Sweeping through the bus turns TTL expiry into departure
   notifications, so watchers of a crashed (never-retracted) node's
   entries eventually learn of its demise even without liveness
   polling.  Each store shard gets its own periodic sweep, staggered
   across the period so no single event touches the whole store; with
   one shard this degenerates to the single sweep-every-period timer. *)
let arm_sweeps t =
  let nshards = Store.shard_count t.builder.Builder.store in
  let period = t.sweep_period in
  t.sweep_timers <-
    List.init nshards (fun i ->
        let offset = period *. float_of_int (i + 1) /. float_of_int nshards in
        Sim.schedule t.sim ~delay:offset (fun () ->
            ignore (Bus.expire_sweep_shard t.bus i);
            let tm =
              Sim.every t.sim ~period (fun () -> ignore (Bus.expire_sweep_shard t.bus i))
            in
            t.sweep_timers <- tm :: t.sweep_timers))

(* Adaptive re-tune: drop the old timers and restart them at the
   controller's periods (each shard's first re-armed sweep lands at its
   stagger offset from now).  [digest] is [Some w] only when the policy
   tunes the digest window; the bus picks the new window up for digests
   opened after this instant. *)
let retune t ~refresh ~sweep ~digest =
  t.refresh_period <- refresh;
  t.sweep_period <- sweep;
  Option.iter (fun w -> Bus.set_digest_window t.bus w) digest;
  Option.iter Sim.cancel t.refresh_timer;
  List.iter Sim.cancel t.sweep_timers;
  t.sweep_timers <- [];
  arm_refresh t;
  arm_sweeps t;
  match t.adapt_obs with
  | Some o ->
    Engine.Metrics.set o.g_refresh refresh;
    Engine.Metrics.set o.g_sweep sweep;
    (match (o.g_digest, digest) with
    | Some g, Some w -> Engine.Metrics.set g w
    | _ -> ());
    Engine.Metrics.incr o.c_adaptations
  | None -> ()

(* The adaptive observation point: a delivered departure notification
   about a node we know crashed is one sample of the repair latency the
   pub/sub plane just achieved for that victim. *)
let observe_notification t (n : Bus.notification) =
  match t.adapt with
  | None -> ()
  | Some ctl ->
    (match n.Bus.event with
    | Bus.Entry_departed { entry_node; _ } ->
      (match Hashtbl.find_opt t.crash_at entry_node with
      | Some t0 ->
        let sample = n.Bus.delivered_at -. t0 in
        (match t.adapt_obs with
        | Some o -> Engine.Metrics.observe o.h_sample sample
        | None -> ());
        if Engine.Repair.observe ctl sample then
          retune t ~refresh:(Engine.Repair.refresh_period ctl)
            ~sweep:(Engine.Repair.sweep_period ctl)
            ~digest:(Engine.Repair.digest_window ctl)
      | None -> ())
    | Bus.Entry_published _ | Bus.Load_changed _ -> ())

let start ~sim ?metrics ?labels ?trace ?(refresh_period = 200_000.0)
    ?(sweep_period = 100_000.0) ?channel ?digest_window ?adapt builder =
  let bus =
    Bus.create ?metrics ?labels ?trace ~sim
      ~latency:(fun ~host ~subscriber -> overlay_latency builder ~host ~subscriber)
      ?channel ?digest_window builder.Builder.store
  in
  let counters =
    Option.map
      (fun m ->
        let labels = Option.value labels ~default:[] in
        {
          c_reselections = Engine.Metrics.counter m ~labels "maintenance_reselections";
          c_refreshes = Engine.Metrics.counter m ~labels "maintenance_refreshes";
          c_crashes = Engine.Metrics.counter m ~labels "maintenance_crashes";
        })
      metrics
  in
  let controller =
    Option.map
      (fun policy ->
        Engine.Repair.controller ~refresh:refresh_period ~sweep:sweep_period
          ~digest:(Option.value digest_window ~default:0.0)
          policy)
      adapt
  in
  let adapt_obs =
    match (controller, metrics) with
    | Some _, Some m ->
      let labels = Option.value labels ~default:[] in
      Some
        {
          g_refresh = Engine.Metrics.gauge m ~labels "maintenance_refresh_period_ms";
          g_sweep = Engine.Metrics.gauge m ~labels "maintenance_sweep_period_ms";
          (* Registered only when the policy tunes the digest: a
             refresh/sweep-only adaptive run keeps its instrument set. *)
          g_digest =
            (if (match adapt with Some p -> Engine.Repair.tunes_digest p | None -> false)
             then Some (Engine.Metrics.gauge m ~labels "maintenance_digest_window_ms")
             else None);
          c_adaptations = Engine.Metrics.counter m ~labels "maintenance_adaptations";
          h_sample = Engine.Metrics.histogram m ~labels "maintenance_repair_sample_ms";
        }
    | _ -> None
  in
  (* A digest-tuning controller clamps the starting window into its
     bounds; keep the bus in agreement from the first digest on. *)
  (match controller with
  | Some c ->
    Option.iter
      (fun w -> if w <> Bus.digest_window bus then Bus.set_digest_window bus w)
      (Engine.Repair.digest_window c)
  | None -> ());
  let t =
    {
      builder;
      sim;
      bus;
      (* The controller may have clamped the starting periods into the
         policy bounds. *)
      refresh_period =
        (match controller with
        | Some c -> Engine.Repair.refresh_period c
        | None -> refresh_period);
      sweep_period =
        (match controller with Some c -> Engine.Repair.sweep_period c | None -> sweep_period);
      refresh_timer = None;
      sweep_timers = [];
      timers = [];
      watches = Hashtbl.create 256;
      crash_at = Hashtbl.create 16;
      adapt = controller;
      tracer = trace;
      reselections = 0;
      refreshes = 0;
      stopped = false;
      counters;
      adapt_obs;
    }
  in
  arm_refresh t;
  arm_sweeps t;
  (match t.adapt_obs with
  | Some o ->
    Engine.Metrics.set o.g_refresh t.refresh_period;
    Engine.Metrics.set o.g_sweep t.sweep_period;
    (match (o.g_digest, controller) with
    | Some g, Some c ->
      Option.iter (fun w -> Engine.Metrics.set g w) (Engine.Repair.digest_window c)
    | _ -> ())
  | None -> ());
  t

let bus t = t.bus

let reselections t = t.reselections
let refreshes t = t.refreshes
let refresh_period t = t.refresh_period
let sweep_period t = t.sweep_period
let controller t = t.adapt

let slot_index t ~row ~digit = (row lsl Ecan_exp.span_bits t.builder.Builder.ecan) lor digit

let drop_slot_subs t ~node ~row ~digit =
  match Hashtbl.find t.watches node with
  | exception Not_found -> ()
  | slots ->
    let i = slot_index t ~row ~digit in
    if i < Array.length slots then begin
      List.iter (Bus.unsubscribe t.bus) slots.(i);
      slots.(i) <- []
    end

let set_slot_subs t ~node ~row ~digit subs =
  let i = slot_index t ~row ~digit in
  let slots =
    match Hashtbl.find t.watches node with
    | slots when i < Array.length slots -> slots
    | exception Not_found ->
      let rows = Ecan_exp.rows t.builder.Builder.ecan node in
      let slots = Array.make (max (i + 1) (slot_index t ~row:rows ~digit:0)) [] in
      Hashtbl.replace t.watches node slots;
      slots
    | old ->
      let slots = Array.make (i + 1) [] in
      Array.blit old 0 slots 0 (Array.length old);
      Hashtbl.replace t.watches node slots;
      slots
  in
  slots.(i) <- subs

let drop_node_subs t node =
  match Hashtbl.find t.watches node with
  | exception Not_found -> ()
  | slots ->
    Array.iter (List.iter (Bus.unsubscribe t.bus)) slots;
    Hashtbl.remove t.watches node

let stop t =
  t.stopped <- true;
  Option.iter Sim.cancel t.refresh_timer;
  t.refresh_timer <- None;
  List.iter Sim.cancel t.sweep_timers;
  t.sweep_timers <- [];
  List.iter Sim.cancel t.timers;
  t.timers <- [];
  Hashtbl.iter (fun _ slots -> Array.iter (List.iter (Bus.unsubscribe t.bus)) slots) t.watches;
  Hashtbl.reset t.watches

(* Re-run selection for one slot and renew its subscriptions. *)
let rec reselect_slot t ~node ~row ~digit =
  if not t.stopped then begin
    let ecan = t.builder.Builder.ecan in
    let can = Ecan_exp.can ecan in
    if Can_overlay.mem can node && row < Ecan_exp.rows ecan node
       && digit <> Ecan_exp.own_digit ecan node ~row
    then begin
      let region = Ecan_exp.region_prefix ecan node ~row ~digit in
      let candidates = Can_overlay.members_with_prefix can region in
      let choice =
        if Array.length candidates = 0 then None
        else
          (Builder.selector t.builder t.builder.Builder.config.Builder.strategy)
            ~node ~region ~candidates
      in
      Ecan_exp.set_entry ecan node ~row ~digit choice;
      t.reselections <- t.reselections + 1;
      (match t.counters with
      | Some c -> Engine.Metrics.incr c.c_reselections
      | None -> ());
      Log.debug (fun m ->
          m "reselected slot (%d,%d,%d) -> %s" node row digit
            (match choice with Some c -> string_of_int c | None -> "-"));
      watch_slot t ~node ~row ~digit
    end
  end

(* Subscribe the slot's owner to its region: a strictly closer newcomer in
   landmark space, or the departure of the current representative, both
   trigger re-selection. *)
and watch_slot t ~node ~row ~digit =
  drop_slot_subs t ~node ~row ~digit;
  let ecan = t.builder.Builder.ecan in
  if row < Ecan_exp.rows ecan node && digit <> Ecan_exp.own_digit ecan node ~row then begin
    let region = Ecan_exp.region_prefix ecan node ~row ~digit in
    let vector = Builder.vector_of t.builder node in
    let handler n =
      observe_notification t n;
      reselect_slot t ~node ~row ~digit
    in
    let subs =
      match Ecan_exp.entry ecan node ~row ~digit with
      | Some target ->
        let current = Oracle.dist t.builder.Builder.oracle node target in
        (* Landmark-space proxy for "closer than my current neighbor":
           entries whose vector sits within the current physical distance
           of mine.  Conservative (may over-notify), never misses. *)
        [
          Bus.subscribe t.bus ~subscriber:node ~region
            ~condition:(Bus.Closer_than (vector, current)) ~handler;
          Bus.subscribe t.bus ~subscriber:node ~region ~condition:(Bus.Departure_of target)
            ~handler;
        ]
      | None ->
        [ Bus.subscribe t.bus ~subscriber:node ~region ~condition:Bus.Any_new_entry ~handler ]
    in
    set_slot_subs t ~node ~row ~digit subs
  end

let enable_liveness_polling t ?(period = 300_000.0) ~is_alive () =
  let poll () =
    (* Owners poll the liveliness of the nodes their entries describe;
       dead ones are retracted through the bus so departure watchers
       fire (the paper's middle maintenance policy). *)
    List.iter
      (fun node -> if not (is_alive node) then Bus.depart t.bus ~node)
      (Store.described_nodes t.builder.Builder.store)
  in
  let timer = Sim.every t.sim ~period poll in
  t.timers <- timer :: t.timers

let watch_all_slots_of t node =
  Ecan_exp.iter_slots t.builder.Builder.ecan node (watch_slot t ~node)

let subscribe_all_slots t =
  Array.iter (watch_all_slots_of t) (Can_overlay.node_ids (Ecan_exp.can t.builder.Builder.ecan))

let node_joins t node =
  let builder = t.builder in
  let can = Ecan_exp.can builder.Builder.ecan in
  (* Through the shared probe plane: joins under maintenance get the same
     concurrency window (and RTT cache) as build-time joins. *)
  let vector =
    Landmark.Landmarks.vector_via builder.Builder.landmarks builder.Builder.prober node
  in
  Hashtbl.replace builder.Builder.vectors node vector;
  ignore
    (Can_overlay.join can node
       (Geometry.Point.random builder.Builder.rng builder.Builder.config.Builder.dims));
  Store.rehost builder.Builder.store;
  (* Publishing through the bus is what lets Closer_than watchers adopt
     the newcomer. *)
  Bus.publish_all t.bus ~span_bits:builder.Builder.config.Builder.span_bits ~node ~vector;
  let selector = Builder.selector builder builder.Builder.config.Builder.strategy in
  Ecan_exp.build_table_for builder.Builder.ecan ~selector node;
  watch_all_slots_of t node;
  (* The node that split its zone for the newcomer sits behind the
     flipped last path bit; its table just gained a row. *)
  let path = (Can_overlay.node can node).Can_overlay.path in
  let len = Array.length path in
  if len > 0 then begin
    let sibling = Array.copy path in
    sibling.(len - 1) <- 1 - sibling.(len - 1);
    let partners = Can_overlay.members_with_prefix can sibling in
    Array.iter
      (fun partner ->
        if Array.length (Can_overlay.node can partner).Can_overlay.path = len then begin
          Ecan_exp.build_table_for builder.Builder.ecan ~selector partner;
          watch_all_slots_of t partner
        end)
      partners
  end

(* Shared removal path: [node_departs] retracts soft state first (the
   proactive policy, watchers notified); [node_crashes] is fail-stop — the
   node vanishes without retraction, its entries rot until the TTL sweep
   or liveness polling turns them into departure notifications. *)
let remove_member t node ~retract =
  let builder = t.builder in
  let can = Ecan_exp.can builder.Builder.ecan in
  (* Dead or departed: its cached RTTs must not answer future probes. *)
  Engine.Probe.invalidate builder.Builder.prober node;
  if retract then Bus.depart t.bus ~node;
  let effect = Can_overlay.leave can node in
  Hashtbl.remove builder.Builder.vectors node;
  Store.rehost builder.Builder.store;
  (* The merge survivor and the backfilled node both changed zones:
     refresh their published regions, tables and watches. *)
  let selector = Builder.selector builder builder.Builder.config.Builder.strategy in
  let refresh_relocated id =
    if id <> node && Can_overlay.mem can id then begin
      Store.unpublish_everywhere builder.Builder.store id;
      Bus.publish_all t.bus ~span_bits:builder.Builder.config.Builder.span_bits ~node:id
        ~vector:(Builder.vector_of builder id);
      Ecan_exp.build_table_for builder.Builder.ecan ~selector id;
      watch_all_slots_of t id
    end
  in
  refresh_relocated effect.Can_overlay.survivor;
  Option.iter refresh_relocated effect.Can_overlay.backfilled;
  (* slots elsewhere whose entries now reference the wrong region get
     re-selected immediately (their watchers are renewed by the reselect) *)
  List.iter
    (fun (id, row, digit) -> reselect_slot t ~node:id ~row ~digit)
    (Builder.stale_slots builder
       (effect.Can_overlay.survivor :: Option.to_list effect.Can_overlay.backfilled));
  (* The departed node's own subscriptions die with it. *)
  drop_node_subs t node

(* The victim-tagged fault span [Engine.Repair.analyze] resolves: node =
   victim, at = the injection instant.  (The plan spans [Engine.Faults]
   emits carry node = -1 — victims are picked driver-side, so only here
   is the victim known.) *)
let emit_fault_span t node fault =
  match t.tracer with
  | Some tr -> Engine.Trace.emit tr ~at:(Sim.now t.sim) (Engine.Trace.Fault_inject fault) ~node
  | None -> ()

let node_departs t node =
  emit_fault_span t node Engine.Trace.Leave;
  remove_member t node ~retract:true

let node_crashes t node =
  (match t.counters with Some c -> Engine.Metrics.incr c.c_crashes | None -> ());
  emit_fault_span t node Engine.Trace.Crash;
  Hashtbl.replace t.crash_at node (Sim.now t.sim);
  remove_member t node ~retract:false

let audit_tables t =
  let ecan = t.builder.Builder.ecan in
  let can = Ecan_exp.can ecan in
  Array.iter
    (fun node ->
      Ecan_exp.iter_slots ecan node (fun ~row ~digit ->
          let region = Ecan_exp.region_prefix ecan node ~row ~digit in
          let wants_repair =
            match Ecan_exp.entry ecan node ~row ~digit with
            | Some target ->
              (* Dead or relocated-out-of-region representative. *)
              not (Ecan_exp.in_region ecan ~region target)
            | None ->
              (* Unfilled slot whose region has members: a publish
                 notification was lost. *)
              Array.length (Can_overlay.members_with_prefix can region) > 0
          in
          if wants_repair then reselect_slot t ~node ~row ~digit))
    (Can_overlay.node_ids can)

let enable_table_audit t ?(period = 400_000.0) () =
  let timer = Sim.every t.sim ~period (fun () -> audit_tables t) in
  t.timers <- timer :: t.timers
