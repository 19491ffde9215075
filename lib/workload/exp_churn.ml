module Oracle = Topology.Oracle
module Builder = Core.Builder
module Maintenance = Core.Maintenance
module Measure = Core.Measure
module Sim = Engine.Sim
module Faults = Engine.Faults
module Store = Softstate.Store
module Bus = Pubsub.Bus
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Landmarks = Landmark.Landmarks
module Rng = Prelude.Rng

type outcome = {
  overlay : string;
  stretch_before : float;
  stretch_storm : float;
  stretch_repaired : float;
  repair_ms : float;
  repair_work : int;
  notifications : int;
  drops : int;
  converged : bool;
}

(* Soft-state timeline: short enough that a storm's stale entries expire
   and are repaired well inside the settle window, long enough that the
   refresh traffic stays modest. *)
let ttl = 60_000.0
let refresh_period = 20_000.0
let sweep_period = 5_000.0
let liveness_period = 15_000.0
let audit_period = 30_000.0
let probe_period = 10_000.0
let settle = 240_000.0
let stab_period = 20_000.0 (* Chord/Pastry/Koorde periodic stabilisation *)
let stretch_samples = 256
let convergence_samples = 64
let min_membership = 8 (* never churn the overlay below this *)

let mean = function
  | [] -> Float.nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* Convergence oracles                                                 *)
(* ------------------------------------------------------------------ *)

(* Fraction of slots that may disagree with the clean rebuild. *)
let tolerance = 0.02

let ecan_convergence (b : Builder.t) =
  let ecan = b.Builder.ecan in
  (* Snapshot the churned tables, rebuild clean, diff, restore. *)
  let snapshot =
    Array.map
      (fun id ->
        let slots = ref [] in
        Ecan_exp.iter_slots ecan id (fun ~row ~digit ->
            slots := (row, digit, Ecan_exp.entry ecan id ~row ~digit) :: !slots);
        (id, !slots))
      (Can_overlay.node_ids (Ecan_exp.can ecan))
  in
  Builder.rebuild_tables b b.Builder.config.Builder.strategy;
  let invalid = ref 0 and missing = ref 0 and extra = ref 0 and slots = ref 0 in
  Array.iter
    (fun (id, per_slot) ->
      List.iter
        (fun (row, digit, churned) ->
          incr slots;
          let clean = Ecan_exp.entry ecan id ~row ~digit in
          (match (churned, clean) with
          | Some tgt, _
            when not (Ecan_exp.in_region ecan ~region:(Ecan_exp.region_prefix ecan id ~row ~digit) tgt) ->
            incr invalid
          | None, Some _ -> incr missing
          | Some _, None -> incr extra
          | _ -> ());
          Ecan_exp.set_entry ecan id ~row ~digit churned)
        per_slot)
    snapshot;
  let bad = !invalid + !missing + !extra in
  if float_of_int bad <= tolerance *. float_of_int (max 1 !slots) then Ok ()
  else
    Error
      (Printf.sprintf "tables diverge from clean rebuild: %d dead/out-of-region, %d unfilled, %d spurious of %d slots"
         !invalid !missing !extra !slots)

(* Ring-like overlays: invariants and table completeness, then seeded
   random routes must all end at the key's owner. *)
let ring_convergence ~seed (be : Backend.t) =
  match be.Backend.invariants () with
  | Error _ as e -> e
  | Ok () ->
    let ids = be.Backend.node_ids () in
    if Array.length ids = 0 then Error "empty overlay"
    else begin
      let rng = Rng.create seed in
      let bad = ref 0 in
      for _ = 1 to convergence_samples do
        let src = Rng.pick rng ids in
        let key = Rng.int rng be.Backend.key_space in
        match be.Backend.route ~src ~key with
        | Some (_ :: _ as hops) when List.nth hops (List.length hops - 1) = be.Backend.owner key
          -> ()
        | _ -> incr bad
      done;
      if !bad = 0 then Ok ()
      else
        Error (Printf.sprintf "%d of %d routes missed the key owner" !bad convergence_samples)
    end

(* ------------------------------------------------------------------ *)
(* The storm: fault resolution and the measurement timeline            *)
(* ------------------------------------------------------------------ *)

type actions = {
  crash : int -> unit;
  leave : int -> unit;
  join : int -> unit;
  expire : float -> string;
}

let install_storm faults ~sim ~storm ~rng ~nodes ~members act =
  (* Joiners come from physical nodes outside the initial membership. *)
  let initial = Hashtbl.create 64 in
  Array.iter (fun id -> Hashtbl.replace initial id ()) (members ());
  let joiners =
    Array.of_seq (Seq.filter (fun i -> not (Hashtbl.mem initial i)) (Seq.init nodes Fun.id))
  in
  let next_join = ref 0 in
  let remove verb action =
    let ids = members () in
    if Array.length ids > min_membership then begin
      let victim = Rng.pick rng ids in
      Faults.note faults (Printf.sprintf "%s node %d" verb victim);
      action victim
    end
  in
  let handler (ev : Faults.event) =
    match ev.Faults.action with
    | Faults.Crash -> remove "crash" act.crash
    | Faults.Leave -> remove "leave" act.leave
    | Faults.Join ->
      if !next_join < Array.length joiners then begin
        let newcomer = joiners.(!next_join) in
        incr next_join;
        Faults.note faults (Printf.sprintf "join node %d" newcomer);
        act.join newcomer
      end
    | Faults.Expire fraction -> Faults.note faults (act.expire fraction)
  in
  Faults.install faults ~sim ~plan:(Faults.plan faults storm) ~handler

let install_ecan_storm faults ~sim ~storm ~rng m (b : Builder.t) =
  let can = Ecan_exp.can b.Builder.ecan in
  install_storm faults ~sim ~storm ~rng ~nodes:(Oracle.node_count b.Builder.oracle)
    ~members:(fun () -> Can_overlay.node_ids can)
    {
      crash = Maintenance.node_crashes m;
      leave = Maintenance.node_departs m;
      join = Maintenance.node_joins m;
      expire =
        (fun fraction ->
          let aged = Store.inject_staleness b.Builder.store ~rng ~fraction in
          Printf.sprintf "staleness injected into %d entries" aged);
    }

type phase = Before | Storm | Repaired

type 'a timeline = {
  before : 'a;
  storm : 'a;
  repaired : 'a;
  repair_ms : float;
  converged : bool;
}

let storm_timeline sim ~storm ~measure ~converged =
  let storm_end = storm.Faults.start +. storm.Faults.spread in
  let before = measure Before in
  Sim.run ~until:storm_end sim;
  let at_storm = measure Storm in
  (* Convergence probe: a periodic check that cancels itself — from inside
     its own callback — the first time the oracle passes. *)
  let converged_at = ref Float.nan in
  let probe_timer = ref None in
  let probe () =
    match converged () with
    | Ok () ->
      converged_at := Sim.now sim;
      Option.iter Sim.cancel !probe_timer
    | Error _ -> ()
  in
  probe_timer := Some (Sim.every sim ~period:probe_period probe);
  Sim.run ~until:(storm_end +. settle) sim;
  let repaired = measure Repaired in
  let converged, repair_ms =
    if Float.is_nan !converged_at then
      (* Never during the window; accept a pass at the horizon itself. *)
      match converged () with
      | Ok () -> (true, settle)
      | Error _ -> (false, Float.nan)
    else (true, !converged_at -. storm_end)
  in
  { before; storm = at_storm; repaired; repair_ms; converged }

(* ------------------------------------------------------------------ *)
(* eCAN (and plain-CAN baseline) under the storm                       *)
(* ------------------------------------------------------------------ *)

let ecan_outcomes ?(size = 256) ?(seed = 11) ?(storm = Faults.default_storm)
    ?(channel = Faults.reliable) ?(shards = 1) ?(digest_window = 0.0) ?(probe_window = 1)
    ?(labels = [ ("experiment", "churn") ])
    ?(strategy = Builder.default_config.Builder.strategy) oracle =
  let sim = Sim.create () in
  let faults = Faults.create ~channel ~seed:(seed * 1009 + 1) () in
  let config =
    { Builder.default_config with
      Builder.overlay_size = size;
      ttl;
      shards;
      probe = { Engine.Probe.default_config with Engine.Probe.window = probe_window };
      strategy;
      seed = seed * 1009 + 2 }
  in
  (* The whole eCAN stack reports into the global registry under an
     [experiment=churn] label (callers driving other experiments pass
     their own label set), so [bench --json] carries the storm's
     route/publish/notify traffic alongside the table below. *)
  let metrics = Engine.Metrics.global in
  let b =
    Builder.build ~metrics ~labels ~clock:(fun () -> Sim.now sim) oracle config
  in
  let can = Ecan_exp.can b.Builder.ecan in
  let m =
    Maintenance.start ~sim ~metrics ~labels ~refresh_period ~sweep_period
      ~channel:(Faults.perturb faults) ~digest_window b
  in
  Maintenance.subscribe_all_slots m;
  Maintenance.enable_liveness_polling m ~period:liveness_period
    ~is_alive:(fun n -> Can_overlay.mem can n) ();
  Maintenance.enable_table_audit m ~period:audit_period ();
  install_ecan_storm faults ~sim ~storm ~rng:(Rng.create (seed * 1009 + 3)) m b;
  let stretches _ =
    let ecan = (Measure.route_stretch ~pairs:stretch_samples b).Measure.stretch.Prelude.Stats.mean in
    let greedy = (Measure.can_route_report ~pairs:stretch_samples b).Measure.stretch.Prelude.Stats.mean in
    (ecan, greedy)
  in
  let t = storm_timeline sim ~storm ~measure:stretches ~converged:(fun () -> ecan_convergence b) in
  let bus = Maintenance.bus m in
  let ecan_outcome =
    {
      overlay = "eCAN+pub/sub";
      stretch_before = fst t.before;
      stretch_storm = fst t.storm;
      stretch_repaired = fst t.repaired;
      repair_ms = t.repair_ms;
      repair_work = Maintenance.reselections m;
      notifications = Bus.sent_count bus;
      drops = Bus.dropped_count bus;
      converged = t.converged;
    }
  in
  (* Plain CAN on the same substrate: zone takeover is part of the leave /
     crash handling itself, so greedy routing is consistent the moment the
     storm ends — the baseline "repairs" instantly but routes without
     expressways. *)
  let can_outcome =
    {
      overlay = "CAN (greedy)";
      stretch_before = snd t.before;
      stretch_storm = snd t.storm;
      stretch_repaired = snd t.repaired;
      repair_ms = 0.0;
      repair_work = 0;
      notifications = 0;
      drops = 0;
      converged = Can_overlay.check_invariants can = Ok ();
    }
  in
  Maintenance.stop m;
  (ecan_outcome, can_outcome)

(* ------------------------------------------------------------------ *)
(* Chord / Pastry / Koorde under the same storm                        *)
(* ------------------------------------------------------------------ *)

let hybrid ~prober ~vector_of ~node ~candidates =
  fst (Backend.hybrid_pick prober ~vector_of ~budget:5 ~node ~candidates)

(* Mean stretch of [stretch_samples] seeded random routes; routes that
   fail mid-storm are skipped. *)
let stretch_once oracle (be : Backend.t) probe_seed =
  let samples, _failed =
    Measure.sample_routes oracle (Rng.create probe_seed) (be.Backend.node_ids ())
      ~count:stretch_samples
      (Measure.Keys { key_space = be.Backend.key_space; owner = be.Backend.owner })
      (fun ~src key -> be.Backend.route ~src ~key)
  in
  mean (Measure.stretches samples)

let ring_outcome ~size ~seed ~storm ~pick:policy kind oracle =
  let key_seed = match kind with Backend.Chord -> 9 | Pastry -> 10 | Koorde _ -> 11 in
  let be = Backend.create kind (Rng.create ((seed * 2003) + key_seed)) in
  let member_rng = Rng.create (seed * 2003 + 1) in
  let all = Array.init (Oracle.node_count oracle) (fun i -> i) in
  let members = Rng.sample member_rng size all in
  let lms = Landmarks.choose (Rng.create (seed * 2003 + 2)) oracle 15 in
  let prober = Engine.Probe.create ~measure:(Oracle.measure oracle) () in
  let policy = policy ~prober ~vector_of:(Landmarks.vector_memo lms prober) in
  let work = ref 0 in
  let pick ~node ~candidates =
    incr work;
    policy ~node ~candidates
  in
  let rebuild () = be.Backend.rebuild ~pick in
  Array.iter be.Backend.add members;
  rebuild ();
  work := 0;
  let sim = Sim.create () in
  let faults = Faults.create ~seed:(seed * 2003 + 3) () in
  (* Without soft state there is nothing to leave gracefully: crashes and
     leaves are both a membership loss repaired by the next stabilisation
     round, and staleness has no analogue. *)
  install_storm faults ~sim ~storm ~rng:(Rng.create (seed * 2003 + 4)) ~nodes:(Array.length all)
    ~members:be.Backend.node_ids
    {
      crash = be.Backend.remove;
      leave = be.Backend.remove;
      join = be.Backend.add;
      expire = (fun _ -> "staleness (no-op: no soft-state plane)");
    };
  ignore (Sim.every sim ~period:stab_period (fun () -> rebuild ()));
  let stretch phase =
    stretch_once oracle be
      ((seed * 2003) + match phase with Before -> 5 | Storm -> 6 | Repaired -> 8)
  in
  let t =
    storm_timeline sim ~storm ~measure:stretch
      ~converged:(fun () -> ring_convergence ~seed:(seed * 2003 + 7) be)
  in
  {
    overlay = String.capitalize_ascii be.Backend.name ^ "+stab";
    stretch_before = t.before;
    stretch_storm = t.storm;
    stretch_repaired = t.repaired;
    repair_ms = t.repair_ms;
    repair_work = !work;
    notifications = 0;
    drops = 0;
    converged = t.converged;
  }

(* ------------------------------------------------------------------ *)
(* The experiment                                                      *)
(* ------------------------------------------------------------------ *)

let default_channel = { Faults.loss = 0.05; delay_min = 5.0; delay_max = 50.0 }

let run_custom ?(scale = 1) ?(seed = 11) ?(shards = 1) ?(digest_window = 0.0)
    ?(probe_window = 1) ~storm ~channel () =
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Manual in
  let size = max 96 (768 / scale) in
  let ecan_o, can_o =
    ecan_outcomes ~size ~seed ~storm ~channel ~shards ~digest_window ~probe_window oracle
  in
  let ring kind = ring_outcome ~size ~seed ~storm ~pick:hybrid kind oracle in
  let chord_o = ring Backend.Chord in
  let pastry_o = ring Backend.Pastry in
  let koorde_o = ring (Backend.Koorde 4) in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Churn storm over %d nodes: %d crashes, %d leaves, %d joins, %.0f%% staleness x%d, loss %.0f%%, seed %d%s"
           size storm.Faults.crashes storm.Faults.leaves storm.Faults.joins
           (100.0 *. storm.Faults.expire_fraction)
           storm.Faults.expire_bursts
           (100.0 *. channel.Faults.loss)
           seed
           (if shards > 1 || digest_window > 0.0 then
              Printf.sprintf " [%d shards, %.0f ms digests]" shards digest_window
            else ""))
      ~columns:
        [ "overlay"; "stretch pre"; "storm"; "repaired"; "repair ms"; "work"; "notifs"; "drops"; "ok" ]
  in
  let row o =
    let g name fmt v = Tableout.gauge ~labels:[ ("overlay", o.overlay) ] name fmt v in
    let count name n = g name (Tableout.fixed 0) (float_of_int n) in
    Tableout.add_row table
      [
        Tableout.text o.overlay;
        g "churn_stretch_before" Tableout.cell_f o.stretch_before;
        g "churn_stretch_storm" Tableout.cell_f o.stretch_storm;
        g "churn_stretch_repaired" Tableout.cell_f o.stretch_repaired;
        g "churn_repair_ms" (Tableout.fixed 0) o.repair_ms;
        count "churn_repair_work" o.repair_work;
        count "churn_notifications" o.notifications;
        count "churn_drops" o.drops;
        g "churn_converged" Tableout.yes_no (if o.converged then 1.0 else 0.0);
      ]
  in
  List.iter row [ ecan_o; can_o; chord_o; pastry_o; koorde_o ];
  [
    Tableout.table table;
    Tableout.note "  repair ms: storm end to first passing convergence oracle (probe every %.0fs)."
      (probe_period /. 1000.0);
    Tableout.note
      "  work: slot re-selections (eCAN) / stabilisation selector calls (Chord, Pastry, Koorde).";
  ]

let run ?scale ?seed () =
  run_custom ?scale ?seed ~storm:Faults.default_storm ~channel:default_channel ()
