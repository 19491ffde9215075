(* Reference models for the storm driver and the eCAN slot walk.

   The churn drivers once carried their own fault handler and their own
   measure / storm / converge / settle sequence.  Test-local copies of
   those (the eCAN handler, the ring handler and the timeline) run here
   beside [Exp_churn.install_storm] and [Exp_churn.storm_timeline] on
   identical setups, across seeds and small storms: the fault trace, the
   final membership, the repair work, the outcome and the driver rng's
   end state must all agree.  The slot walk and the region test are
   checked against the nested loop and the inline prefix test they
   replaced, for every span width the cost experiment could meet.

   The reverse-entry index gets the same treatment: [Builder.stale_slots]
   and [Builder.leave_node] read it where they once folded every
   member's table, and test-local copies of those folds run beside them
   through random join / leave / crash sequences. *)

module Sim = Engine.Sim
module Faults = Engine.Faults
module Oracle = Topology.Oracle
module Builder = Core.Builder
module Maintenance = Core.Maintenance
module Measure = Core.Measure
module Store = Softstate.Store
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Backend = Workload.Backend
module Exp_churn = Workload.Exp_churn
module Point = Geometry.Point
module Rng = Prelude.Rng

let oracle = lazy (Workload.Ctx.oracle ~scale:32 Workload.Ctx.Tsk_large Topology.Transit_stub.Manual)
let lossy = { Faults.loss = 0.1; delay_min = 5.0; delay_max = 50.0 }

(* ---- the reference handlers and timeline ---- *)

let ref_joiners oracle ~is_member =
  Array.of_seq
    (Seq.filter (fun i -> not (is_member i)) (Seq.init (Oracle.node_count oracle) (fun i -> i)))

let ref_ecan_handler faults m (b : Builder.t) drv oracle =
  let can = Ecan_exp.can b.Builder.ecan in
  let joiners = ref_joiners oracle ~is_member:(Can_overlay.mem can) in
  let next_join = ref 0 in
  fun (ev : Faults.event) ->
    match ev.Faults.action with
    | Faults.Crash ->
      let ids = Can_overlay.node_ids can in
      if Array.length ids > 8 then begin
        let victim = Rng.pick drv ids in
        Faults.note faults (Printf.sprintf "crash node %d" victim);
        Maintenance.node_crashes m victim
      end
    | Faults.Leave ->
      let ids = Can_overlay.node_ids can in
      if Array.length ids > 8 then begin
        let victim = Rng.pick drv ids in
        Faults.note faults (Printf.sprintf "leave node %d" victim);
        Maintenance.node_departs m victim
      end
    | Faults.Join ->
      if !next_join < Array.length joiners then begin
        let newcomer = joiners.(!next_join) in
        incr next_join;
        Faults.note faults (Printf.sprintf "join node %d" newcomer);
        Maintenance.node_joins m newcomer
      end
    | Faults.Expire fraction ->
      let aged = Store.inject_staleness b.Builder.store ~rng:drv ~fraction in
      Faults.note faults (Printf.sprintf "staleness injected into %d entries" aged)

let ref_ring_handler faults (be : Backend.t) drv members oracle =
  let joiner_set = Hashtbl.create 64 in
  Array.iter (fun m -> Hashtbl.replace joiner_set m ()) members;
  let joiners = ref_joiners oracle ~is_member:(Hashtbl.mem joiner_set) in
  let next_join = ref 0 in
  fun (ev : Faults.event) ->
    match ev.Faults.action with
    | Faults.Crash | Faults.Leave ->
      let ids = be.Backend.node_ids () in
      if Array.length ids > 8 then begin
        let victim = Rng.pick drv ids in
        Faults.note faults
          (Printf.sprintf "%s node %d"
             (match ev.Faults.action with Faults.Crash -> "crash" | _ -> "leave")
             victim);
        be.Backend.remove victim
      end
    | Faults.Join ->
      if !next_join < Array.length joiners then begin
        let newcomer = joiners.(!next_join) in
        incr next_join;
        Faults.note faults (Printf.sprintf "join node %d" newcomer);
        be.Backend.add newcomer
      end
    | Faults.Expire _ -> Faults.note faults "staleness (no-op: no soft-state plane)"

(* Measure before, at the storm's end and at the settle horizon, with the
   self-cancelling 10 s convergence poll in between. *)
let ref_timeline sim ~storm ~measure ~converged =
  let storm_end = storm.Faults.start +. storm.Faults.spread in
  let before = measure Exp_churn.Before in
  Sim.run ~until:storm_end sim;
  let at_storm = measure Exp_churn.Storm in
  let converged_at = ref Float.nan in
  let probe_timer = ref None in
  let probe () =
    match converged () with
    | Ok () ->
      converged_at := Sim.now sim;
      Option.iter Sim.cancel !probe_timer
    | Error _ -> ()
  in
  probe_timer := Some (Sim.every sim ~period:10_000.0 probe);
  Sim.run ~until:(storm_end +. 240_000.0) sim;
  let repaired = measure Exp_churn.Repaired in
  let ok, repair_ms =
    if Float.is_nan !converged_at then
      match converged () with Ok () -> (true, 240_000.0) | Error _ -> (false, Float.nan)
    else (true, !converged_at -. storm_end)
  in
  (before, at_storm, repaired, repair_ms, ok)

let of_timeline (t : _ Exp_churn.timeline) =
  Exp_churn.(t.before, t.storm, t.repaired, t.repair_ms, t.converged)

(* Everything one storm run leaves behind that the resolver or the
   timeline could have changed.  Compared with [compare], so a nan repair
   latency equals itself. *)
type 'a observed = {
  digest : string;
  members : int array;
  work : int;
  outcome : 'a * 'a * 'a * float * bool;
  rng_next : int64;
}

let storm_gen =
  QCheck.Gen.(
    map
      (fun ((crashes, leaves), (joins, bursts)) ->
        {
          Faults.crashes;
          leaves;
          joins;
          expire_bursts = bursts;
          expire_fraction = 0.1;
          start = 5_000.0;
          spread = 15_000.0;
        })
      (pair (pair (int_bound 20) (int_bound 20)) (pair (int_bound 8) (int_bound 2))))

(* Up to 40 removals from 24 to 48 members: the 8-member guard often
   decides. *)
let case_arb =
  QCheck.make
    ~print:(fun (size, seed, s) ->
      Printf.sprintf "size %d, seed %d, %d crashes, %d leaves, %d joins, %d bursts" size seed
        s.Faults.crashes s.Faults.leaves s.Faults.joins s.Faults.expire_bursts)
    QCheck.Gen.(triple (int_range 24 48) (int_bound 10_000) storm_gen)

(* ---- eCAN ---- *)

let ecan_run ~reference (size, seed, storm) =
  let oracle = Lazy.force oracle in
  let sim = Sim.create () in
  let faults = Faults.create ~channel:lossy ~seed:(seed + 1) () in
  let b =
    Builder.build ~clock:(fun () -> Sim.now sim) oracle
      { Builder.default_config with Builder.overlay_size = size; ttl = 60_000.0; seed = seed + 2 }
  in
  let can = Ecan_exp.can b.Builder.ecan in
  let m =
    Maintenance.start ~sim ~refresh_period:20_000.0 ~sweep_period:5_000.0
      ~channel:(Faults.perturb faults) b
  in
  Maintenance.subscribe_all_slots m;
  Maintenance.enable_liveness_polling m ~period:15_000.0 ~is_alive:(Can_overlay.mem can) ();
  Maintenance.enable_table_audit m ~period:30_000.0 ();
  let drv = Rng.create (seed + 3) in
  let measure _ =
    let ecan = (Measure.route_stretch ~pairs:32 b).Measure.stretch.Prelude.Stats.mean in
    let greedy = (Measure.can_route_report ~pairs:32 b).Measure.stretch.Prelude.Stats.mean in
    (ecan, greedy)
  in
  let converged () = Exp_churn.ecan_convergence b in
  let outcome =
    if reference then begin
      Faults.install faults ~sim ~plan:(Faults.plan faults storm)
        ~handler:(ref_ecan_handler faults m b drv oracle);
      ref_timeline sim ~storm ~measure ~converged
    end
    else begin
      Exp_churn.install_ecan_storm faults ~sim ~storm ~rng:drv m b;
      of_timeline (Exp_churn.storm_timeline sim ~storm ~measure ~converged)
    end
  in
  Maintenance.stop m;
  {
    digest = Faults.trace_digest faults;
    members = Can_overlay.node_ids can;
    work = Maintenance.reselections m;
    outcome;
    rng_next = Rng.bits64 drv;
  }

let qcheck_ecan_storm =
  QCheck.Test.make ~name:"eCAN storm: resolver and timeline match the reference handler" ~count:4
    case_arb (fun case ->
      compare (ecan_run ~reference:true case) (ecan_run ~reference:false case) = 0)

(* ---- Chord and Koorde ---- *)

(* A crowded run leaves only the top one to four physical node ids
   outside the overlay, so up to eight joins run out of joiners. *)
let ring_run kind ~reference ~crowded (size, seed, storm) =
  let oracle = Lazy.force oracle in
  let be = Backend.create kind (Rng.create seed) in
  let nodes = Oracle.node_count oracle in
  let pool = if crowded then nodes - 1 - (size mod 4) else nodes in
  let size = if crowded then pool else size in
  let members = Rng.sample (Rng.create (seed + 1)) size (Array.init pool (fun i -> i)) in
  let work = ref 0 in
  let pick ~node ~candidates =
    incr work;
    (* The candidate nearest to [node]: deterministic and cheap. *)
    Array.fold_left
      (fun best c ->
        match best with
        | Some b when Oracle.dist oracle node b <= Oracle.dist oracle node c -> best
        | _ -> Some c)
      None candidates
  in
  Array.iter be.Backend.add members;
  be.Backend.rebuild ~pick;
  let sim = Sim.create () in
  let faults = Faults.create ~seed:(seed + 3) () in
  let drv = Rng.create (seed + 4) in
  ignore (Sim.every sim ~period:20_000.0 (fun () -> be.Backend.rebuild ~pick));
  (* A state snapshot, not a stretch sample: it pins when each phase is
     measured without routing anything. *)
  let measure phase = (phase, Sim.now sim, be.Backend.node_ids (), !work) in
  let converged () = Exp_churn.ring_convergence ~seed:(seed + 7) be in
  let outcome =
    if reference then begin
      Faults.install faults ~sim ~plan:(Faults.plan faults storm)
        ~handler:(ref_ring_handler faults be drv members oracle);
      ref_timeline sim ~storm ~measure ~converged
    end
    else begin
      Exp_churn.install_storm faults ~sim ~storm ~rng:drv ~nodes:(Oracle.node_count oracle)
        ~members:be.Backend.node_ids
        {
          Exp_churn.crash = be.Backend.remove;
          leave = be.Backend.remove;
          join = be.Backend.add;
          expire = (fun _ -> "staleness (no-op: no soft-state plane)");
        };
      of_timeline (Exp_churn.storm_timeline sim ~storm ~measure ~converged)
    end
  in
  {
    digest = Faults.trace_digest faults;
    members = be.Backend.node_ids ();
    work = !work;
    outcome;
    rng_next = Rng.bits64 drv;
  }

let qcheck_ring_storm name kind =
  QCheck.Test.make
    ~name:(name ^ " storm: resolver and timeline match the reference handler")
    ~count:6 (QCheck.pair QCheck.bool case_arb) (fun (crowded, case) ->
      compare
        (ring_run kind ~reference:true ~crowded case)
        (ring_run kind ~reference:false ~crowded case)
      = 0)

(* The timeline alone, under a check that first passes on its [k]-th
   call: in the window, only at the horizon, or never. *)
let qcheck_timeline =
  QCheck.Test.make ~name:"timeline matches the reference on every convergence path" ~count:40
    QCheck.(pair (int_range 1 30) (int_range 0 60))
    (fun (k, start_s) ->
      let storm =
        { Faults.default_storm with Faults.start = float_of_int (start_s * 1000); spread = 5_000.0 }
      in
      let run timeline =
        let sim = Sim.create () in
        let calls = ref 0 in
        let converged () =
          incr calls;
          if !calls >= k then Ok () else Error "not yet"
        in
        let measure phase = (phase, Sim.now sim, !calls) in
        let outcome = timeline sim ~storm ~measure ~converged in
        (outcome, !calls)
      in
      compare
        (run ref_timeline)
        (run (fun sim ~storm ~measure ~converged ->
             of_timeline (Exp_churn.storm_timeline sim ~storm ~measure ~converged)))
      = 0)

(* ---- the slot walk and the region test ---- *)

let walk_arb =
  QCheck.make
    ~print:(fun (span_bits, n, seed) -> Printf.sprintf "span_bits %d, %d nodes, seed %d" span_bits n seed)
    QCheck.Gen.(triple (int_range 1 3) (int_range 2 48) (int_bound 10_000))

let build_ecan ~span_bits ~n ~seed =
  let rng = Rng.create seed in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to n - 1 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let e = Ecan_exp.create ~span_bits can in
  let sel = Rng.create (seed + 1) in
  Ecan_exp.build_tables e ~selector:(fun ~node:_ ~region:_ ~candidates ->
      Some (Rng.pick sel candidates));
  e

(* The nested loop every slot visitor used to carry. *)
let nested_slots e id =
  let acc = ref [] in
  for row = 0 to Ecan_exp.rows e id - 1 do
    let own = Ecan_exp.own_digit e id ~row in
    for digit = 0 to (1 lsl Ecan_exp.span_bits e) - 1 do
      if digit <> own then acc := (row, digit) :: !acc
    done
  done;
  List.rev !acc

let walked_slots e id =
  let acc = ref [] in
  Ecan_exp.iter_slots e id (fun ~row ~digit -> acc := (row, digit) :: !acc);
  List.rev !acc

(* The inline test [in_region] replaced. *)
let inline_in_region can region target =
  Can_overlay.mem can target
  &&
  let path = (Can_overlay.node can target).Can_overlay.path in
  Array.length path >= Array.length region
  && Array.for_all2 ( = ) region (Array.sub path 0 (Array.length region))

let qcheck_slot_walk =
  QCheck.Test.make ~name:"slot walk visits the nested loop's slots in order" ~count:60 walk_arb
    (fun (span_bits, n, seed) ->
      let e = build_ecan ~span_bits ~n ~seed in
      Array.for_all
        (fun id -> walked_slots e id = nested_slots e id)
        (Can_overlay.node_ids (Ecan_exp.can e)))

let qcheck_region_test =
  QCheck.Test.make ~name:"region test agrees with the inline prefix test" ~count:60 walk_arb
    (fun (span_bits, n, seed) ->
      let e = build_ecan ~span_bits ~n ~seed in
      let can = Ecan_exp.can e in
      let ids = Can_overlay.node_ids can in
      (* One id past the membership: never a member. *)
      let targets = Array.append ids [| n |] in
      Array.for_all
        (fun id ->
          List.for_all
            (fun (row, digit) ->
              let region = Ecan_exp.region_prefix e id ~row ~digit in
              Array.for_all
                (fun target ->
                  Ecan_exp.in_region e ~region target = inline_in_region can region target)
                targets)
            (walked_slots e id))
        ids)

(* [Builder.stale_slots] relies on this: a leave names live survivor and
   backfilled nodes unless it emptied the overlay. *)
let qcheck_leave_names_live_nodes =
  QCheck.Test.make ~name:"a leave's survivor and backfilled node are live" ~count:40 walk_arb
    (fun (_, n, seed) ->
      let rng = Rng.create seed in
      let can = Can_overlay.create ~dims:2 0 in
      for id = 1 to n - 1 do
        ignore (Can_overlay.join can id (Point.random rng 2))
      done;
      let live = ref true in
      while Can_overlay.size can > 1 do
        let effect = Can_overlay.leave can (Rng.pick rng (Can_overlay.node_ids can)) in
        List.iter
          (fun id -> if not (Can_overlay.mem can id) then live := false)
          (effect.Can_overlay.survivor :: Option.to_list effect.Can_overlay.backfilled)
      done;
      !live)

(* ---- the reverse-entry index ---- *)

(* The fold [Builder.stale_slots] replaced: every member's table, holders
   in reverse [node_ids] order, then (row, digit) ascending. *)
let ref_stale_slots (b : Builder.t) relocated =
  let e = b.Builder.ecan in
  Array.fold_left
    (fun acc id ->
      List.fold_left
        (fun acc (row, digit, target) ->
          if List.mem target relocated then begin
            let region = Ecan_exp.region_prefix e id ~row ~digit in
            if Ecan_exp.in_region e ~region target then acc else (id, row, digit) :: acc
          end
          else acc)
        acc (Ecan_exp.entries e id))
    [] (Can_overlay.node_ids (Ecan_exp.can e))

(* [Builder.leave_node] with its dangling-entry pass as the fold it was. *)
let ref_leave_node (b : Builder.t) node =
  let e = b.Builder.ecan in
  let can = Ecan_exp.can e in
  Engine.Probe.invalidate b.Builder.prober node;
  Store.unpublish_everywhere b.Builder.store node;
  let effect = Can_overlay.leave can node in
  Hashtbl.remove b.Builder.vectors node;
  Store.rehost b.Builder.store;
  Array.iter
    (fun id ->
      List.iter
        (fun (row, digit, target) -> if target = node then Ecan_exp.set_entry e id ~row ~digit None)
        (Ecan_exp.entries e id))
    (Can_overlay.node_ids can);
  let selector = Builder.selector b b.Builder.config.Builder.strategy in
  let rebuild id =
    if id <> node && Can_overlay.mem can id then begin
      Store.unpublish_everywhere b.Builder.store id;
      Store.publish_all b.Builder.store ~span_bits:b.Builder.config.Builder.span_bits ~node:id
        ~vector:(Builder.vector_of b id);
      Ecan_exp.build_table_for e ~selector id
    end
  in
  rebuild effect.Can_overlay.survivor;
  Option.iter rebuild effect.Can_overlay.backfilled;
  let relocated = effect.Can_overlay.survivor :: Option.to_list effect.Can_overlay.backfilled in
  List.iter
    (fun (id, row, digit) -> Ecan_exp.set_entry e id ~row ~digit None)
    (ref_stale_slots b relocated)

(* A crash as [Maintenance] handles it, without the bus: the victim's
   entries stay behind (they dangle in other tables), its relocated
   neighbours are rebuilt, and the slots [stale] names are re-selected
   in the order given, each through the builder's selector. *)
let crash stale (b : Builder.t) node =
  let e = b.Builder.ecan in
  let can = Ecan_exp.can e in
  Engine.Probe.invalidate b.Builder.prober node;
  let effect = Can_overlay.leave can node in
  Hashtbl.remove b.Builder.vectors node;
  Store.rehost b.Builder.store;
  let selector = Builder.selector b b.Builder.config.Builder.strategy in
  let relocated = effect.Can_overlay.survivor :: Option.to_list effect.Can_overlay.backfilled in
  List.iter
    (fun id ->
      if id <> node && Can_overlay.mem can id then begin
        Store.unpublish_everywhere b.Builder.store id;
        Store.publish_all b.Builder.store ~span_bits:b.Builder.config.Builder.span_bits ~node:id
          ~vector:(Builder.vector_of b id);
        Ecan_exp.build_table_for e ~selector id
      end)
    relocated;
  let slots = stale b relocated in
  List.iter
    (fun (id, row, digit) ->
      let region = Ecan_exp.region_prefix e id ~row ~digit in
      let candidates = Can_overlay.members_with_prefix can region in
      Ecan_exp.set_entry e id ~row ~digit
        (if Array.length candidates = 0 then None else selector ~node:id ~region ~candidates))
    slots;
  slots

(* Every live slot of every member's table, grouped by target, sorted:
   what [referrers] must return for each target. *)
let scanned_referrers e ~ids_below =
  let by_target = Array.make ids_below [] in
  Array.iter
    (fun id ->
      List.iter
        (fun (row, digit, target) -> by_target.(target) <- (id, row, digit) :: by_target.(target))
        (Ecan_exp.entries e id))
    (Can_overlay.node_ids (Ecan_exp.can e));
  Array.map (List.sort compare) by_target

let index_matches_scan e ~ids_below =
  let scanned = scanned_referrers e ~ids_below in
  let ok = ref true in
  for target = 0 to ids_below - 1 do
    if List.sort compare (Ecan_exp.referrers e target) <> scanned.(target) then ok := false
  done;
  !ok

let tables e =
  let ids = Can_overlay.node_ids (Ecan_exp.can e) in
  Array.sort compare ids;
  Array.map (fun id -> (id, List.sort compare (Ecan_exp.entries e id))) ids

let index_arb =
  QCheck.make
    ~print:(fun (span_bits, n, seed, steps) ->
      Printf.sprintf "span_bits %d, %d members, seed %d, %d steps" span_bits n seed steps)
    QCheck.Gen.(quad (int_range 1 3) (int_range 8 40) (int_bound 10_000) (int_range 4 24))

(* Two identical builds take the same random join / leave / crash
   sequence: one through the index-backed [Builder] code, the other
   through the reference folds.  After every step the stale-slot lists
   (order included), the tables and the builders' rng draws agree, and
   each build's index equals a from-scratch scan of its tables. *)
let qcheck_index_matches_scans =
  QCheck.Test.make ~name:"stale slots and leave cleanup = the full-table folds, in order" ~count:40
    index_arb (fun (span_bits, n, seed, steps) ->
      let oracle = Lazy.force oracle in
      let nodes = Oracle.node_count oracle in
      let config =
        {
          Builder.default_config with
          Builder.overlay_size = n;
          span_bits;
          landmark_count = 4;
          strategy = Core.Strategy.Random_pick;
          seed;
        }
      in
      let b = Builder.build oracle config and r = Builder.build oracle config in
      let can = Ecan_exp.can b.Builder.ecan in
      let drv = Rng.create (seed + 7) in
      let ok = ref (index_matches_scan b.Builder.ecan ~ids_below:nodes) in
      for _ = 1 to steps do
        let ids = Can_overlay.node_ids can in
        Array.sort compare ids;
        (match Rng.int drv 3 with
        | 0 ->
          let outside =
            List.filter (fun id -> not (Can_overlay.mem can id)) (List.init nodes Fun.id)
          in
          let node = List.nth outside (Rng.int drv (List.length outside)) in
          ignore (Builder.join_node b node);
          ignore (Builder.join_node r node)
        | _ when Array.length ids <= 4 -> ()
        | 1 ->
          let node = Rng.pick drv ids in
          Builder.leave_node b node;
          ref_leave_node r node
        | _ ->
          let node = Rng.pick drv ids in
          let got = crash Builder.stale_slots b node and want = crash ref_stale_slots r node in
          if got <> want then ok := false);
        ok :=
          !ok
          && tables b.Builder.ecan = tables r.Builder.ecan
          && Rng.int b.Builder.rng 1_000_000 = Rng.int r.Builder.rng 1_000_000
          && index_matches_scan b.Builder.ecan ~ids_below:nodes
          && index_matches_scan r.Builder.ecan ~ids_below:nodes
      done;
      !ok)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_ecan_storm;
    QCheck_alcotest.to_alcotest (qcheck_ring_storm "Chord" Backend.Chord);
    QCheck_alcotest.to_alcotest (qcheck_ring_storm "Koorde" (Backend.Koorde 4));
    QCheck_alcotest.to_alcotest qcheck_timeline;
    QCheck_alcotest.to_alcotest qcheck_slot_walk;
    QCheck_alcotest.to_alcotest qcheck_region_test;
    QCheck_alcotest.to_alcotest qcheck_leave_names_live_nodes;
    QCheck_alcotest.to_alcotest qcheck_index_matches_scans;
  ]
