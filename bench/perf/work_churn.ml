(* churn: publish/subscribe maintenance while members come and go.  A
   1024-member eCAN on tsk-large with manual latencies keeps its maps
   fresh (4 store shards, TTL 60 s, refresh 20 s, sweep 5 s, liveness
   poll 15 s, table audit 30 s, every slot subscribed) over a channel
   with 5% loss and 0-50 ms extra delay, through four times
   [Faults.default_storm] — 32 crashes, 32 leaves, 64 joins and 8
   staleness bursts of 10%, spread over 120 s from t = 10 s — and a 240 s
   settle, stepped event by event to t = 370 s.  An op is one simulated
   second.  These are soft-state writes (refresh, sweep, rehost), where
   [build] reads; [cache] does none of this work.  Each rep builds its
   own overlay, and that build is set-up. *)

open Harness
module Sim = Engine.Sim
module Faults = Engine.Faults
module Maintenance = Core.Maintenance
module Measure = Core.Measure
module Bus = Pubsub.Bus

type sizes = { members : int; storm_scale : int; settle : float; pairs : int }

let sizes = function
  | Full -> { members = 1024; storm_scale = 4; settle = 240_000.0; pairs = 2048 }
  | Smoke -> { members = 64; storm_scale = 1; settle = 60_000.0; pairs = 128 }

let channel = { Faults.loss = 0.05; delay_min = 0.0; delay_max = 50.0 }
let min_membership = 8

let storm s =
  let d = Faults.default_storm and k = s.storm_scale in
  {
    d with
    Faults.crashes = k * d.Faults.crashes;
    leaves = k * d.Faults.leaves;
    joins = k * d.Faults.joins;
    expire_bursts = k * d.Faults.expire_bursts;
    spread = float_of_int k *. d.Faults.spread;
  }

let make ~size ~seed ~tracing =
  let s = sizes size in
  let storm = storm s in
  let horizon = storm.Faults.start +. storm.Faults.spread +. s.settle in
  let ops_per_rep = int_of_float (horizon /. 1000.0) in
  let variants = match size with Full -> 6 | Smoke -> 2 in
  (* Per-variant seeds for the overlay, the fault plan and victim choice. *)
  let seed_of variant k = (((seed * variants) + variant) * 1009) + k in
  let config variant =
    {
      Builder.default_config with
      Builder.overlay_size = s.members;
      ttl = 60_000.0;
      shards = 4;
      domains = 1;
      seed = seed_of variant 2;
    }
  in
  let oracle = network ~tracing size Ts.Manual in
  if tracing then replay_fresh oracle (config 0);
  let setup_s = ref [] in
  let rep ~variant ~traced =
    let config = config variant in
    let registry = Metrics.create () in
    let sim = Sim.create ~metrics:registry () in
    let faults = Faults.create ~channel ~seed:(seed_of variant 1) () in
    (* One calibration bracket spans the set-up and the timed steps. *)
    let r0 = reference_ns () in
    let (b, m), setup_ns =
      wall (fun () ->
          let b = Builder.build ~metrics:registry ~clock:(fun () -> Sim.now sim) oracle config in
          let m =
            Maintenance.start ~sim ~metrics:registry ~refresh_period:20_000.0
              ~sweep_period:5_000.0 ~channel:(Faults.perturb faults) b
          in
          Maintenance.subscribe_all_slots m;
          Maintenance.enable_liveness_polling m ~period:15_000.0
            ~is_alive:(Can_overlay.mem (Ecan_exp.can b.Builder.ecan))
            ();
          Maintenance.enable_table_audit m ~period:30_000.0 ();
          (b, m))
    in
    let can = Ecan_exp.can b.Builder.ecan in
    (* Joiners are the physical nodes outside the initial membership, in
       id order; victims are drawn from a seeded stream. *)
    let joiners =
      Array.of_seq
        (Seq.filter
           (fun i -> not (Can_overlay.mem can i))
           (Seq.init (Oracle.node_count oracle) Fun.id))
    in
    let next_join = ref 0 in
    let drv = Rng.create (seed_of variant 3) in
    let fault_spans = ref 0 in
    let span l f =
      if traced then begin
        incr fault_spans;
        Prof.time l f
      end
      else f ()
    in
    let remove l action verb =
      let ids = Can_overlay.node_ids can in
      if Array.length ids > min_membership then begin
        let victim = Rng.pick drv ids in
        Faults.note faults (Printf.sprintf "%s node %d" verb victim);
        span l (fun () -> action m victim)
      end
    in
    let handler (ev : Faults.event) =
      match ev.Faults.action with
      | Faults.Crash -> remove l_crash Maintenance.node_crashes "crash"
      | Faults.Leave -> remove l_depart Maintenance.node_departs "leave"
      | Faults.Join ->
        if !next_join < Array.length joiners then begin
          let newcomer = joiners.(!next_join) in
          incr next_join;
          Faults.note faults (Printf.sprintf "join node %d" newcomer);
          span l_mjoin (fun () -> Maintenance.node_joins m newcomer)
        end
      | Faults.Expire fraction ->
        let aged =
          span l_expire (fun () -> Store.inject_staleness b.Builder.store ~rng:drv ~fraction)
        in
        Faults.note faults (Printf.sprintf "staleness injected into %d entries" aged)
    in
    Faults.install faults ~sim ~plan:(Faults.plan faults storm) ~handler;
    let due () = match Sim.next_time sim with Some t -> t <= horizon | None -> false in
    (* A traced step is charged to the layer whose counter it advanced,
       in this order; fault handlers charge their own spans, and whatever
       is left goes to sim.other. *)
    let step_traced =
      let c = Metrics.counter registry in
      let delivered = c "notify_delivered" and refreshes = c "maintenance_refreshes" in
      let visited = c "store_sweep_visited" and reselections = c "maintenance_reselections" in
      let sent = c "notify_sent" in
      fun () ->
        let d = Metrics.count delivered and r = Metrics.count refreshes in
        let v = Metrics.count visited and re = Metrics.count reselections in
        let n = Metrics.count sent and f = !fault_spans in
        ignore (Prof.time l_step (fun () -> Sim.step sim));
        let layer =
          if !fault_spans <> f then l_other
          else if Metrics.count delivered > d then l_deliver
          else if Metrics.count refreshes > r then l_refresh
          else if Metrics.count visited > v then l_sweep
          else if Metrics.count reselections > re then l_audit
          else if Metrics.count sent > n then l_poll
          else l_other
        in
        Prof.charge layer !Prof.last_self_ns;
        raise_to "sim_queue_depth_max" (float_of_int (Sim.pending sim))
    in
    let measured = Oracle.measurements oracle in
    Gc.full_major ();
    let (), cost =
      measure ~registry ~traced (fun () ->
          if traced then
            while due () do
              step_traced ()
            done
          else
            while due () do
              ignore (Sim.step sim)
            done)
    in
    let ref_ns = (r0 + reference_ns ()) / 2 in
    let cost = { cost with ref_ns } in
    setup_s := scaled_s ~ns:setup_ns ~ref_ns :: !setup_s;
    if traced then begin
      add_int "oracle_measure_calls" (Oracle.measurements oracle - measured);
      add_int "faults_perturb_calls" (Faults.messages faults)
    end;
    let stretch =
      match Measure.route_stretch ~pairs:s.pairs b with
      | r -> Some r.Measure.stretch.Prelude.Stats.mean
      | exception Failure msg ->
        fail ("route stretch after the settle: " ^ msg);
        None
    in
    require "Exp_churn.ecan_convergence after the settle" (Workload.Exp_churn.ecan_convergence b);
    require "Can.Overlay.check_invariants" (Can_overlay.check_invariants can);
    require "Store.check_invariants" (Store.check_invariants b.Builder.store);
    let bus = Maintenance.bus m in
    let outputs =
      Printf.sprintf
        "stretch %s, reselections %d refreshes %d, notifications sent %d delivered %d dropped %d, \
         fault trace %s"
        (match stretch with Some x -> Printf.sprintf "%.17g" x | None -> "failed")
        (Maintenance.reselections m) (Maintenance.refreshes m) (Bus.sent_count bus)
        (Bus.delivered_count bus) (Bus.dropped_count bus)
        (Digest.to_hex (Digest.string (Faults.trace_digest faults)))
    in
    Maintenance.stop m;
    {
      cost;
      outputs;
      attempted = ops_per_rep + routes registry "route_requests";
      failed = routes registry "route_failures";
    }
  in
  { ops_per_rep; warmups = 0; variants; setup_s = (fun () -> List.rev !setup_s); rep }
