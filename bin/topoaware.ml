(* topoaware: command-line driver for the topology-aware-overlay library.

   Subcommands:
     list                      show the available experiments
     experiment <id> [...]     run one paper experiment (or "all")
     gen-topology [...]        generate a transit-stub topology and print stats
     nn-search [...]           one nearest-neighbor search, all three algorithms
     build [...]               build an overlay and report stretch under a strategy
     trace [...]               replay a seeded maintenance run and dump spans as
                               Chrome-trace JSONL *)

module Ts = Topology.Transit_stub
module Oracle = Topology.Oracle
module Graph = Topology.Graph
module Builder = Core.Builder
module Strategy = Core.Strategy
module Measure = Core.Measure
module Search = Proximity.Search
module Landmarks = Landmark.Landmarks
module Can_overlay = Can.Overlay
module Rng = Prelude.Rng
open Cmdliner

let ppf = Format.std_formatter

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* ---- shared argument definitions ---- *)

let verbose_arg =
  let doc = "Enable debug logging of overlay construction and maintenance." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let non_negative_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a non-negative integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let scale_arg =
  let doc = "Divide workload sizes by $(docv) for quicker runs." in
  Arg.(value & opt positive_int 1 & info [ "scale" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed (experiments are deterministic given the seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let variant_arg =
  let doc = "Topology preset: tsk-large or tsk-small." in
  let preset =
    Arg.enum [ ("tsk-large", Workload.Ctx.Tsk_large); ("tsk-small", Workload.Ctx.Tsk_small) ]
  in
  Arg.(value & opt preset Workload.Ctx.Tsk_large & info [ "topology" ] ~docv:"PRESET" ~doc)

let latency_arg =
  let doc = "Link latency model: gtitm (random per class) or manual (20/5/2/1 ms)." in
  let model = Arg.enum [ ("gtitm", Ts.Gtitm_random); ("manual", Ts.Manual) ] in
  Arg.(value & opt model Ts.Gtitm_random & info [ "latency" ] ~docv:"MODEL" ~doc)

let probe_window_arg =
  let doc =
    "Probe-plane concurrency: how many RTT probes fly at once (1 = sequential). Changes modelled probe wall-clock only, never which probes are sent."
  in
  Arg.(value & opt positive_int 1 & info [ "probe-window" ] ~docv:"W" ~doc)

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun e -> Format.fprintf ppf "%-8s %s@." e.Workload.Registry.name e.Workload.Registry.title)
      Workload.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments") Term.(const run $ const ())

(* ---- experiment ---- *)

let experiment_cmd =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id, or 'all'.")
  in
  let run id scale =
    if id = "all" then begin
      Workload.Registry.run_all ~scale ppf;
      `Ok ()
    end
    else begin
      match Workload.Registry.find id with
      | Some e ->
        Workload.Registry.print e ~scale ppf;
        `Ok ()
      | None -> `Error (false, Printf.sprintf "unknown experiment %S (try 'list')" id)
    end
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run a paper experiment by id")
    Term.(ret (const run $ id $ scale_arg))

(* ---- gen-topology ---- *)

let gen_topology_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Save the generated topology to $(docv).")
  in
  let run variant latency seed scale out =
    (* Open the output before generating, so an unwritable path fails fast. *)
    match Option.map (fun path -> (path, open_out path)) out with
    | exception Sys_error e -> `Error (false, "cannot write --out: " ^ e)
    | out ->
      let params =
        match variant with
        | Workload.Ctx.Tsk_large -> Ts.tsk_large ~latency ~scale ()
        | Workload.Ctx.Tsk_small -> Ts.tsk_small ~latency ~scale ()
      in
      let topo = Ts.generate (Rng.create seed) params in
      let g = topo.Ts.graph in
      Format.fprintf ppf "params: %a@." Ts.pp_params params;
      Format.fprintf ppf "nodes: %d  edges: %d  connected: %b@." (Graph.node_count g)
        (Graph.edge_count g) (Graph.is_connected g);
      Format.fprintf ppf "transit nodes: %d  stub domains: %d@."
        (Array.length topo.Ts.transit_nodes)
        (Array.length topo.Ts.stub_members);
      let oracle = Oracle.build topo in
      let rng = Rng.create (seed + 1) in
      let samples = Array.init 1000 (fun _ ->
          Oracle.dist oracle (Rng.int rng (Graph.node_count g)) (Rng.int rng (Graph.node_count g)))
      in
      Format.fprintf ppf "pairwise latency: %a@." Prelude.Stats.pp_summary
        (Prelude.Stats.summarize samples);
      (match out with
      | Some (path, oc) ->
        output_string oc (Topology.Serialize.to_string topo);
        close_out oc;
        Format.fprintf ppf "saved to %s@." path
      | None -> ());
      `Ok ()
  in
  Cmd.v
    (Cmd.info "gen-topology" ~doc:"Generate a transit-stub topology and print statistics")
    Term.(ret (const run $ variant_arg $ latency_arg $ seed_arg $ scale_arg $ out_arg))

(* ---- topo-info ---- *)

let topo_info_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Saved topology file.")
  in
  let run file =
    match Topology.Serialize.load file with
    | Error m -> `Error (false, m)
    | Ok topo ->
      let g = topo.Ts.graph in
      Format.fprintf ppf "params: %a@." Ts.pp_params topo.Ts.params;
      Format.fprintf ppf "nodes: %d  edges: %d  connected: %b@." (Graph.node_count g)
        (Graph.edge_count g) (Graph.is_connected g);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "topo-info" ~doc:"Inspect a saved topology file")
    Term.(ret (const run $ file_arg))

(* ---- nn-search ---- *)

let nn_search_cmd =
  let budget_arg =
    Arg.(value & opt positive_int 10 & info [ "budget" ] ~docv:"N" ~doc:"RTT measurement budget.")
  in
  let run variant latency seed scale budget probe_window =
    let oracle = Workload.Ctx.oracle ~scale variant latency in
    let n = Oracle.node_count oracle in
    let rng = Rng.create seed in
    let can = Can_overlay.create ~dims:2 0 in
    for id = 1 to n - 1 do
      ignore (Can_overlay.join can id (Geometry.Point.random rng 2))
    done;
    let lms = Landmarks.choose rng oracle 15 in
    let prober =
      Engine.Probe.create
        ~config:{ Engine.Probe.default_config with Engine.Probe.window = probe_window }
        ~measure:(Oracle.measure oracle) ()
    in
    let vectors = Array.init n (Landmarks.vector_via lms prober) in
    let all = Array.init n (fun i -> i) in
    let query = Rng.int rng n in
    let nearest, optimal = Search.true_nearest oracle ~query ~candidates:all in
    Format.fprintf ppf "query node %d; true nearest %d at %.2f ms@." query nearest optimal;
    let last name (c : Search.curve) =
      let k = Array.length c.Search.dist - 1 in
      Format.fprintf ppf
        "%-10s found %d at %.2f ms (stretch %.3f) with %d probes in %.1f ms wall-clock@." name
        c.Search.found.(k) c.Search.dist.(k)
        (c.Search.dist.(k) /. optimal)
        (k + 1) c.Search.elapsed
    in
    last "ers" (Search.ers_curve prober can ~query ~budget);
    last "landmark"
      (Search.hybrid_curve prober ~vector_of:(Array.get vectors) ~candidates:all ~query ~budget:1);
    last "hybrid"
      (Search.hybrid_curve prober ~vector_of:(Array.get vectors) ~candidates:all ~query ~budget)
  in
  Cmd.v
    (Cmd.info "nn-search" ~doc:"Run one nearest-neighbor search with all three algorithms")
    Term.(
      const run $ variant_arg $ latency_arg $ seed_arg $ scale_arg $ budget_arg
      $ probe_window_arg)

(* ---- build ---- *)

let build_cmd =
  let strategy_arg =
    let doc = "Neighbor selection: random, hybrid or optimal." in
    let strat =
      Arg.enum
        [
          ("random", Strategy.Random_pick);
          ("hybrid", Strategy.hybrid ~rtts:10 ());
          ("optimal", Strategy.Optimal);
        ]
    in
    Arg.(value & opt strat (Strategy.hybrid ~rtts:10 ()) & info [ "strategy" ] ~docv:"S" ~doc)
  in
  let size_arg =
    Arg.(value & opt int 1024 & info [ "nodes" ] ~docv:"N" ~doc:"Overlay size.")
  in
  let run verbose variant latency seed scale strategy size probe_window =
    setup_logs verbose;
    let oracle = Workload.Ctx.oracle ~scale variant latency in
    let size = size / scale in
    if size < 2 || size > Oracle.node_count oracle then
      `Error
        ( false,
          Printf.sprintf "--nodes / --scale gives %d overlay nodes; need 2 to %d (the topology size)"
            size (Oracle.node_count oracle) )
    else begin
      let b =
        Builder.build oracle
          {
            Builder.default_config with
            Builder.overlay_size = size;
            strategy;
            probe = { Engine.Probe.default_config with Engine.Probe.window = probe_window };
            seed;
          }
      in
      let r = Measure.route_stretch b in
      Format.fprintf ppf "overlay: %d nodes, strategy %s@." size (Strategy.to_string strategy);
      Format.fprintf ppf "stretch: %a@." Prelude.Stats.pp_summary r.Measure.stretch;
      Format.fprintf ppf "hops:    %a@." Prelude.Stats.pp_summary r.Measure.hops;
      Format.fprintf ppf "neighbor quality: %a@." Prelude.Stats.pp_summary
        (Measure.neighbor_quality b);
      Format.fprintf ppf "probe plane: %d probes, %.0f ms modelled wall-clock at window %d@."
        (Engine.Probe.probes b.Builder.prober)
        (Engine.Probe.total_elapsed b.Builder.prober)
        probe_window;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build a topology-aware overlay and measure routing stretch")
    Term.(
      ret
        (const run $ verbose_arg $ variant_arg $ latency_arg $ seed_arg $ scale_arg $ strategy_arg
        $ size_arg $ probe_window_arg))

(* ---- churn ---- *)

let churn_cmd =
  let crashes_arg =
    Arg.(value & opt non_negative_int 8 & info [ "crashes" ] ~docv:"N" ~doc:"Fail-stop crashes in the storm.")
  in
  let leaves_arg =
    Arg.(value & opt non_negative_int 8 & info [ "leaves" ] ~docv:"N" ~doc:"Graceful departures in the storm.")
  in
  let joins_arg =
    Arg.(value & opt non_negative_int 16 & info [ "joins" ] ~docv:"N" ~doc:"Joins in the storm.")
  in
  let loss_arg =
    Arg.(value & opt float 0.05
         & info [ "loss" ] ~docv:"P" ~doc:"Notification loss probability in [0,1].")
  in
  let stale_arg =
    Arg.(value & opt float 0.10
         & info [ "staleness" ] ~docv:"F"
             ~doc:"Fraction of soft-state entries aged to expiry per staleness burst.")
  in
  let shards_arg =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Soft-state expiry shards (independently swept store partitions).")
  in
  let digest_arg =
    Arg.(value & opt float 0.0
         & info [ "digest-window" ] ~docv:"MS"
             ~doc:"Notification digest window in virtual ms (0 disables batching).")
  in
  let run verbose seed scale crashes leaves joins loss staleness shards digest_window =
    (* written so that NaN fails every range test *)
    let in_unit x = x >= 0.0 && x <= 1.0 in
    if not (in_unit loss) then `Error (false, "--loss must be in [0,1]")
    else if not (in_unit staleness) then `Error (false, "--staleness must be in [0,1]")
    else if shards < 1 then `Error (false, "--shards must be >= 1")
    else if not (Float.is_finite digest_window && digest_window >= 0.0) then
      `Error (false, "--digest-window must be finite and >= 0")
    else begin
      setup_logs verbose;
      let storm =
        {
          Engine.Faults.default_storm with
          Engine.Faults.crashes;
          leaves;
          joins;
          expire_fraction = staleness;
        }
      in
      let channel = { Engine.Faults.loss; delay_min = 5.0; delay_max = 50.0 } in
      Workload.Tableout.render ppf
        (Workload.Exp_churn.run_custom ~scale ~seed ~shards ~digest_window ~storm ~channel ());
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Drive every overlay through a seeded fault storm (crashes, leaves, joins, stale \
          soft-state, lossy notifications) and report repair latency and stretch")
    Term.(
      ret
        (const run $ verbose_arg $ seed_arg $ scale_arg $ crashes_arg $ leaves_arg $ joins_arg
        $ loss_arg $ stale_arg $ shards_arg $ digest_arg))

(* ---- repair ---- *)

let repair_cmd =
  let run verbose seed scale =
    setup_logs verbose;
    Workload.Tableout.render ppf (Workload.Exp_repair.run ~scale ~seed ())
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Sweep maintenance configurations (refresh x sweep x digest window, plus one \
          adaptive run) under a seeded churn storm and report the trace-derived repair \
          latency tail (p50/p95/p99) per configuration")
    Term.(const run $ verbose_arg $ seed_arg $ scale_arg)

(* ---- cache ---- *)

let cache_cmd =
  let zipf_arg =
    Arg.(value & opt float 0.9
         & info [ "zipf-s" ] ~docv:"S"
             ~doc:"Zipf popularity exponent, >= 0 (0 = uniform requests).")
  in
  let clients_arg =
    Arg.(value & opt (some int) None
         & info [ "clients" ] ~docv:"N"
             ~doc:"Client population size (default: scales with the workload).")
  in
  let replicas_arg =
    Arg.(value & opt int 3
         & info [ "replicas" ] ~docv:"R"
             ~doc:"Max copies per key, >= 1 (1 disables hotspot replication).")
  in
  let run verbose seed scale zipf_s clients replicas =
    if (not (Float.is_finite zipf_s)) || zipf_s < 0.0 then
      `Error (false, "--zipf-s must be finite and >= 0")
    else if (match clients with Some c -> c < 1 | None -> false) then
      `Error (false, "--clients must be >= 1")
    else if replicas < 1 then `Error (false, "--replicas must be >= 1")
    else begin
      setup_logs verbose;
      Workload.Tableout.render ppf (Workload.Exp_cache.run ~scale ~seed ~zipf_s ?clients ~replicas ());
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Serve a seeded Zipf request workload through a content cache over every overlay \
          (eCAN aware/random, CAN, Chord, Pastry, Koorde) and report delivered latency percentiles, \
          hit rate, hotspot replications and per-node load")
    Term.(
      ret
        (const run $ verbose_arg $ seed_arg $ scale_arg $ zipf_arg $ clients_arg
        $ replicas_arg))

(* ---- degree ---- *)

let degree_cmd =
  let run verbose seed scale =
    setup_logs verbose;
    Workload.Tableout.render ppf (Workload.Exp_degree.run ~scale ~seed ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "degree"
       ~doc:
         "Sweep the per-hop choice budget k over every overlay (eCAN, CAN, Chord, Pastry, \
          Koorde — where k is also the de Bruijn fanout) and report topology-aware vs \
          random stretch, RTT probes spent and churn-repair latency per (backend, k) cell")
    Term.(ret (const run $ verbose_arg $ seed_arg $ scale_arg))

(* ---- mcast ---- *)

let mcast_cmd =
  let group_arg =
    Arg.(value & opt (some int) None
         & info [ "group-size" ] ~docv:"N"
             ~doc:"Subscriber group size, >= 4 (default: scales with the workload).")
  in
  let degree_arg =
    Arg.(value & opt int 3
         & info [ "degree" ] ~docv:"D" ~doc:"Max children per tree node, >= 1.")
  in
  let policy_arg =
    Arg.(value & opt (enum [ ("both", None); ("aware", Some Engine.Mcast.Aware);
                             ("random", Some Engine.Mcast.Random) ]) None
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:
               "Placement arm for the eCAN rows: $(b,aware), $(b,random), or $(b,both) \
                (the default; headline aware-vs-random gauges need both).")
  in
  let run verbose seed scale group_size degree policy =
    if (match group_size with Some g -> g < 4 | None -> false) then
      `Error (false, "--group-size must be >= 4")
    else if degree < 1 then `Error (false, "--degree must be >= 1")
    else begin
      setup_logs verbose;
      Workload.Tableout.render ppf (Workload.Exp_mcast.run ~scale ~seed ?group_size ~degree ?policy ());
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "mcast"
       ~doc:
         "Disseminate a seeded publish schedule through bounded-degree multicast trees over \
          every overlay (eCAN aware/random placement, CAN, Chord, Pastry, Koorde), with parent loss \
          detected through soft-state Departure_of watches, and report delivered latency, \
          stretch, link stress and regraft latency per backend")
    Term.(
      ret (const run $ verbose_arg $ seed_arg $ scale_arg $ group_arg $ degree_arg $ policy_arg))

(* ---- trace ---- *)

let trace_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSONL spans to $(docv) instead of stdout.")
  in
  let size_arg =
    Arg.(value & opt int 128 & info [ "nodes" ] ~docv:"N" ~doc:"Overlay size.")
  in
  let until_arg =
    Arg.(value & opt float 120_000.0
         & info [ "until" ] ~docv:"MS" ~doc:"Simulated horizon in milliseconds.")
  in
  let lookups_arg =
    Arg.(value & opt non_negative_int 32
         & info [ "lookups" ] ~docv:"N" ~doc:"Routed lookups issued after the run (route spans).")
  in
  let run verbose variant latency seed scale size until lookups out =
    let oracle = lazy (Workload.Ctx.oracle ~scale variant latency) in
    (* Sizes below 16 run 16 nodes, so the storm always has members to spare. *)
    let overlay_size = max 16 (size / scale) in
    if not (Float.is_finite until && until > 0.0) then
      `Error (false, "--until must be finite and positive")
    else if size < 1 then `Error (false, Printf.sprintf "--nodes must be >= 1, got %d" size)
    else if overlay_size > Oracle.node_count (Lazy.force oracle) then
      `Error
        ( false,
          Printf.sprintf
            "--nodes / --scale gives %d overlay nodes; need at most %d (the topology size)"
            overlay_size (Oracle.node_count (Lazy.force oracle)) )
    else
      (* Open the output before the run, so an unwritable path fails fast. *)
      match Option.fold ~none:stdout ~some:open_out out with
      | exception Sys_error e -> `Error (false, "cannot write --out: " ^ e)
      | oc ->
        setup_logs verbose;
        let oracle = Lazy.force oracle in
        let sim = Engine.Sim.create () in
        let tracer = Engine.Trace.create ~clock:(fun () -> Engine.Sim.now sim) () in
        let faults = Engine.Faults.create ~trace:tracer ~seed:(seed + 1) () in
        (* Spans ride on the instrumented paths, so the run needs a registry
           even though only the tracer's output is dumped. *)
        let metrics = Engine.Metrics.create () in
        let size = overlay_size in
        let b =
          Builder.build ~metrics ~trace:tracer
            ~clock:(fun () -> Engine.Sim.now sim)
            oracle
            { Builder.default_config with Builder.overlay_size = size; ttl = 60_000.0; seed }
        in
        let m =
          Core.Maintenance.start ~sim ~metrics ~trace:tracer ~refresh_period:20_000.0
            ~sweep_period:5_000.0 ~channel:(Engine.Faults.perturb faults) b
        in
        Core.Maintenance.subscribe_all_slots m;
        (* A small storm inside the horizon so the dump shows fault, sweep
           and notification spans, not just refresh traffic. *)
        let storm =
          {
            Engine.Faults.default_storm with
            Engine.Faults.crashes = 2;
            leaves = 2;
            joins = 4;
            expire_bursts = 1;
            start = until /. 4.0;
            spread = until /. 2.0;
          }
        in
        let drv = Rng.create (seed + 2) in
        Workload.Exp_churn.install_ecan_storm faults ~sim ~storm ~rng:drv m b;
        Engine.Sim.run ~until sim;
        let ids = Can_overlay.node_ids (Ecan.Expressway.can b.Builder.ecan) in
        for _ = 1 to lookups do
          ignore
            (Ecan.Expressway.route b.Builder.ecan ~src:(Rng.pick drv ids)
               (Geometry.Point.random drv b.Builder.config.Builder.dims))
        done;
        Core.Maintenance.stop m;
        output_string oc (Engine.Trace.to_jsonl tracer);
        if out <> None then close_out oc;
        Logs.info (fun f ->
            f "traced %d spans (%d dropped by ring wraparound)" (Engine.Trace.length tracer)
              (Engine.Trace.dropped tracer));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a seeded maintenance run (refresh, sweeps, a small fault storm, routed \
          lookups) and dump the event spans as Chrome-trace JSONL (load in chrome://tracing \
          or Perfetto)")
    Term.(
      ret
        (const run $ verbose_arg $ variant_arg $ latency_arg $ seed_arg $ scale_arg $ size_arg
        $ until_arg $ lookups_arg $ out_arg))

let () =
  let doc = "Topology-aware overlay construction using global soft-state (ICDCS 2003)" in
  let info = Cmd.info "topoaware" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; experiment_cmd; gen_topology_cmd; topo_info_cmd; nn_search_cmd; build_cmd; churn_cmd; repair_cmd; cache_cmd; mcast_cmd; degree_cmd; trace_cmd ]))
