(* build: the construction pipeline behind most of the paper's
   experiments.  One rep is [Builder.build] with the Table 2 config
   (4096-member 2-d eCAN, span 2, 15 landmarks, Hybrid {rtts = 10},
   Hilbert curve) on tsk-large with GT-ITM random latencies — the fig10 /
   fig14 network — followed by fig10's metric, [Measure.route_stretch]
   over 8192 pairs.  An op is one member built.  The rep is soft-state
   reads and uncached probes; it runs no simulator events, no bus traffic
   and no sweeps. *)

open Harness
module Measure = Core.Measure

let sizes = function Full -> (4096, 8192) | Smoke -> (64, 128)

let make ~size ~seed ~tracing =
  let members, pairs = sizes size in
  let oracle, setup_s =
    setups ~size ~count:5 (fun () -> network ~tracing size Ts.Gtitm_random)
  in
  let variants = match size with Full -> 9 | Smoke -> 2 in
  let config variant =
    {
      Builder.default_config with
      Builder.overlay_size = members;
      domains = 1;
      seed = (seed * variants) + variant;
    }
  in
  (* The CAN check walks every pair of zones, 2-3 s at 4096 members, so it
     runs after the first rep only. *)
  let can_checked = ref false in
  let rep ~variant ~traced =
    let config = config variant in
    let registry = Metrics.create () in
    let measured = Oracle.measurements oracle in
    let built, cost =
      timed ~registry ~traced (fun () ->
          let b =
            Prof.time_if traced l_build (fun () -> Builder.build ~metrics:registry oracle config)
          in
          match Prof.time_if traced l_stretch (fun () -> Measure.route_stretch ~pairs b) with
          | report -> Ok (b, report)
          | exception Failure m -> Error m)
    in
    if traced then add_int "oracle_measure_calls" (Oracle.measurements oracle - measured);
    let attempted = members + routes registry "route_requests" in
    let failed = routes registry "route_failures" in
    match built with
    | Error m ->
      fail ("route stretch: " ^ m);
      { cost; outputs = "route stretch failed"; attempted; failed }
    | Ok (b, report) ->
      if not !can_checked then begin
        can_checked := true;
        require "Can.Overlay.check_invariants"
          (Can_overlay.check_invariants (Ecan_exp.can b.Builder.ecan))
      end;
      require "Store.check_invariants" (Store.check_invariants b.Builder.store);
      let s = report.Measure.stretch and h = report.Measure.hops in
      let outputs =
        Printf.sprintf "stretch mean %.17g p50 %.17g p99 %.17g, hops mean %.17g over %d pairs"
          s.Prelude.Stats.mean s.Prelude.Stats.p50 s.Prelude.Stats.p99 h.Prelude.Stats.mean
          s.Prelude.Stats.count
      in
      if traced then replay_build b;
      { cost; outputs; attempted; failed }
  in
  { ops_per_rep = members; warmups = 1; variants; setup_s = (fun () -> setup_s); rep }
