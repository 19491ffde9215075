(* Join latency: the probe plane prices the RTT work a soft-state join
   performs.  At probe window 1 the landmark vector is measured
   sequentially — modelled wall-clock = the *sum* of the L landmark RTTs,
   exactly the seed behaviour.  At window L all L probes fly concurrently
   and the vector phase collapses to the single slowest landmark RTT: the
   ~L x join-latency improvement the paper's "a node measures its
   landmark vector" step implies once probes are issued in parallel.
   Probe *counts* are identical at every window — the plane reschedules
   probes in time, it never adds or removes measurements. *)

module Oracle = Topology.Oracle
module Builder = Core.Builder
module Strategy = Core.Strategy
module Landmarks = Landmark.Landmarks
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Probe = Engine.Probe
module Metrics = Engine.Metrics

let joins_per_window = 16

type sample = {
  vector_ms : float;  (* modelled wall-clock of the landmark-vector batch *)
  max_lmk : float;  (* ground truth: slowest landmark RTT *)
  sum_lmk : float;  (* ground truth: sum of landmark RTTs *)
  probes : int;  (* RTT measurements this join spent *)
}

let mean f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs /. float_of_int (List.length xs)

(* Build a fresh overlay whose probe plane runs [window] concurrent
   probes, then join the same fresh nodes one by one, recording the
   modelled join cost against the ground-truth landmark RTTs. *)
let run_window { Run.scale; metrics } ~window oracle =
  let size = max 128 (1024 / scale) in
  let labels = [ ("experiment", "join"); ("window", string_of_int window) ] in
  let config =
    {
      Builder.default_config with
      Builder.overlay_size = size;
      strategy = Strategy.hybrid ~rtts:10 ();
      probe = { Probe.default_config with Probe.window };
      seed = 42;
    }
  in
  let b = Builder.build ~metrics ~labels oracle config in
  let can = Ecan_exp.can b.Builder.ecan in
  let joiners = ref [] in
  let i = ref 0 in
  while List.length !joiners < joins_per_window do
    if not (Can_overlay.mem can !i) then joiners := !i :: !joiners;
    incr i
  done;
  let joiners = List.rev !joiners in
  let lms = Landmarks.nodes b.Builder.landmarks in
  let vec_hist = Metrics.histogram metrics ~labels "join_vector_ms" in
  let sel_hist = Metrics.histogram metrics ~labels "join_selection_ms" in
  List.map
    (fun node ->
      let max_lmk = Array.fold_left (fun a l -> Float.max a (Oracle.dist oracle node l)) 0.0 lms in
      let sum_lmk = Array.fold_left (fun a l -> a +. Oracle.dist oracle node l) 0.0 lms in
      Oracle.reset_measurements oracle;
      let cost = Builder.join_node b node in
      let probes = Oracle.measurements oracle in
      Metrics.observe vec_hist cost.Builder.vector_ms;
      Metrics.observe sel_hist cost.Builder.selection_ms;
      {
        vector_ms = cost.Builder.vector_ms;
        max_lmk;
        sum_lmk;
        probes;
      })
    joiners

let run ({ Run.scale; _ } as run) =
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Gtitm_random in
  let lcount = Builder.default_config.Builder.landmark_count in
  let windows = [ 1; lcount ] in
  let per_window = List.map (fun w -> (w, run_window run ~window:w oracle)) windows in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Join latency vs probe window (tsk-large, %d joins, %d landmarks, means)"
           joins_per_window lcount)
      ~columns:
        [ "window"; "vector ms"; "max lmk RTT"; "sum lmk RTT"; "selection ms"; "probes/join" ]
  in
  let ms = Tableout.fixed 1 in
  List.iter
    (fun (w, samples) ->
      let labels = [ ("experiment", "join"); ("window", string_of_int w) ] in
      let g name f = Tableout.gauge ~labels name ms (mean f samples) in
      Tableout.add_row table
        [
          Tableout.text (string_of_int w);
          Tableout.named ~labels "join_vector_ms" Tableout.Mean ms;
          g "join_max_lmk_rtt_ms" (fun s -> s.max_lmk);
          g "join_sum_lmk_rtt_ms" (fun s -> s.sum_lmk);
          Tableout.named ~labels "join_selection_ms" Tableout.Mean ms;
          g "join_probes_per_join" (fun s -> float_of_int s.probes);
        ])
    per_window;
  let seq = List.assoc 1 per_window and con = List.assoc lcount per_window in
  let seq_vec = mean (fun s -> s.vector_ms) seq and con_vec = mean (fun s -> s.vector_ms) con in
  let speedup = if con_vec > 0.0 then seq_vec /. con_vec else 0.0 in
  let counts_equal = List.for_all2 (fun a b -> a.probes = b.probes) seq con in
  let within_2x =
    List.for_all (fun s -> s.max_lmk > 0.0 && s.vector_ms <= 2.0 *. s.max_lmk) con
  in
  let labels = [ ("experiment", "join") ] in
  let text = Tableout.text and line = Tableout.line in
  [
    Tableout.table table;
    line
      [
        text (Printf.sprintf "  Vector phase collapses %.1f ms -> %.1f ms (" seq_vec con_vec);
        Tableout.gauge ~labels "join_vector_speedup" ms speedup;
        text (Printf.sprintf "x) when the %d landmark probes" lcount);
      ];
    line
      [
        text "  fly concurrently; probe counts identical across windows: ";
        Tableout.gauge ~labels "join_probe_counts_equal" (fun v -> string_of_bool (v = 1.0))
          (if counts_equal then 1.0 else 0.0);
        text (Printf.sprintf "; window-%d vector" lcount);
      ];
    Tableout.note "  phase within 2x of the slowest landmark RTT on every join: %b." within_2x;
  ]
