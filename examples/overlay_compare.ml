(* Generality across overlay families (paper §5): the same landmark+RTT
   selection improves eCAN, Chord and Pastry, because all three leave
   freedom in which member of a region/arc/prefix becomes a routing
   neighbor.

   Run with:  dune exec examples/overlay_compare.exe *)

module Ts = Topology.Transit_stub
module Oracle = Topology.Oracle
module Builder = Core.Builder
module Strategy = Core.Strategy
module Measure = Core.Measure
module Rng = Prelude.Rng

let () =
  let ppf = Format.std_formatter in
  (* eCAN: full soft-state machinery, on a mid-size overlay. *)
  let topo = Ts.generate (Rng.create 5) (Ts.tsk_large ~latency:Ts.Manual ~scale:8 ()) in
  let oracle = Oracle.build topo in
  let b =
    Builder.build oracle
      {
        Builder.default_config with
        Builder.overlay_size = 512;
        landmark_count = 15;
        strategy = Strategy.Random_pick;
      }
  in
  let mean () = (Measure.route_stretch ~pairs:1024 b).Measure.stretch.Prelude.Stats.mean in
  let random = mean () in
  Builder.rebuild_tables b (Strategy.hybrid ~rtts:10 ());
  let hybrid = mean () in
  Builder.rebuild_tables b Strategy.Optimal;
  let optimal = mean () in
  Format.fprintf ppf "eCAN (512 nodes):  random %.3f   hybrid %.3f   optimal %.3f@." random
    hybrid optimal;

  (* Chord and Pastry under the same three policies (the workload module
     drives both and prints its own table). *)
  let run = Workload.Run.create ~scale:2 in
  Workload.Tableout.render run.Workload.Run.metrics ppf (Workload.Exp_xoverlay.run run)
