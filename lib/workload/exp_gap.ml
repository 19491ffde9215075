module Builder = Core.Builder
module Strategy = Core.Strategy

let overlay_size = 4096
let measure_pairs = 1024

let run ?(scale = 1) () =
  let size = max 128 (overlay_size / scale) in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Section 5.4: sources of stretch penalty (%d nodes, manual latencies)" size)
      ~columns:
        [
          "topology";
          "optimal";
          "hybrid";
          "random";
          "structural gap %";
          "generation gap %";
          "cut vs random %";
        ]
  in
  List.iter
    (fun variant ->
      let oracle = Ctx.oracle ~scale variant Topology.Transit_stub.Manual in
      let b =
        Builder.build oracle
          {
            Builder.default_config with
            Builder.overlay_size = size;
            strategy = Strategy.Random_pick;
            seed = 42;
          }
      in
      let labels = [ ("experiment", "gap"); ("variant", Ctx.variant_name variant) ] in
      let mean ?fill () = Sweep.mean (Sweep.route ?fill ~pairs:measure_pairs b) in
      let random = mean () in
      let optimal = mean ~fill:Strategy.Optimal () in
      let hybrid = mean ~fill:(Strategy.hybrid ~rtts:10 ()) () in
      let stretch strategy v =
        Tableout.gauge ~labels:(("strategy", strategy) :: labels) "gap_stretch" Tableout.cell_f v
      in
      let pct name v = Tableout.gauge ~labels name (Tableout.fixed 1) (100.0 *. v) in
      Tableout.add_row table
        [
          Tableout.text (Ctx.variant_name variant);
          stretch "optimal" optimal;
          stretch "hybrid" hybrid;
          stretch "random" random;
          (* stretch of 1.0 = IP shortest path *)
          pct "gap_structural_pct" (optimal -. 1.0);
          pct "gap_generation_pct" ((hybrid -. optimal) /. optimal);
          pct "gap_cut_pct" ((random -. hybrid) /. random);
        ])
    [ Ctx.Tsk_large; Ctx.Tsk_small ];
  [ Tableout.table table ]
