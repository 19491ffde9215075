module Builder = Core.Builder
module Strategy = Core.Strategy

let overlay_size = 4096
let measure_pairs = 1024

let run ?(scale = 1) ppf =
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
      let cell ?fill strategy =
        Sweep.mean
          (Sweep.route ?fill ~pairs:measure_pairs b
             ~record:
               (Sweep.Gauge
                  ( "gap_stretch",
                    [
                      ("experiment", "gap");
                      ("variant", Ctx.variant_name variant);
                      ("strategy", strategy);
                    ] )))
      in
      let random = cell "random" in
      let optimal = cell ~fill:Strategy.Optimal "optimal" in
      let hybrid = cell ~fill:(Strategy.hybrid ~rtts:10 ()) "hybrid" in
      let pct v = Printf.sprintf "%.1f" (100.0 *. v) in
      Tableout.add_row table
        [
          Ctx.variant_name variant;
          Tableout.cell_f optimal;
          Tableout.cell_f hybrid;
          Tableout.cell_f random;
          (* stretch of 1.0 = IP shortest path *)
          pct (optimal -. 1.0);
          pct ((hybrid -. optimal) /. optimal);
          pct ((random -. hybrid) /. random);
        ])
    [ Ctx.Tsk_large; Ctx.Tsk_small ];
  Tableout.render ppf table
