module Builder = Core.Builder
module Strategy = Core.Strategy
module Store = Softstate.Store

let rates = [ 0.0625; 0.25; 1.0; 2.0; 4.0; 8.0 ]
let overlay_size = 4096
let measure_pairs = 1024

let fig16 ?(scale = 1) () =
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Manual in
  let size = max 128 (overlay_size / scale) in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Figure 16: map reduction rate vs entries/node and stretch (tsk-large, manual, %d nodes)"
           size)
      ~columns:[ "reduction rate"; "entries / hosting node"; "p90 entries"; "hosting nodes"; "stretch" ]
  in
  List.iter
    (fun condense ->
      let b =
        Builder.build oracle
          {
            Builder.default_config with
            Builder.overlay_size = size;
            condense;
            strategy = Strategy.hybrid ~rtts:10 ();
            seed = 42;
          }
      in
      let hosting = Store.hosting_stats b.Builder.store in
      let labels = [ ("condense", Printf.sprintf "%.4f" condense) ] in
      let stretch = Sweep.mean (Sweep.route ~pairs:measure_pairs b) in
      let g name fmt v = Tableout.gauge ~labels name fmt v in
      Tableout.add_row table
        [
          Tableout.text (Printf.sprintf "%.2f" condense);
          g "condense_entries_per_host" Tableout.cell_f hosting.Prelude.Stats.mean;
          g "condense_entries_p90" Tableout.cell_f hosting.Prelude.Stats.p90;
          g "condense_hosting_nodes" (Tableout.fixed 0) (float_of_int hosting.Prelude.Stats.count);
          g "condense_stretch" Tableout.cell_f stretch;
        ])
    rates;
  [ Tableout.table table ]
