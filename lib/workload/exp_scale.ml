module Builder = Core.Builder
module Strategy = Core.Strategy

let sizes = [ 512; 1024; 2048; 4096; 8192 ]
let rtt_budget = 10
let landmark_count = 15
let measure_pairs = 1024

let figure ~title ~scale latency ppf =
  let table =
    Tableout.create ~title
      ~columns:
        [
          "nodes";
          "large transit";
          "small transit";
          "large (random nbr)";
          "small (random nbr)";
        ]
  in
  List.iter
    (fun n ->
      let size = max 128 (n / scale) in
      let cells variant =
        let oracle = Ctx.oracle ~scale variant latency in
        let b =
          Builder.build oracle
            {
              Builder.default_config with
              Builder.overlay_size = size;
              landmark_count;
              strategy = Strategy.Random_pick;
              (* Scale the store's expiry sharding with membership, so the
                 biggest builds run the sharded maintenance plane (stretch
                 is unaffected: the clock is frozen, nothing expires). *)
              shards = max 1 (size / 1024);
              seed = 42 + n;
            }
        in
        (* Per-configuration means go to the global registry. *)
        let cell ?fill strategy =
          Sweep.mean
            (Sweep.route ?fill ~pairs:measure_pairs b
               ~record:
                 (Sweep.Gauge
                    ( "scale_stretch",
                      [
                        ("variant", Ctx.variant_name variant);
                        ("nodes", string_of_int size);
                        ("strategy", strategy);
                      ] )))
        in
        let random = cell "random" in
        let hybrid = cell ~fill:(Strategy.hybrid ~rtts:rtt_budget ()) "hybrid" in
        (hybrid, random)
      in
      let large_hybrid, large_random = cells Ctx.Tsk_large in
      let small_hybrid, small_random = cells Ctx.Tsk_small in
      Tableout.add_row table
        [
          Tableout.cell_i size;
          Tableout.cell_f large_hybrid;
          Tableout.cell_f small_hybrid;
          Tableout.cell_f large_random;
          Tableout.cell_f small_random;
        ])
    sizes;
  Tableout.render ppf table

let fig14 ?(scale = 1) ppf =
  figure ~scale Topology.Transit_stub.Gtitm_random ppf
    ~title:"Figure 14: stretch vs overlay size (GT-ITM latencies, hybrid vs random neighbors)"

let fig15 ?(scale = 1) ppf =
  figure ~scale Topology.Transit_stub.Manual ppf
    ~title:"Figure 15: stretch vs overlay size (manual latencies, hybrid vs random neighbors)"
