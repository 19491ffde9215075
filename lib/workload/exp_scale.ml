module Builder = Core.Builder
module Strategy = Core.Strategy

let sizes = [ 512; 1024; 2048; 4096; 8192 ]
let rtt_budget = 10
let landmark_count = 15
let measure_pairs = 1024

(* Paper sizes that scale to the same overlay size share one row: the
   last of them, so its seed is the one the row was always left with. *)
let scaled_sizes ~scale =
  List.fold_right
    (fun n acc ->
      let size = max 128 (n / scale) in
      if List.mem_assoc size acc then acc else (size, n) :: acc)
    sizes []

let figure ~experiment ~title ~scale latency =
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
    (fun (size, n) ->
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
        let cell ?fill strategy =
          Tableout.gauge
            ~labels:
              [
                ("experiment", experiment);
                ("variant", Ctx.variant_name variant);
                ("nodes", string_of_int size);
                ("strategy", strategy);
              ]
            "scale_stretch" Tableout.cell_f
            (Sweep.mean (Sweep.route ?fill ~pairs:measure_pairs b))
        in
        let random = cell "random" in
        let hybrid = cell ~fill:(Strategy.hybrid ~rtts:rtt_budget ()) "hybrid" in
        (hybrid, random)
      in
      let large_hybrid, large_random = cells Ctx.Tsk_large in
      let small_hybrid, small_random = cells Ctx.Tsk_small in
      Tableout.add_row table
        [
          Tableout.text (string_of_int size); large_hybrid; small_hybrid; large_random; small_random;
        ])
    (scaled_sizes ~scale);
  [ Tableout.table table ]

let fig14 { Run.scale; _ } =
  figure ~experiment:"fig14" ~scale Topology.Transit_stub.Gtitm_random
    ~title:"Figure 14: stretch vs overlay size (GT-ITM latencies, hybrid vs random neighbors)"

let fig15 { Run.scale; _ } =
  figure ~experiment:"fig15" ~scale Topology.Transit_stub.Manual
    ~title:"Figure 15: stretch vs overlay size (manual latencies, hybrid vs random neighbors)"
