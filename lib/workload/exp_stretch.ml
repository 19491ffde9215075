module Builder = Core.Builder
module Strategy = Core.Strategy

let overlay_size = 4096
let rtt_budgets = [ 1; 2; 5; 10; 20; 40 ]
let landmark_counts = [ 10; 20 ]
let measure_pairs = 2048

let figure ~fig ~title ~scale variant latency ppf =
  let oracle = Ctx.oracle ~scale variant latency in
  let size = max 128 (overlay_size / scale) in
  (* One build per landmark count; strategies are swapped by rebuilding
     the routing tables over the same overlay and soft state. *)
  let builders =
    List.map
      (fun landmark_count ->
        ( landmark_count,
          Builder.build oracle
          {
            Builder.default_config with
            Builder.overlay_size = size;
            landmark_count;
            strategy = Strategy.Random_pick;
            seed = 42;
          } ))
      landmark_counts
  in
  let columns =
    ("RTTs" :: List.map (fun l -> Printf.sprintf "landmarks=%d" l) landmark_counts)
    @ [ "optimal" ]
  in
  let table = Tableout.create ~title ~columns in
  (* Each cell's per-pair stretches go to a [route_stretch] histogram
     keyed by figure, landmark count and RTT budget. *)
  let cell ~fill landmark_count rtts b =
    Tableout.cell_f
      (Sweep.mean
         (Sweep.route ~fill ~pairs:measure_pairs b
            ~record:
              (Sweep.Histogram
                 [ ("fig", fig); ("landmarks", string_of_int landmark_count); ("rtts", rtts) ])))
  in
  (* The optimal curve is flat in the RTT budget. *)
  let lm_ref, reference = List.hd builders in
  let optimal = cell ~fill:Strategy.Optimal lm_ref "optimal" reference in
  List.iter
    (fun rtts ->
      let cells =
        List.map
          (fun (landmark_count, b) ->
            cell ~fill:(Strategy.hybrid ~rtts ()) landmark_count (string_of_int rtts) b)
          builders
      in
      Tableout.add_row table ((Tableout.cell_i rtts :: cells) @ [ optimal ]))
    rtt_budgets;
  Tableout.render ppf table

let fig10 ?(scale = 1) ppf =
  figure ~fig:"fig10" ~scale Ctx.Tsk_large Topology.Transit_stub.Gtitm_random ppf
    ~title:
      (Printf.sprintf
         "Figure 10: routing stretch vs RTT budget (tsk-large, GT-ITM latencies, %d nodes)"
         (max 128 (overlay_size / scale)))

let fig11 ?(scale = 1) ppf =
  figure ~fig:"fig11" ~scale Ctx.Tsk_large Topology.Transit_stub.Manual ppf
    ~title:
      (Printf.sprintf
         "Figure 11: routing stretch vs RTT budget (tsk-large, manual latencies, %d nodes)"
         (max 128 (overlay_size / scale)))

let fig12 ?(scale = 1) ppf =
  figure ~fig:"fig12" ~scale Ctx.Tsk_small Topology.Transit_stub.Gtitm_random ppf
    ~title:
      (Printf.sprintf
         "Figure 12: routing stretch vs RTT budget (tsk-small, GT-ITM latencies, %d nodes)"
         (max 128 (overlay_size / scale)))

let fig13 ?(scale = 1) ppf =
  figure ~fig:"fig13" ~scale Ctx.Tsk_small Topology.Transit_stub.Manual ppf
    ~title:
      (Printf.sprintf
         "Figure 13: routing stretch vs RTT budget (tsk-small, manual latencies, %d nodes)"
         (max 128 (overlay_size / scale)))
