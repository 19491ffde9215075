module Builder = Core.Builder
module Strategy = Core.Strategy

let overlay_size = 4096
let rtt_budgets = [ 1; 2; 5; 10; 20; 40 ]
let landmark_counts = [ 10; 20 ]
let measure_pairs = 2048

let figure { Run.scale; metrics } number variant latency latency_name =
  let fig = Printf.sprintf "fig%d" number in
  let oracle = Ctx.oracle ~scale variant latency in
  let size = max 128 (overlay_size / scale) in
  let title =
    Printf.sprintf "Figure %d: routing stretch vs RTT budget (%s, %s latencies, %d nodes)" number
      (Ctx.variant_name variant) latency_name size
  in
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
     keyed by figure, landmark count and RTT budget; the cell prints its
     mean. *)
  let cell ~fill landmark_count rtts b =
    let labels = [ ("fig", fig); ("landmarks", string_of_int landmark_count); ("rtts", rtts) ] in
    let into = Engine.Metrics.histogram metrics ~labels "route_stretch" in
    ignore (Sweep.route ~fill ~into ~pairs:measure_pairs b);
    Tableout.named ~labels "route_stretch" Tableout.Mean Tableout.cell_f
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
      Tableout.add_row table ((Tableout.text (string_of_int rtts) :: cells) @ [ optimal ]))
    rtt_budgets;
  [ Tableout.table table ]

let fig10 run = figure run 10 Ctx.Tsk_large Topology.Transit_stub.Gtitm_random "GT-ITM"
let fig11 run = figure run 11 Ctx.Tsk_large Topology.Transit_stub.Manual "manual"
let fig12 run = figure run 12 Ctx.Tsk_small Topology.Transit_stub.Gtitm_random "GT-ITM"
let fig13 run = figure run 13 Ctx.Tsk_small Topology.Transit_stub.Manual "manual"
