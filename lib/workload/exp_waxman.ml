module Oracle = Topology.Oracle
module Waxman = Topology.Waxman
module Builder = Core.Builder
module Strategy = Core.Strategy
module Rng = Prelude.Rng

let landmark_count = 15
let query_count = 60
let budgets = [ 1; 5; 10; 20; 40 ]

let oracle_cache : (int, Oracle.t) Hashtbl.t = Hashtbl.create 2

let waxman_oracle ~scale =
  match Hashtbl.find_opt oracle_cache scale with
  | Some o -> o
  | None ->
    let params = Waxman.default ~nodes:(max 200 (2000 / scale)) () in
    let o = Oracle.of_graph (Waxman.generate (Rng.create 515) params) in
    Hashtbl.replace oracle_cache scale o;
    o

let nn_table oracle =
  let max_budget = List.fold_left max 1 budgets in
  let ers, hybrid =
    Exp_nn.stretch_curves ~seed:616 ~query_count ~ers_budget:max_budget ~hybrid_budget:max_budget
      oracle
  in
  let ers = Sweep.nn_average ~budgets ers and hybrid = Sweep.nn_average ~budgets hybrid in
  Tableout.table
    (Sweep.nn_table ~experiment:"waxman" ~first:"RTT measurements" ~budgets
       ~title:
         (Printf.sprintf "Waxman flat topology (%d nodes): NN-search stretch"
            (Oracle.node_count oracle))
       [ ("ERS stretch", "ers", ers); ("lmk+RTT stretch", "hybrid", hybrid) ])

let routing_table oracle ~scale =
  let size = max 128 (1024 / scale) in
  let b =
    Builder.build oracle
      {
        Builder.default_config with
        Builder.overlay_size = size;
        landmark_count;
        strategy = Strategy.Random_pick;
        seed = 42;
      }
  in
  let cell ?fill strategy =
    Tableout.gauge
      ~labels:[ ("experiment", "waxman"); ("strategy", strategy) ]
      "waxman_stretch" Tableout.cell_f
      (Sweep.mean (Sweep.route ?fill ~pairs:1024 b))
  in
  let random = cell "random" in
  let hybrid = cell ~fill:(Strategy.hybrid ~rtts:10 ()) "hybrid" in
  let optimal = cell ~fill:Strategy.Optimal "optimal" in
  let table =
    Tableout.create
      ~title:(Printf.sprintf "Waxman flat topology: eCAN routing stretch (%d nodes)" size)
      ~columns:[ "random"; "hybrid (lmk+RTT)"; "optimal" ]
  in
  Tableout.add_row table [ random; hybrid; optimal ];
  Tableout.table table

let run ?(scale = 1) () =
  let oracle = waxman_oracle ~scale in
  let nn = nn_table oracle in
  [ nn; routing_table oracle ~scale ]
