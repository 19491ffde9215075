module Metrics = Engine.Metrics
module Measure = Core.Measure
module Search = Proximity.Search

let mean (r : Measure.report) = r.Measure.stretch.Prelude.Stats.mean

let route ?fill ?into ~pairs builder =
  Option.iter (Core.Builder.rebuild_tables builder) fill;
  let report = Measure.route_stretch ~pairs builder in
  Option.iter
    (fun hist -> List.iter (Metrics.observe hist) (Measure.stretches report.Measure.samples))
    into;
  report

let nn_stretch oracle ~candidates ~queries curve =
  Array.to_list
    (Array.map
       (fun query ->
         let _, optimal = Search.true_nearest oracle ~query ~candidates in
         Search.stretch_curve (curve query) ~optimal)
       queries)

let nn_average ~budgets curves =
  let sums = Array.make (List.length budgets) 0.0 in
  List.iter
    (fun stretch ->
      let last = Array.length stretch - 1 in
      List.iteri (fun i b -> sums.(i) <- sums.(i) +. stretch.(min (b - 1) last)) budgets)
    curves;
  Array.map (fun v -> v /. float_of_int (List.length curves)) sums

let nn_table ~experiment ~title ~first ~budgets columns =
  let table = Tableout.create ~title ~columns:(first :: List.map (fun (h, _, _) -> h) columns) in
  List.iteri
    (fun i b ->
      let rtts = string_of_int b in
      Tableout.add_row table
        (Tableout.text rtts
        :: List.map
             (fun (_, algo, values) ->
               Tableout.gauge
                 ~labels:[ ("experiment", experiment); ("algo", algo); ("rtts", rtts) ]
                 "nn_stretch" Tableout.cell_f values.(i))
             columns))
    budgets;
  table
