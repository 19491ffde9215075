module Metrics = Engine.Metrics
module Measure = Core.Measure
module Search = Proximity.Search

let gauge ?labels name v = Metrics.set (Metrics.gauge Metrics.global ?labels name) v

type record = Gauge of string * Metrics.labels | Histogram of Metrics.labels

let mean (r : Measure.report) = r.Measure.stretch.Prelude.Stats.mean

let route ?fill ?record ~pairs builder =
  Option.iter (Core.Builder.rebuild_tables builder) fill;
  let report = Measure.route_stretch ~pairs builder in
  (match record with
  | None -> ()
  | Some (Gauge (name, labels)) -> gauge ~labels name (mean report)
  | Some (Histogram labels) ->
    let hist = Metrics.histogram Metrics.global ~labels "route_stretch" in
    List.iter (Metrics.observe hist) (Measure.stretches report.Measure.samples));
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

let nn_gauge ~experiment ~algo rtts v =
  gauge ~labels:[ ("experiment", experiment); ("algo", algo); ("rtts", string_of_int rtts) ]
    "nn_stretch" v
