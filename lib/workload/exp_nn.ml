module Oracle = Topology.Oracle
module Can_overlay = Can.Overlay
module Landmarks = Landmark.Landmarks
module Search = Proximity.Search
module Point = Geometry.Point
module Rng = Prelude.Rng

let landmark_count = 15
let query_count = 100
let max_ers_budget = 4000
let max_hybrid_budget = 40

let stretch_curves ?metrics ?labels ~seed ~query_count ~ers_budget ~hybrid_budget oracle =
  let n = Oracle.node_count oracle in
  let rng = Rng.create seed in
  (* The paper's §4 setting: a 2-d CAN over every node of the topology. *)
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to n - 1 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let lms = Landmarks.choose rng oracle landmark_count in
  let prober = Engine.Probe.create ~measure:(Oracle.measure oracle) () in
  let vectors = Array.init n (Landmarks.vector_via lms prober) in
  let all = Array.init n (fun i -> i) in
  let queries = Rng.sample rng (min query_count n) all in
  let stretch = Sweep.nn_stretch oracle ~candidates:all ~queries in
  let ers =
    stretch (fun query -> Search.ers_curve ?metrics ?labels prober can ~query ~budget:ers_budget)
  in
  let hybrid =
    stretch (fun query ->
        Search.hybrid_curve ?metrics ?labels prober ~vector_of:(Array.get vectors) ~candidates:all
          ~query ~budget:hybrid_budget)
  in
  (ers, hybrid)

(* Shared per-variant computation: average best-so-far stretch for both
   algorithms, over the same query set, cached across the four figures
   by every input it reads, with the probes each algorithm spent. *)
type curves = { ers : float array; hybrid : float array; probes : (string * int) list }

let cache : (string, curves) Hashtbl.t = Hashtbl.create 4

let seed = 777

let probe_counter metrics ~labels algo =
  Engine.Metrics.counter metrics ~labels:(("algo", algo) :: labels) "rtt_probes"

(* The probes per algorithm ([rtt_probes] labeled algo/variant) are the
   measurement cost the figures trade against: the searches count them
   into the run's registry, and a run served from the cache gets the
   cached counts instead. *)
let compute { Run.scale; metrics } variant =
  let key = Printf.sprintf "%s/%d/%d" (Ctx.variant_name variant) scale seed in
  let labels = [ ("variant", Ctx.variant_name variant) ] in
  match Hashtbl.find_opt cache key with
  | Some c ->
    List.iter (fun (algo, n) -> Engine.Metrics.add (probe_counter metrics ~labels algo) n) c.probes;
    c
  | None ->
    let oracle = Ctx.oracle ~scale variant Topology.Transit_stub.Gtitm_random in
    let ers_budget = min max_ers_budget (Oracle.node_count oracle - 1) in
    let ers, hybrid =
      stretch_curves ~metrics ~labels ~seed ~query_count ~ers_budget
        ~hybrid_budget:max_hybrid_budget oracle
    in
    (* Every budget up to the last, summed newest query first: the order
       the baseline's fig3-fig6 [nn_stretch] floats were recorded in. *)
    let average budget curves =
      Sweep.nn_average ~budgets:(List.init budget succ) (List.rev curves)
    in
    let probes =
      List.map
        (fun algo -> (algo, Engine.Metrics.count (probe_counter metrics ~labels algo)))
        [ "ers"; "hybrid" ]
    in
    let c = { ers = average ers_budget ers; hybrid = average max_hybrid_budget hybrid; probes } in
    Hashtbl.replace cache key c;
    c

let data run variant =
  let c = compute run variant in
  (c.ers, c.hybrid)

let hybrid_checkpoints = [ 1; 2; 3; 5; 8; 10; 15; 20; 30; 40 ]
let ers_checkpoints = [ 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000; 2000; 4000 ]

let at curve k = curve.(min (k - 1) (Array.length curve - 1))

(* One row per checkpoint; a column reads its curve at each one. *)
let figure ~fig ~title checkpoints columns =
  let column (header, algo, curve) =
    (header, algo, Array.of_list (List.map (at curve) checkpoints))
  in
  [
    Tableout.table
      (Sweep.nn_table ~experiment:fig ~title ~first:"RTT measurements" ~budgets:checkpoints
         (List.map column columns));
  ]

let comparison_figure ~fig ~title run variant =
  let c = compute run variant in
  figure ~fig ~title hybrid_checkpoints
    [ ("ERS stretch", "ers", c.ers); ("lmk+RTT stretch", "hybrid", c.hybrid) ]

let ers_figure ~fig ~title run variant =
  let c = compute run variant in
  figure ~fig ~title
    (List.filter (fun k -> k <= Array.length c.ers) ers_checkpoints)
    [ ("ERS stretch", "ers", c.ers) ]

let fig3 run =
  comparison_figure ~fig:"fig3" run Ctx.Tsk_large
    ~title:"Figure 3: nearest-neighbor stretch, ERS vs landmark+RTT (tsk-large)"

let fig4 run =
  ers_figure ~fig:"fig4" run Ctx.Tsk_large
    ~title:"Figure 4: expanding-ring search alone, deep budgets (tsk-large)"

let fig5 run =
  comparison_figure ~fig:"fig5" run Ctx.Tsk_small
    ~title:"Figure 5: nearest-neighbor stretch, ERS vs landmark+RTT (tsk-small)"

let fig6 run =
  ers_figure ~fig:"fig6" run Ctx.Tsk_small
    ~title:"Figure 6: expanding-ring search alone, deep budgets (tsk-small)"
