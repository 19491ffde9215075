(* Raw-speed rows: the full churn/repair stack on transit-stub
   topologies far beyond the paper's ~10^4 nodes, up to 2^17 nodes.

   Each row generates a strict-hierarchy topology with 2^e stub nodes
   (stub size fixed at 64; the backbone grows with the exponent),
   precomputes the exact oracle, and drives the eCAN + soft-state +
   pub/sub stack through the default fault storm via
   [Exp_churn.ecan_outcomes].  The overlay membership is kept modest —
   the point of these rows is the cost of the {e physical} scale: oracle
   precomputation (one Dijkstra per stub member plus the core all-pairs)
   and distance queries against the flat layouts.

   Every printed cell and recorded metric is deterministic: the metrics
   are labelled with the node count and are byte-identical across runs. *)

module Ts = Topology.Transit_stub
module Oracle = Topology.Oracle
module Graph = Topology.Graph
module Rng = Prelude.Rng

(* Same fixed seed as Ctx: the rows are physical networks, grown rather
   than shared (the cache would pin ~100 MB of oracle per row). *)
let topo_seed = 20030519

(* Strict-hierarchy params with 2^e stub nodes (64 per stub); the
   backbone widens with the exponent so the core all-pairs stays a small
   fraction of the precompute. *)
let topo_params exponent =
  let domains, per_domain, stubs_per =
    match exponent with
    | 11 -> (1, 2, 16)
    | 12 -> (1, 4, 16)
    | 14 -> (4, 4, 16)
    | 17 -> (8, 8, 32)
    | _ -> invalid_arg "Exp_bigscale: unsupported exponent"
  in
  {
    Ts.transit_domains = domains;
    transit_nodes_per_domain = per_domain;
    stubs_per_transit_node = stubs_per;
    stub_size = 64;
    extra_domain_edges = domains;
    extra_edge_fraction = 0.3;
    latency = Ts.Manual;
  }

type row = { exponent : int; nodes : int; outcome : Exp_churn.outcome }

let run_row ~size exponent =
  let topo = Ts.generate (Rng.create topo_seed) (topo_params exponent) in
  let oracle = Oracle.build topo in
  let nodes = Graph.node_count topo.Ts.graph in
  let labels = [ ("experiment", "bigscale"); ("nodes", string_of_int nodes) ] in
  let outcome, _can = Exp_churn.ecan_outcomes ~size ~seed:11 ~labels oracle in
  { exponent; nodes; outcome }

let run ?(scale = 1) ppf =
  let scale = max 1 scale in
  (* Big rows only at bench scales; the registry smoke test (scale 32)
     exercises the same code on topologies it can build in milliseconds. *)
  let exponents = if scale <= 8 then [ 14; 17 ] else [ 11; 12 ] in
  let size = max 48 (768 / scale) in
  let rows = List.map (run_row ~size) exponents in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Big-scale churn: default storm over a %d-member eCAN on 2^e-node physical networks"
           size)
      ~columns:
        [ "2^e nodes"; "stretch pre"; "storm"; "repaired"; "repair ms"; "ok" ]
  in
  List.iter
    (fun r ->
      let o = r.outcome in
      let labels = [ ("nodes", string_of_int r.nodes) ] in
      let g = Sweep.gauge ~labels in
      g "bigscale_stretch_before" o.Exp_churn.stretch_before;
      g "bigscale_stretch_storm" o.Exp_churn.stretch_storm;
      g "bigscale_stretch_repaired" o.Exp_churn.stretch_repaired;
      g "bigscale_repair_ms" o.Exp_churn.repair_ms;
      g "bigscale_notifications" (float_of_int o.Exp_churn.notifications);
      g "bigscale_converged" (if o.Exp_churn.converged then 1.0 else 0.0);
      Tableout.add_row table
        [
          Printf.sprintf "2^%d = %d" r.exponent r.nodes;
          Tableout.cell_f o.Exp_churn.stretch_before;
          Tableout.cell_f o.Exp_churn.stretch_storm;
          Tableout.cell_f o.Exp_churn.stretch_repaired;
          (if Float.is_nan o.Exp_churn.repair_ms then "-"
           else Printf.sprintf "%.0f" o.Exp_churn.repair_ms);
          (if o.Exp_churn.converged then "yes" else "NO");
        ])
    rows;
  Tableout.render ppf table;
  Format.fprintf ppf "  recorded metrics are labelled nodes=N.@."
