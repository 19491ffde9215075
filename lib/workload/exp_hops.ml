module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Metrics = Engine.Metrics
module Point = Geometry.Point
module Rng = Prelude.Rng

let lookups = 1000

let build_can ?metrics ?labels ~dims ~n ~seed () =
  let rng = Rng.create seed in
  let t = Can_overlay.create ?metrics ?labels ~dims 0 in
  for id = 1 to n - 1 do
    ignore (Can_overlay.join t id (Point.random rng dims))
  done;
  t

let run_lookups route ~dims ~seed =
  let rng = Rng.create (seed + 1) in
  for _ = 1 to lookups do
    match route (Point.random rng dims) with
    | Some _ -> ()
    | None -> failwith "Exp_hops: routing failed"
  done

(* Both variants record into the process-global registry: per-overlay
   [route_hops] histograms keyed by size and fan-out, which is what
   [bench --json] serializes.  Each returns the table cell that prints
   its histogram's mean. *)
let hops_cell labels = Tableout.named ~labels "route_hops" Tableout.Mean Tableout.cell_f

let can_hops ~dims ~n ~seed =
  let labels = [ ("dims", string_of_int dims); ("nodes", string_of_int n) ] in
  let t = build_can ~metrics:Metrics.global ~labels ~dims ~n ~seed () in
  let ids = Can_overlay.node_ids t in
  let rng = Rng.create (seed + 2) in
  run_lookups (fun p -> Can_overlay.route t ~src:(Rng.pick rng ids) p) ~dims ~seed;
  hops_cell (("overlay", "can") :: labels)

let ecan_hops ?(span_bits = 2) ~n ~seed () =
  let labels =
    [ ("fan", string_of_int (1 lsl span_bits)); ("nodes", string_of_int n) ]
  in
  let t = build_can ~dims:2 ~n ~seed () in
  let e = Ecan_exp.create ~metrics:Metrics.global ~labels ~span_bits t in
  let sel_rng = Rng.create (seed + 3) in
  Ecan_exp.build_tables e ~selector:(fun ~node:_ ~region:_ ~candidates ->
      Some (Rng.pick sel_rng candidates));
  let ids = Can_overlay.node_ids t in
  let rng = Rng.create (seed + 2) in
  run_lookups (fun p -> Ecan_exp.route e ~src:(Rng.pick rng ids) p) ~dims:2 ~seed;
  hops_cell (("overlay", "ecan") :: labels)

let run ?(scale = 1) () =
  let sizes =
    List.sort_uniq compare
      (List.map (fun n -> max 64 (n / scale)) [ 256; 512; 1024; 2048; 4096; 8192 ])
  in
  let table =
    Tableout.create
      ~title:"Figure 2: average logical hops, CAN (d=2..5) vs eCAN (d=2; fan k=4 and k=8)"
      ~columns:[ "nodes"; "CAN d=2"; "CAN d=3"; "CAN d=4"; "CAN d=5"; "eCAN k=4"; "eCAN k=8" ]
  in
  List.iter
    (fun n ->
      let seed = 1000 + n in
      let cells = List.map (fun dims -> can_hops ~dims ~n ~seed) [ 2; 3; 4; 5 ] in
      Tableout.add_row table
        ((Tableout.text (string_of_int n) :: cells)
        @ [ ecan_hops ~n ~seed (); ecan_hops ~span_bits:3 ~n ~seed () ]))
    sizes;
  [ Tableout.table table ]
