module Oracle = Topology.Oracle
module Builder = Core.Builder
module Strategy = Core.Strategy
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway

let targets = [ 16.0; 8.0; 4.0; 2.0; 1.5 ]

let probes_to_reach curve target =
  let rec scan k =
    if k >= Array.length curve then None
    else if curve.(k) <= target then Some (k + 1)
    else scan (k + 1)
  in
  scan 0

let cell = function Some k -> string_of_int k | None -> "> budget"

let run ?(scale = 1) ppf =
  let ers, hybrid = Exp_nn.data ~scale Ctx.Tsk_large in
  let table =
    Tableout.create
      ~title:"Messaging cost: probes needed to find a neighbor within a stretch target (tsk-large)"
      ~columns:[ "target stretch"; "ERS probes"; "lmk+RTT probes" ]
  in
  List.iter
    (fun target ->
      Tableout.add_row table
        [
          Printf.sprintf "%.1f" target;
          cell (probes_to_reach ers target);
          cell (probes_to_reach hybrid target);
        ])
    targets;
  Tableout.render ppf table;
  (* Measured cost of a soft-state join: landmark probes + per-region
     publishes + one lookup and a few RTT probes per table slot. *)
  let oracle = Ctx.oracle ~scale Ctx.Tsk_large Topology.Transit_stub.Gtitm_random in
  let size = max 128 (1024 / scale) in
  let b =
    Builder.build oracle
      {
        Builder.default_config with
        Builder.overlay_size = size;
        strategy = Strategy.hybrid ~rtts:10 ();
        seed = 42;
      }
  in
  (* pick a fresh physical node *)
  let can = Ecan_exp.can b.Builder.ecan in
  let joiner =
    let rec find i = if Can_overlay.mem can i then find (i + 1) else i in
    find 0
  in
  Oracle.reset_measurements oracle;
  let join_cost = Builder.join_node b joiner in
  let rtt_messages = Oracle.measurements oracle in
  let regions = List.length (Softstate.Store.regions_of b.Builder.store joiner) in
  let slots = Ecan_exp.table_size b.Builder.ecan joiner in
  (* overlay hop cost of the lookups the join performed *)
  let store = b.Builder.store in
  let vector = Builder.vector_of b joiner in
  let lookup_hops = ref 0 and lookups = ref 0 in
  Ecan_exp.iter_slots b.Builder.ecan joiner (fun ~row ~digit ->
      let region = Ecan_exp.region_prefix b.Builder.ecan joiner ~row ~digit in
      match Softstate.Store.lookup_route store ~from:joiner ~region ~vector with
      | Some hops ->
        incr lookups;
        lookup_hops := !lookup_hops + List.length hops - 1
      | None -> ());
  let mean_hops =
    if !lookups = 0 then 0.0 else float_of_int !lookup_hops /. float_of_int !lookups
  in
  (* The join row goes to the global registry as gauges, so the bench
     snapshot holds this experiment. *)
  let g = Sweep.gauge ~labels:[ ("experiment", "cost") ] in
  g "cost_join_rtt_probes" (float_of_int rtt_messages);
  g "cost_join_map_publishes" (float_of_int regions);
  g "cost_join_slots_filled" (float_of_int slots);
  g "cost_join_lookups" (float_of_int !lookups);
  g "cost_join_lookup_hops_mean" mean_hops;
  Format.fprintf ppf
    "  Soft-state join cost (measured, %d-node overlay): %d RTT probes (landmarks +@.\
    \  per-slot selection), %d map publishes, %d expressway slots filled via@.\
    \  %d map lookups averaging %.1f overlay hops each.@."
    size rtt_messages regions slots !lookups mean_hops;
  (* Probe-plane pricing of the same join: at the default window of 1 the
     probes are sequential, so the wall-clock is the sum of their RTTs —
     the `join` experiment shows the concurrent-window collapse. *)
  Format.fprintf ppf
    "  Modelled join wall-clock at probe window 1: %.1f ms landmark vector +@.\
    \  %.1f ms slot selection (see the `join` experiment for wider windows).@."
    join_cost.Builder.vector_ms join_cost.Builder.selection_ms
