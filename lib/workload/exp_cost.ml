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

let run ?(scale = 1) () =
  let ers, hybrid = Exp_nn.data ~scale Ctx.Tsk_large in
  let table =
    Tableout.create
      ~title:"Messaging cost: probes needed to find a neighbor within a stretch target (tsk-large)"
      ~columns:[ "target stretch"; "ERS probes"; "lmk+RTT probes" ]
  in
  List.iter
    (fun target ->
      let target_s = Printf.sprintf "%.1f" target in
      let cell algo curve =
        match probes_to_reach curve target with
        | Some k ->
          Tableout.gauge
            ~labels:[ ("experiment", "cost"); ("algo", algo); ("target", target_s) ]
            "cost_probes_to_target" (Tableout.fixed 0) (float_of_int k)
        | None -> Tableout.text "> budget"
      in
      Tableout.add_row table [ Tableout.text target_s; cell "ers" ers; cell "hybrid" hybrid ])
    targets;
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
  let g name fmt v = Tableout.gauge ~labels:[ ("experiment", "cost") ] name fmt v in
  let count name n = g name (Tableout.fixed 0) (float_of_int n) in
  let text = Tableout.text and line = Tableout.line in
  [
    Tableout.table table;
    line
      [
        text (Printf.sprintf "  Soft-state join cost (measured, %d-node overlay): " size);
        count "cost_join_rtt_probes" rtt_messages;
        text " RTT probes (landmarks +";
      ];
    line
      [
        text "  per-slot selection), ";
        count "cost_join_map_publishes" regions;
        text " map publishes, ";
        count "cost_join_slots_filled" slots;
        text " expressway slots filled via";
      ];
    line
      [
        text "  ";
        count "cost_join_lookups" !lookups;
        text " map lookups averaging ";
        g "cost_join_lookup_hops_mean" (Tableout.fixed 1) mean_hops;
        text " overlay hops each.";
      ];
    (* Probe-plane pricing of the same join: at the default window of 1
       the probes are sequential, so the wall-clock is the sum of their
       RTTs — the `join` experiment shows the concurrent-window
       collapse. *)
    Tableout.note "  Modelled join wall-clock at probe window 1: %.1f ms landmark vector +"
      join_cost.Builder.vector_ms;
    Tableout.note "  %.1f ms slot selection (see the `join` experiment for wider windows)."
      join_cost.Builder.selection_ms;
  ]
