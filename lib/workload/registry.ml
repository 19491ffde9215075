type entry = {
  name : string;
  title : string;
  run : Run.t -> Tableout.block list;
}

let entry name title run = { name; title; run }

let all =
  [
    entry "table2" "Table 2: experiment parameters" Exp_params.run;
    entry "fig2" "Figure 2: eCAN vs CAN logical hops" Exp_hops.run;
    entry "fig3" "Figure 3: NN search, ERS vs hybrid (tsk-large)" Exp_nn.fig3;
    entry "fig4" "Figure 4: ERS deep budgets (tsk-large)" Exp_nn.fig4;
    entry "fig5" "Figure 5: NN search, ERS vs hybrid (tsk-small)" Exp_nn.fig5;
    entry "fig6" "Figure 6: ERS deep budgets (tsk-small)" Exp_nn.fig6;
    entry "fig10" "Figure 10: stretch vs RTTs (tsk-large, GT-ITM)" Exp_stretch.fig10;
    entry "fig11" "Figure 11: stretch vs RTTs (tsk-large, manual)" Exp_stretch.fig11;
    entry "fig12" "Figure 12: stretch vs RTTs (tsk-small, GT-ITM)" Exp_stretch.fig12;
    entry "fig13" "Figure 13: stretch vs RTTs (tsk-small, manual)" Exp_stretch.fig13;
    entry "fig14" "Figure 14: stretch vs overlay size (GT-ITM)" Exp_scale.fig14;
    entry "fig15" "Figure 15: stretch vs overlay size (manual)" Exp_scale.fig15;
    entry "fig16" "Figure 16: map condense rate" Exp_condense.fig16;
    entry "gap" "Section 5.4: stretch penalty breakdown" Exp_gap.run;
    entry "tacan" "Section 1: Topologically-Aware CAN imbalance" Exp_tacan.run;
    entry "taxonomy" "Section 1: topology-exploitation taxonomy head-to-head" Exp_taxonomy.run;
    entry "xover" "Section 5: Chord/Pastry/Koorde generality" Exp_xoverlay.run;
    entry "coords" "Section 2: GNP coordinates vs landmark vectors" Exp_coords.run;
    entry "optim" "Section 5.5: optimisations and curve ablations" Exp_optim.run;
    entry "qos" "Section 6: load-aware neighbor selection" Exp_qos.run;
    entry "cost" "Messaging cost: probes to target stretch vs soft-state join" Exp_cost.run;
    entry "join" "Join latency: concurrent landmark probing through the probe plane" Exp_join.run;
    entry "waxman" "Robustness: flat Waxman topology (no hierarchy)" Exp_waxman.run;
    entry "churn" "Robustness: churn & fault storms, soft-state repair (all overlays)"
      Exp_churn.run;
    entry "storm" "Maintenance plane: digest batching & heap-swept TTL under burst load"
      Exp_storm.run;
    entry "repair" "Repair latency: trace-driven tail analysis & adaptive maintenance tuning"
      Exp_repair.run;
    entry "cache" "Service layer: topology-aware Zipf content cache (all overlays)"
      Exp_cache.run;
    entry "mcast" "Dissemination trees: map-placed vs random relays under churn (all overlays)"
      Exp_mcast.run;
    entry "degree" "Constant-degree frontier: choice budget k vs stretch / maintenance / repair"
      Exp_degree.run;
    entry "alloc" "Allocation budget: exact minor words per hot-path op"
      Exp_alloc.run;
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let print e run ppf = Tableout.render run.Run.metrics ppf (e.run run)

let run_all ~scale ppf =
  List.map
    (fun e ->
      let run = Run.create ~scale in
      Format.fprintf ppf "@.>>> %s — %s@." e.name e.title;
      print e run ppf;
      (* keep the output flowing for long runs under tee *)
      Format.pp_print_flush ppf ();
      run.Run.metrics)
    all
