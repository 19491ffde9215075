(* One domain (DESIGN.md §12): the store's whole-store phases are plain
   loops over the shards, so a whole-store sweep is the per-shard sweeps
   in shard order and the hosting statistics are the per-member counts;
   the probe plane measures in submission order; the [Dpool] stub and the
   arguments kept for [bench/perf] change nothing; and the Sim
   (time, seq) merge order that anchors the determinism contract. *)

module Sim = Engine.Sim
module Metrics = Engine.Metrics
module Probe = Engine.Probe
module Faults = Engine.Faults
module Store = Softstate.Store
module Can_overlay = Can.Overlay
module Builder = Core.Builder
module Number = Landmark.Number
module Point = Geometry.Point
module Rng = Prelude.Rng
module Json = Prelude.Json

let vector_of node = Array.init 5 (fun i -> float_of_int ((node * ((7 * i) + 3)) mod 400))
let region_of p = [| p land 1; (p lsr 1) land 1; (p lsr 2) land 1 |]

(* A 48-member CAN grown from [seed], and an 8-shard store over it on a
   manual clock. *)
let seeded_store ?pool ?trace ~seed () =
  let metrics = Metrics.create () in
  let rng = Rng.create seed in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to 47 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let clock = ref 0.0 in
  let store =
    Store.create ~metrics ?pool ?trace ~shards:8 ~default_ttl:2_000.0
      ~clock:(fun () -> !clock)
      ~scheme:(Number.default_scheme ~max_latency:400.0 ())
      can
  in
  (metrics, rng, can, clock, store)

let check_invariants store =
  match Store.check_invariants store with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("store invariants: " ^ e)

let purged_nodes = List.map (fun (region, (e : Store.Entry.t)) -> (region, e.Store.Entry.node))

let sweep_counters metrics =
  ( Metrics.count (Metrics.counter metrics "store_expired"),
    Metrics.count (Metrics.counter metrics "store_sweep_visited") )

(* Seeded bursts of publishes with refreshes of the previous burst and a
   clock step between bursts, each burst ending in [sweep]; returns the
   store and its purge log, burst by burst. *)
let drive ?pool ~seed ~sweep () =
  let metrics, rng, can, clock, store = seeded_store ?pool ~seed () in
  let log =
    List.init 10 (fun b ->
        clock := float_of_int b *. 700.0;
        for p = 0 to 15 do
          let node = 1_000 + (b * 16) + p in
          Store.publish store ~region:(region_of p) ~node ~vector:(vector_of node)
        done;
        if b > 0 then
          for p = 0 to 15 do
            if Rng.chance rng 0.3 then
              ignore (Store.refresh store ~region:(region_of p) ~node:(1_000 + ((b - 1) * 16) + p))
          done;
        purged_nodes (sweep store))
  in
  check_invariants store;
  (metrics, rng, can, store, log)

(* Twin stores driven alike: a whole-store sweep purges, in order, what
   sweeping shards 0..7 one by one purges, and counts the same expired
   entries and popped heap records. *)
let qcheck_sweep_is_shard_sweeps =
  QCheck.Test.make ~name:"store: sweep_expired = sweep_shard over shards 0..7, in order" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m1, _, _, _, whole = drive ~seed ~sweep:Store.sweep_expired () in
      let m2, _, _, _, shards =
        drive ~seed
          ~sweep:(fun store ->
            List.concat (List.init (Store.shard_count store) (Store.sweep_shard store)))
          ()
      in
      if not (List.exists (fun l -> l <> []) whole) then
        QCheck.Test.fail_reportf "seed %d purged nothing" seed;
      whole = shards && sweep_counters m1 = sweep_counters m2)

(* [hosting_stats] and [avg_entries_per_node] equal their values
   recomputed from [entries_at_host] over the members in node-id order. *)
let host_counts_match store can =
  let counts = Array.map (Store.entries_at_host store) (Can_overlay.node_ids can) in
  let total = Array.fold_left ( + ) 0 counts in
  let hosting =
    List.filter_map (fun c -> if c > 0 then Some (float_of_int c) else None) (Array.to_list counts)
  in
  Store.avg_entries_per_node store = float_of_int total /. float_of_int (Array.length counts)
  && Store.hosting_stats store = Prelude.Stats.summarize (Array.of_list hosting)

let check_host_counts what store can =
  Alcotest.(check bool) (what ^ ": some entries are hosted") true
    (Array.exists (fun id -> Store.entries_at_host store id > 0) (Can_overlay.node_ids can));
  Alcotest.(check bool) (what ^ ": hosting_stats and avg_entries_per_node") true
    (host_counts_match store can)

let test_host_counts_fold () =
  let _, rng, can, clock, store = seeded_store ~seed:23 () in
  for p = 0 to 95 do
    clock := float_of_int p *. 25.0;
    Store.publish store ~region:(region_of p) ~node:(1_000 + p) ~vector:(vector_of (1_000 + p))
  done;
  (* The first entries' stamps are due: the counts see live entries only. *)
  clock := 2_500.0;
  check_host_counts "after publishes" store can;
  (* A leave before the rehost: the leaver's buckets count for no one. *)
  let ids = Can_overlay.node_ids can in
  Array.sort compare ids;
  let leaver = List.find (fun id -> Store.entries_at_host store id > 0) (Array.to_list ids) in
  ignore (Can_overlay.leave can leaver);
  ignore (Can_overlay.join can 48 (Point.random rng 2));
  check_host_counts "after a leave, before rehost" store can;
  Store.rehost store;
  check_host_counts "after the rehost" store can;
  check_invariants store

(* Seeded joins and leaves between the phases: the one-pass counts match
   the fold after each change, before and after its rehost. *)
let qcheck_host_counts_churn =
  QCheck.Test.make ~name:"store: host counts = the fold under seeded churn" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let _, rng, can, clock, store = seeded_store ~seed () in
      let agrees () = host_counts_match store can in
      let next = ref 48 and ok = ref true in
      for step = 0 to 11 do
        clock := float_of_int step *. 400.0;
        for p = 0 to 7 do
          let node = 1_000 + (step * 8) + p in
          Store.publish store ~region:(region_of (Rng.int rng 8)) ~node ~vector:(vector_of node)
        done;
        (if Rng.chance rng 0.5 && Array.length (Can_overlay.node_ids can) > 8 then
           ignore (Can_overlay.leave can (Rng.pick rng (Can_overlay.node_ids can)))
         else begin
           ignore (Can_overlay.join can !next (Point.random rng 2));
           incr next
         end);
        ok := !ok && agrees ();
        Store.rehost store;
        ok := !ok && agrees ()
      done;
      !ok)

(* A refresh leaves the entry's earlier heap record behind.  When both
   stamps are due, the first record popped purges the entry and the
   second finds no entry: one purge, two records visited. *)
let test_second_due_record_skipped () =
  let metrics, _, _, clock, store = seeded_store ~seed:5 () in
  let region = region_of 3 in
  Store.publish store ~region ~node:1_000 ~vector:(vector_of 1_000);
  clock := 500.0;
  Alcotest.(check bool) "refreshed" true (Store.refresh store ~region ~node:1_000);
  clock := 10_000.0;
  let shard = Store.shard_of_region store region in
  Alcotest.(check (list (pair (array int) int)))
    "purged once" [ (region, 1_000) ]
    (purged_nodes (Store.sweep_shard store shard));
  Alcotest.(check (pair int int)) "one expired, two records visited" (1, 2) (sweep_counters metrics);
  Alcotest.(check (list (pair (array int) int))) "nothing left" [] (purged_nodes (Store.sweep_expired store));
  Alcotest.(check bool) "entry gone" true (Store.find store ~region ~node:1_000 = None)

(* Each call measures the destination at the current submission position
   (a retry) or at a later one. *)
let in_submission_order dsts calls =
  let n = Array.length dsts in
  let rec from j = function
    | [] -> true
    | d :: rest ->
      let k = ref j in
      while !k < n && dsts.(!k) <> d do
        incr k
      done;
      !k < n && from !k rest
  in
  from 0 calls

(* [bench/perf] passes [~pool]; a prober given one measures, like one
   without, in submission order, and returns the same results. *)
let qcheck_probe_submission_order =
  QCheck.Test.make
    ~name:"probe: a pool leaves measurements on the caller, in submission order" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 1 24))
    (fun (seed, batchlen) ->
      let config = { Probe.window = 3; timeout = 80.0; retries = 2; cache_ttl = 500.0 } in
      let run pool =
        let calls = ref [] in
        let measure src dst =
          calls := dst :: !calls;
          1.0 +. float_of_int (((src * 31) + (dst * 17)) mod 97)
        in
        let faults =
          Faults.create ~channel:{ Faults.loss = 0.15; delay_min = 0.0; delay_max = 30.0 } ~seed ()
        in
        let p = Probe.create ?pool ~faults ~config ~measure () in
        let rng = Rng.create (seed + 1) in
        List.map
          (fun b ->
            calls := [];
            let dsts = Array.init batchlen (fun _ -> Rng.int rng 40) in
            let results = (Probe.run_batch p ~src:b ~dsts).Probe.results in
            (results, in_submission_order dsts (List.rev !calls)))
          [ 0; 1; 2; 3 ]
      in
      let reference = run None in
      List.for_all snd reference && run (Some (Engine.Dpool.get ~domains:4)) = reference)

(* [bench/perf] builds with [domains = 1]; the field may move no
   metric. *)
let test_builder_domains_inert () =
  let oracle = Workload.Ctx.oracle ~scale:32 Workload.Ctx.Tsk_small Topology.Transit_stub.Manual in
  let build_json domains =
    let metrics = Metrics.create () in
    let config =
      { Builder.default_config with Builder.overlay_size = 48; landmark_count = 4; domains; seed = 9 }
    in
    let b = Builder.build ~metrics oracle config in
    Metrics.set (Metrics.gauge metrics "entries") (Store.avg_entries_per_node b.Builder.store);
    Json.to_string (Metrics.to_json metrics)
  in
  Alcotest.(check string) "Builder.config.domains" (build_json 0) (build_json 1)

(* A whole-store sweep is one sweep to an observer: one [Ttl_sweep] span
   with every shard's purges, where per-shard sweeps emit one each. *)
let test_sweep_spans () =
  let spans sweep =
    let trace = Engine.Trace.create () in
    let _, _, _, clock, store = seeded_store ~trace ~seed:13 () in
    for p = 0 to 63 do
      Store.publish store ~region:(region_of p) ~node:(1_000 + p) ~vector:(vector_of (1_000 + p))
    done;
    clock := 5_000.0;
    sweep store;
    List.filter_map
      (fun (sp : Engine.Trace.span) ->
        match sp.Engine.Trace.kind with
        | Engine.Trace.Ttl_sweep { purged } -> Some purged
        | _ -> None)
      (Engine.Trace.spans trace)
  in
  Alcotest.(check (list int)) "sweep_expired" [ 64 ] (spans (fun s -> ignore (Store.sweep_expired s)));
  let per_shard =
    spans (fun s ->
        for i = 0 to Store.shard_count s - 1 do
          ignore (Store.sweep_shard s i)
        done)
  in
  Alcotest.(check int) "sweep_shard: one span per shard" 8 (List.length per_shard);
  Alcotest.(check int) "sweep_shard: same purges" 64 (List.fold_left ( + ) 0 per_shard)

(* The store's sweep, rehost and stat phases together.  [bench/perf]
   passes [~pool]: a store given one replays a pool-less store's metrics
   JSON and purge log byte for byte, and so does a second pool-less run. *)
let store_workload ?pool ~seed () =
  let metrics, rng, can, store, purge_log = drive ?pool ~seed ~sweep:Store.sweep_expired () in
  ignore (Can_overlay.join can 48 (Point.random rng 2));
  Store.rehost store;
  let g name v = Metrics.set (Metrics.gauge metrics name) v in
  g "avg_entries" (Store.avg_entries_per_node store);
  g "hosting_mean" (Store.hosting_stats store).Prelude.Stats.mean;
  (Json.to_string (Metrics.to_json metrics), purge_log)

let qcheck_store_pool_identity =
  QCheck.Test.make ~name:"store: pool of 4 is byte-identical to no pool, and replays" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let reference = store_workload ~seed () in
      store_workload ~pool:(Engine.Dpool.get ~domains:4) ~seed () = reference
      && store_workload ~seed () = reference)

(* ---- Sim (time, seq) merge order ---- *)

let test_same_instant_merge_order () =
  (* Several events land on the same timestamp, interleaved with later
     ones; firing order must be exactly the scheduling (seq) order within
     an instant, regardless of scheduling interleaving. *)
  let sim = Sim.create () in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore (Sim.schedule_at sim 50.0 (note "t50/a"));
  ignore (Sim.schedule_at sim 10.0 (note "t10/a"));
  ignore (Sim.schedule_at sim 50.0 (note "t50/b"));
  ignore (Sim.schedule_at sim 10.0 (note "t10/b"));
  ignore (Sim.schedule_at sim 50.0 (note "t50/c"));
  Alcotest.(check (option (float 0.0))) "next_time sees the earliest instant" (Some 10.0)
    (Sim.next_time sim);
  Sim.run sim;
  Alcotest.(check (list string)) "(time, seq) total order"
    [ "t10/a"; "t10/b"; "t50/a"; "t50/b"; "t50/c" ]
    (List.rev !fired)

let test_merge_order_from_handlers () =
  (* Effects published from inside a same-instant handler (delay 0) are
     sequenced after every event already queued at that instant. *)
  let sim = Sim.create () in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore
    (Sim.schedule_at sim 5.0 (fun () ->
         fired := "first" :: !fired;
         ignore (Sim.schedule sim ~delay:0.0 (note "followup"))));
  ignore (Sim.schedule_at sim 5.0 (note "second"));
  Sim.run sim;
  Alcotest.(check (list string)) "zero-delay effects merge after queued peers"
    [ "first"; "second"; "followup" ]
    (List.rev !fired);
  Alcotest.(check (option (float 0.0))) "drained" None (Sim.next_time sim)

(* The Sim cases keep indices 6 and 7, and the two pool cases 8 and 9:
   the cases before them fill the slots of the retired pool cases. *)
let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_sweep_is_shard_sweeps;
    Alcotest.test_case "store: host counts = the per-member entries_at_host fold" `Quick
      test_host_counts_fold;
    Alcotest.test_case "store: a second due record of a purged entry is skipped" `Quick
      test_second_due_record_skipped;
    Alcotest.test_case "builder: config.domains moves no metric" `Quick test_builder_domains_inert;
    Alcotest.test_case "store: sweep_expired emits one Ttl_sweep span" `Quick test_sweep_spans;
    QCheck_alcotest.to_alcotest qcheck_host_counts_churn;
    Alcotest.test_case "sim merges same-instant events by seq" `Quick
      test_same_instant_merge_order;
    Alcotest.test_case "sim zero-delay effects merge last" `Quick test_merge_order_from_handlers;
    QCheck_alcotest.to_alcotest qcheck_store_pool_identity;
    QCheck_alcotest.to_alcotest qcheck_probe_submission_order;
  ]
