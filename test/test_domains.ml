(* Domain-parallel hosting (DESIGN.md §12): the Dpool primitive's
   ordering guarantees, the Sim (time, seq) merge order that anchors the
   determinism contract, byte-identity of the store and of whole
   experiments across pool sizes, and a probe plane that stays on the
   calling domain whatever pool it is given. *)

module Dpool = Engine.Dpool
module Sim = Engine.Sim
module Metrics = Engine.Metrics
module Probe = Engine.Probe
module Faults = Engine.Faults
module Store = Softstate.Store
module Can_overlay = Can.Overlay
module Number = Landmark.Number
module Point = Geometry.Point
module Rng = Prelude.Rng
module Json = Prelude.Json

(* ---- Dpool primitive ---- *)

let test_run_task_order () =
  let pool = Dpool.get ~domains:3 in
  let out = Dpool.run pool 20 (fun i -> i * i) in
  Alcotest.(check (array int)) "results in task order"
    (Array.init 20 (fun i -> i * i))
    out;
  Alcotest.(check (array int)) "empty batch" [||] (Dpool.run pool 0 (fun i -> i))

let test_run_exception_lowest_index () =
  let pool = Dpool.get ~domains:3 in
  let boom i = if i = 7 || i = 11 then failwith (string_of_int i) else i in
  (match Dpool.run pool 16 boom with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    Alcotest.(check string) "lowest failing index wins" "7" msg);
  (* The pool survives a failed batch. *)
  Alcotest.(check (array int)) "pool still serves batches"
    (Array.init 5 (fun i -> i + 1))
    (Dpool.run pool 5 (fun i -> i + 1))

let test_nested_run_inlines () =
  let pool = Dpool.get ~domains:3 in
  (* A task that dispatches again must not deadlock: nested batches run
     inline on the worker. *)
  let out =
    Dpool.run pool 6 (fun i -> Array.fold_left ( + ) 0 (Dpool.run pool 4 (fun j -> (i * 10) + j)))
  in
  Alcotest.(check (array int)) "nested dispatch degrades to inline"
    (Array.init 6 (fun i -> (i * 40) + 6))
    out

let test_env_default () =
  let original = Sys.getenv_opt "TOPOAWARE_DOMAINS" in
  let restore () =
    Unix.putenv "TOPOAWARE_DOMAINS" (match original with Some v -> v | None -> "")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "TOPOAWARE_DOMAINS" "4";
      Alcotest.(check int) "env selects the pool size" 4 (Dpool.size (Dpool.default ()));
      Unix.putenv "TOPOAWARE_DOMAINS" "garbage";
      Alcotest.(check int) "unparsable env falls back to 1" 1 (Dpool.size (Dpool.default ()));
      Unix.putenv "TOPOAWARE_DOMAINS" "0";
      Alcotest.(check int) "out-of-range env falls back to 1" 1 (Dpool.size (Dpool.default ()));
      Unix.putenv "TOPOAWARE_DOMAINS" "4";
      let pinned = Dpool.get ~domains:2 in
      Dpool.set_default (Some pinned);
      Fun.protect
        ~finally:(fun () -> Dpool.set_default None)
        (fun () ->
          Alcotest.(check int) "set_default overrides the env" 2
            (Dpool.size (Dpool.default ()))))

(* A CI leg sets TOPOAWARE_DOMAINS; a value [default] cannot use would
   silently fall back to 1 and turn a multi-domain leg into a second
   single-domain one. *)
let test_env_leg () =
  match Sys.getenv_opt "TOPOAWARE_DOMAINS" with
  | None | Some "" -> ()
  | Some v ->
    Alcotest.(check (option int))
      "the ambient pool has TOPOAWARE_DOMAINS domains"
      (int_of_string_opt (String.trim v))
      (Some (Dpool.size (Dpool.default ())))

let test_interning () =
  Alcotest.(check bool) "same size interns to the same pool" true
    (Dpool.get ~domains:3 == Dpool.get ~domains:3)

(* ---- Sim (time, seq) merge order ---- *)

let test_same_instant_merge_order () =
  (* Model the coordinator merging cross-shard effects: several events
     land on the same timestamp, interleaved with later ones; firing
     order must be exactly the scheduling (seq) order within an instant,
     regardless of scheduling interleaving. *)
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

(* ---- store byte-identity across pool sizes ---- *)

let vector_of node = Array.init 5 (fun i -> float_of_int ((node * ((7 * i) + 3)) mod 400))
let region_of p = [| p land 1; (p lsr 1) land 1; (p lsr 2) land 1 |]

(* Seeded store workload mirroring the maintenance plane's hot paths;
   returns the rendered metrics JSON plus the purge log. *)
let store_workload ~seed ~pool =
  let metrics = Metrics.create () in
  let rng = Rng.create seed in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to 47 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let clock = ref 0.0 in
  let store =
    Store.create ~metrics ~pool ~shards:8 ~default_ttl:2_000.0
      ~clock:(fun () -> !clock)
      ~scheme:(Number.default_scheme ~max_latency:400.0 ())
      can
  in
  let purge_log = ref [] in
  for b = 0 to 9 do
    clock := float_of_int b *. 700.0;
    for p = 0 to 15 do
      let node = 1_000 + (b * 16) + p in
      Store.publish store ~region:(region_of p) ~node ~vector:(vector_of node)
    done;
    (* Refresh a seeded random slice of the previous burst. *)
    if b > 0 then
      for p = 0 to 15 do
        if Rng.chance rng 0.3 then
          ignore (Store.refresh store ~region:(region_of p) ~node:(1_000 + ((b - 1) * 16) + p))
      done;
    let purged = Store.sweep_expired store in
    purge_log :=
      List.map (fun (region, (e : Store.Entry.t)) -> (region, e.Store.Entry.node)) purged
      :: !purge_log
  done;
  ignore (Can_overlay.join can 48 (Point.random rng 2));
  Store.rehost store;
  let g name v = Metrics.set (Metrics.gauge metrics name) v in
  g "avg_entries" (Store.avg_entries_per_node store);
  g "hosting_mean" (Store.hosting_stats store).Prelude.Stats.mean;
  (match Store.check_invariants store with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("store invariants: " ^ e));
  (Json.to_string (Metrics.to_json metrics), List.rev !purge_log)

(* Between batches the coordinator owns every shard, so a single-shard
   sweep scans on the calling domain: on a 4-domain pool, sweeping every
   shard purges exactly what a 1-domain store purges, and the dispatch
   counters do not move. *)
let test_sweep_shard_inline () =
  let sweep_every_shard pool =
    let metrics = Metrics.create () in
    let rng = Rng.create 17 in
    let can = Can_overlay.create ~dims:2 0 in
    for id = 1 to 47 do
      ignore (Can_overlay.join can id (Point.random rng 2))
    done;
    let clock = ref 0.0 in
    let store =
      Store.create ~metrics ~pool ~shards:8 ~default_ttl:2_000.0
        ~clock:(fun () -> !clock)
        ~scheme:(Number.default_scheme ~max_latency:400.0 ())
        can
    in
    for p = 0 to 63 do
      clock := float_of_int p *. 50.0;
      Store.publish store ~region:(region_of p) ~node:(1_000 + p) ~vector:(vector_of (1_000 + p))
    done;
    clock := 4_000.0;
    let dispatches () =
      ( Metrics.count (Metrics.counter metrics "domain_batches"),
        Metrics.count (Metrics.counter metrics "domain_tasks") )
    in
    let before = dispatches () in
    let purged =
      List.init (Store.shard_count store) (fun i ->
          List.map
            (fun (region, (e : Store.Entry.t)) -> (region, e.Store.Entry.node))
            (Store.sweep_shard store i))
    in
    Alcotest.(check (pair int int)) "sweep_shard dispatches nothing" before (dispatches ());
    purged
  in
  let purged1 = sweep_every_shard (Dpool.get ~domains:1) in
  let purged4 = sweep_every_shard (Dpool.get ~domains:4) in
  Alcotest.(check bool) "some entries expired" true (List.exists (fun l -> l <> []) purged4);
  Alcotest.(check (list (list (pair (array int) int))))
    "4 domains purge what 1 domain purges" purged1 purged4

let qcheck_store_pool_identity =
  QCheck.Test.make ~name:"store: pool of 4 is byte-identical to pool of 1" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let json1, purges1 = store_workload ~seed ~pool:(Dpool.get ~domains:1) in
      let json4, purges4 = store_workload ~seed ~pool:(Dpool.get ~domains:4) in
      json1 = json4 && purges1 = purges4)

(* ---- the probe plane stays on the calling domain ---- *)

let with_default_pool ~domains f =
  Dpool.set_default (Some (Dpool.get ~domains));
  Fun.protect ~finally:(fun () -> Dpool.set_default None) f

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

let qcheck_probe_calling_domain =
  (* A 4-domain pool, passed as [~pool] or only installed as the ambient
     default, must leave every measurement on the calling domain, in
     submission order, with the results, counters, spans and call log of
     a pool-less prober. *)
  QCheck.Test.make ~name:"probe: a pool leaves measurements on the calling domain" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 1 24))
    (fun (seed, batchlen) ->
      let caller = Domain.self () in
      let config =
        { Probe.window = 3; timeout = 80.0; retries = 2; cache_ttl = 500.0 }
      in
      let run pool =
        let calls = ref [] and off_caller = ref 0 in
        let measure src dst =
          if Domain.self () <> caller then incr off_caller;
          calls := dst :: !calls;
          1.0 +. float_of_int (((src * 31) + (dst * 17)) mod 97)
        in
        let metrics = Metrics.create () and trace = Engine.Trace.create () in
        let faults =
          Faults.create ~channel:{ Faults.loss = 0.15; delay_min = 0.0; delay_max = 30.0 }
            ~seed ()
        in
        let p = Probe.create ~metrics ~trace ?pool ~faults ~config ~measure () in
        let rng = Rng.create (seed + 1) in
        let ordered = ref true in
        let batches =
          List.init 4 (fun b ->
              calls := [];
              let dsts = Array.init batchlen (fun _ -> Rng.int rng 40) in
              let results = (Probe.run_batch p ~src:b ~dsts).Probe.results in
              ordered := !ordered && in_submission_order dsts (List.rev !calls);
              (results, List.rev !calls))
        in
        ( (batches, Probe.probes p, Probe.failures p, Probe.cache_hits p, Probe.cache_misses p,
           Probe.cache_stale p, Probe.total_elapsed p),
          Json.to_string (Metrics.to_json metrics),
          Engine.Trace.spans trace,
          !off_caller,
          !ordered )
      in
      let reference = run None in
      let passed = with_default_pool ~domains:4 (fun () -> run (Some (Dpool.get ~domains:4))) in
      let ambient = with_default_pool ~domains:4 (fun () -> run None) in
      let _, _, _, off_caller, ordered = reference in
      off_caller = 0 && ordered && passed = reference && ambient = reference)

(* ---- whole experiments across pool sizes ---- *)

let experiment_json name =
  Metrics.reset Metrics.global;
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  (match Workload.Registry.find name with
  | Some e -> e.Workload.Registry.run ~scale:16 ppf
  | None -> Alcotest.fail ("unknown experiment " ^ name));
  Format.pp_print_flush ppf ();
  let json = Json.to_string (Metrics.to_json Metrics.global) in
  Metrics.reset Metrics.global;
  json

let qcheck_experiment_pool_identity =
  QCheck.Test.make ~name:"experiments: domains=4 metrics JSON equals domains=1" ~count:3
    QCheck.(oneofl [ "storm"; "churn"; "cache" ])
    (fun name ->
      let j1 = with_default_pool ~domains:1 (fun () -> experiment_json name) in
      let j4 = with_default_pool ~domains:4 (fun () -> experiment_json name) in
      if j1 <> j4 then QCheck.Test.fail_reportf "%s diverged across pool sizes" name;
      true)

let suite =
  [
    Alcotest.test_case "dpool run keeps task order" `Quick test_run_task_order;
    Alcotest.test_case "dpool raises the lowest-index error" `Quick
      test_run_exception_lowest_index;
    Alcotest.test_case "dpool nested run degrades inline" `Quick test_nested_run_inlines;
    Alcotest.test_case "store: sweep_shard dispatches nothing" `Quick test_sweep_shard_inline;
    Alcotest.test_case "dpool default obeys TOPOAWARE_DOMAINS" `Quick test_env_default;
    Alcotest.test_case "dpool interns by size" `Quick test_interning;
    Alcotest.test_case "sim merges same-instant events by seq" `Quick
      test_same_instant_merge_order;
    Alcotest.test_case "sim zero-delay effects merge last" `Quick test_merge_order_from_handlers;
    QCheck_alcotest.to_alcotest qcheck_store_pool_identity;
    QCheck_alcotest.to_alcotest qcheck_probe_calling_domain;
    QCheck_alcotest.to_alcotest qcheck_experiment_pool_identity;
    Alcotest.test_case "dpool default is the TOPOAWARE_DOMAINS leg" `Quick test_env_leg;
  ]
