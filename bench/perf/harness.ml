(* What the three workloads share: the physical network, output checks,
   timed sections, the replay that splits [Builder.build] into its layers,
   and the per-layer metric table every traced run prints. *)

module Ts = Topology.Transit_stub
module Oracle = Topology.Oracle
module Builder = Core.Builder
module Strategy = Core.Strategy
module Metrics = Engine.Metrics
module Probe = Engine.Probe
module Store = Softstate.Store
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Landmarks = Landmark.Landmarks
module Rng = Prelude.Rng

type size = Full | Smoke

(* One domain whatever TOPOAWARE_DOMAINS says: on a 2-vCPU machine a
   second domain added spread and no speed (see README.md). *)
let pool = Engine.Dpool.get ~domains:1

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let failed_checks = ref 0

let fail check =
  incr failed_checks;
  Printf.eprintf "perf: %s: %s\n%!" !workload check

let require check = function Ok () -> () | Error m -> fail (check ^ ": " ^ m)

(* ------------------------------------------------------------------ *)
(* Counts gathered during traced reps                                   *)
(* ------------------------------------------------------------------ *)

let tally : (string, float) Hashtbl.t = Hashtbl.create 64
let get name = Option.value ~default:0.0 (Hashtbl.find_opt tally name)
let add name v = Hashtbl.replace tally name (get name +. v)
let add_int name v = add name (float_of_int v)
let raise_to name v = if v > get name then Hashtbl.replace tally name v

(* Registry counters a traced rep adds to [tally].  They are interned by
   name rather than read from [Metrics.snapshot], which summarizes every
   histogram (hundreds of thousands of probe samples per rep). *)
let tallied =
  [
    "store_publishes"; "store_refreshes"; "store_expired"; "store_sweep_visited";
    "domain_batches"; "domain_tasks"; "probe_submitted"; "probe_measured"; "probe_cache_hits";
    "probe_cache_misses"; "notify_sent"; "notify_delivered"; "notify_dropped";
    "maintenance_reselections"; "maintenance_refreshes"; "sim_events_cancelled"; "cache_hits";
    "cache_misses"; "cache_replications"; "cache_sheds"; "cache_failovers";
  ]

let counters registry =
  List.map (fun name -> (name, Metrics.count (Metrics.counter registry name))) tallied

(* Overlay routes counted by the CAN and eCAN layers of a registry. *)
let routes registry name =
  List.fold_left
    (fun acc overlay ->
      acc + Metrics.count (Metrics.counter registry ~labels:[ ("overlay", overlay) ] name))
    0 [ "can"; "ecan" ]

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)
(* ------------------------------------------------------------------ *)

(* Shared virtual machines slow down and speed up with their neighbours'
   load.  On a shared 2-vCPU KVM guest, raw rep times drifted by 37-55%
   within 150 s, while their ratio to a fixed reference kernel timed
   beside them drifted by 7-10% (README.md).  So the end-to-end times are
   reported as that ratio, in seconds of a machine on which the kernel
   takes [nominal_ref_ns].  The kernel uses the Stdlib only — hash-table
   inserts and lookups, short-lived lists, a sort and a balanced-tree
   build — so no change to the libraries moves it. *)
module Int_map = Map.Make (Int)

let reference_kernel () =
  let h = Hashtbl.create 16 in
  for i = 1 to 100_000 do
    Hashtbl.replace h ((i * 7919) land 0xFFFFF) [ i; i + 1 ]
  done;
  let s = ref 0 in
  for i = 1 to 200_000 do
    match Hashtbl.find_opt h (i land 0xFFFFF) with Some l -> s := !s + List.length l | None -> ()
  done;
  let a = Array.init 150_000 (fun i -> (i * 7919) land 0xFFFFF) in
  Array.sort compare a;
  let m =
    Array.fold_left (fun m x -> if x land 7 = 0 then Int_map.add x x m else m) Int_map.empty a
  in
  !s + Int_map.cardinal m

let nominal_ref_ns = 100_000_000.0

(* Off in the smoke test, whose toy reps would be dwarfed by the kernel. *)
let calibrate = ref true

let reference_ns () =
  Gc.full_major ();
  if not !calibrate then int_of_float nominal_ref_ns
  else begin
    let t0 = Prof.now_ns () in
    ignore (Sys.opaque_identity (reference_kernel ()));
    Prof.now_ns () - t0
  end

let wall f =
  let t0 = Prof.now_ns () in
  let v = f () in
  (v, Prof.now_ns () - t0)

(* Run [f] between two runs of the reference kernel (each from a
   collected heap); returns its result, its wall time and the kernel's
   mean time. *)
let calibrated f =
  let r0 = reference_ns () in
  let v, ns = wall f in
  let r1 = reference_ns () in
  (v, ns, (r0 + r1) / 2)

let scaled_s ~ns ~ref_ns = float_of_int ns *. nominal_ref_ns /. float_of_int ref_ns /. 1e9

(* ------------------------------------------------------------------ *)
(* Timed sections                                                      *)
(* ------------------------------------------------------------------ *)

type cost = {
  ns : int;
  ref_ns : int;  (* the reference kernel's time beside this section *)
  attributed_ns : int;  (* covered by root spans *)
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
}

let calibrated_s c = scaled_s ~ns:c.ns ~ref_ns:c.ref_ns

(* Time [f] and its allocation.  In a traced rep the registry's counters
   are read on both sides of the window and their growth is added to
   [tally].  [ref_ns] is left for the caller's calibration bracket. *)
let measure ?registry ~traced f =
  let before = match registry with Some r when traced -> counters r | _ -> [] in
  let root_before = !Prof.root_ns in
  let g0 = Gc.quick_stat () in
  let v, ns = wall f in
  let g1 = Gc.quick_stat () in
  let attributed_ns = !Prof.root_ns - root_before in
  (match registry with
  | Some r when traced ->
    List.iter
      (fun (name, n) ->
        add_int name (n - Option.value ~default:0 (List.assoc_opt name before)))
      (counters r)
  | _ -> ());
  ( v,
    {
      ns;
      ref_ns = 0;
      attributed_ns;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* [measure] inside a calibration bracket. *)
let timed ?registry ~traced f =
  let (v, cost), _, ref_ns = calibrated (fun () -> measure ?registry ~traced f) in
  (v, { cost with ref_ns })

(* One rep of a workload: its timed cost, its simulated outputs (which
   every rep must reproduce byte for byte), and its operation counts. *)
type rep = { cost : cost; outputs : string; attempted : int; failed : int }

(* A workload whose cost depends much on its seeded inputs runs several
   [variants] of them — rep [n] runs variant [n mod variants] — so one run
   averages over several memberships and its result moves less from seed
   to seed. *)
type instance = {
  ops_per_rep : int;
  warmups : int;
  variants : int;
  setup_s : unit -> float list;  (* calibrated time of each set-up so far *)
  rep : variant:int -> traced:bool -> rep;
}

(* ------------------------------------------------------------------ *)
(* Layers                                                              *)
(* ------------------------------------------------------------------ *)

let l_topology = Prof.layer "topology.generate"
let l_oracle = Prof.layer "oracle.build"
let l_build = Prof.layer "builder.build"
let l_join = Prof.layer "can.join"
let l_vector = Prof.layer "landmark.vector"
let l_publish = Prof.layer "store.publish"
let l_rehost = Prof.layer "store.rehost"
let l_fill = Prof.layer "ecan.table_fill"
let l_slot = Prof.layer "ecan.slot_select"
let l_lookup = Prof.layer "store.lookup"
let l_batch = Prof.layer "probe.batch"
let l_stretch = Prof.layer "measure.stretch"
let l_request = Prof.layer "cache.request"
let l_route = Prof.layer "ecan.route"
let l_owner = Prof.layer "can.owner_of"
let l_rtt = Prof.layer "probe.rtt"
let l_near = Prof.layer "store.near_lookup"
let l_stats = Prof.layer "store.update_stats"
let l_step = Prof.layer "sim.step"
let l_deliver = Prof.layer "bus.deliver"
let l_refresh = Prof.layer "maint.refresh"
let l_sweep = Prof.layer "store.sweep"
let l_audit = Prof.layer "maint.audit"
let l_poll = Prof.layer "maint.poll"
let l_other = Prof.layer "sim.other"
let l_mjoin = Prof.layer "maint.join"
let l_crash = Prof.layer "maint.crash"
let l_depart = Prof.layer "maint.depart"
let l_expire = Prof.layer "faults.expire"

(* ------------------------------------------------------------------ *)
(* The physical network                                                *)
(* ------------------------------------------------------------------ *)

(* Workload.Ctx's fixed topology seed: the same tsk-large networks the
   paper experiments run on. *)
let topology_seed = 20030519

let network ~tracing size latency =
  let scale = match size with Full -> 1 | Smoke -> 8 in
  let params = Ts.tsk_large ~latency ~scale () in
  let topo =
    Prof.time_if tracing l_topology (fun () -> Ts.generate (Rng.create topology_seed) params)
  in
  Prof.time_if tracing l_oracle (fun () -> Oracle.build topo)

(* Run a set-up [count] times (once in the smoke test), each calibrated;
   the workload keeps the last result and reports the median time. *)
let setups ~size ~count f =
  let count = match size with Full -> count | Smoke -> 1 in
  let times = ref [] and last = ref None in
  for _ = 1 to count do
    let v, ns, ref_ns = calibrated f in
    times := scaled_s ~ns ~ref_ns :: !times;
    last := Some v
  done;
  (Option.get !last, List.rev !times)

(* ------------------------------------------------------------------ *)
(* Splitting Builder.build into its layers                             *)
(* ------------------------------------------------------------------ *)

(* [Builder.build] is one call.  Its phases are replayed here, each
   through its public function, on the built overlay's inputs: joins of
   the same members at the same points into a fresh CAN, landmark vectors
   through a fresh prober, publishes into a fresh store, and the table
   fill with the overlay's own selector wrapped per slot.  The slot
   selector's map lookup and probe batch are then replayed one by one.
   The replay rebuilds [b]'s tables, so [b] must not be used afterwards
   for anything whose outputs are checked. *)
let replay_build (b : Builder.t) =
  let c = b.Builder.config in
  let oracle = b.Builder.oracle in
  (* Builder.build's membership and join points, drawn as it draws them. *)
  let rng = Rng.create c.Builder.seed in
  let member_rng = Rng.split rng in
  let join_rng = Rng.split rng in
  let members =
    Rng.sample member_rng c.Builder.overlay_size (Array.init (Oracle.node_count oracle) Fun.id)
  in
  if members <> b.Builder.members then fail "replay drew another membership than Builder.build";
  let can = Can_overlay.create ~dims:c.Builder.dims members.(0) in
  for i = 1 to Array.length members - 1 do
    let p = Geometry.Point.random join_rng c.Builder.dims in
    ignore (Prof.time l_join (fun () -> Can_overlay.join can members.(i) p))
  done;
  let measure = Oracle.measure oracle in
  let prober = Probe.create ~pool ~config:c.Builder.probe ~measure () in
  Array.iter
    (fun node ->
      ignore (Prof.time l_vector (fun () -> Landmarks.vector_via b.Builder.landmarks prober node)))
    members;
  let store =
    Store.create ~pool ~shards:c.Builder.shards ~condense:c.Builder.condense
      ~default_ttl:c.Builder.ttl ~scheme:b.Builder.scheme (Ecan_exp.can b.Builder.ecan)
  in
  Array.iter
    (fun node ->
      let vector = Builder.vector_of b node in
      Prof.time l_publish (fun () ->
          Store.publish_all store ~span_bits:c.Builder.span_bits ~node ~vector))
    members;
  (* Rehosting recomputes every entry's host, whatever moved, so its cost
     on the built overlay is its cost after any membership change. *)
  for _ = 1 to 8 do
    Prof.time l_rehost (fun () -> Store.rehost store)
  done;
  let select = Builder.selector b c.Builder.strategy in
  let slots = ref [] in
  Prof.time l_fill (fun () ->
      Ecan_exp.build_tables b.Builder.ecan ~selector:(fun ~node ~region ~candidates ->
          slots := (node, region) :: !slots;
          Prof.time l_slot (fun () -> select ~node ~region ~candidates)));
  match c.Builder.strategy with
  | Strategy.Hybrid { rtts; lookup_results; lookup_ttl }
  | Strategy.Load_aware { rtts; lookup_results; lookup_ttl; _ } ->
    let prober = Probe.create ~pool ~config:c.Builder.probe ~measure () in
    List.iter
      (fun (node, region) ->
        let vector = Builder.vector_of b node in
        let entries =
          Prof.time l_lookup (fun () ->
              Store.lookup b.Builder.store ~region ~vector ~max_results:lookup_results
                ~ttl:lookup_ttl ())
        in
        let dsts =
          entries
          |> List.filter (fun (e : Store.Entry.t) -> e.Store.Entry.node <> node)
          |> List.filteri (fun i _ -> i < rtts)
          |> List.map (fun (e : Store.Entry.t) -> e.Store.Entry.node)
          |> Array.of_list
        in
        if Array.length dsts > 0 then
          ignore (Prof.time l_batch (fun () -> Probe.run_batch prober ~src:node ~dsts)))
      (List.rev !slots)
  | Strategy.Random_pick | Strategy.Optimal -> ()

(* A throwaway build of the same configuration, timed and replayed: how a
   workload whose reps do not build overlays reports the build layers. *)
let replay_fresh oracle config =
  let b = Prof.time l_build (fun () -> Builder.build oracle config) in
  replay_build b

(* ------------------------------------------------------------------ *)
(* The per-layer table                                                 *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Every per-layer metric, in BENCHMARK.json order.  Build-pipeline
   layers are per overlay build, topology layers per network build, and
   the rest per traced rep; a layer a workload never enters reads 0. *)
let layer_metrics ~(plain : cost list) ~(traced : cost list) ~plain_ops_per_s ~traced_ops_per_s
    ~ops_per_rep =
  let reps = List.length traced in
  let per_rep x = x /. float_of_int (max 1 reps) in
  let builds = float_of_int (max 1 (Prof.calls l_build)) in
  let per_build x = x /. builds in
  let networks = float_of_int (max 1 (Prof.calls l_topology)) in
  let t = Prof.total_s and c l = float_of_int (Prof.calls l) in
  let p50 l = Prof.percentile_us l 50.0 and p99 l = Prof.percentile_us l 99.0 in
  let sum costs f = List.fold_left (fun acc x -> acc +. f x) 0.0 costs in
  (* GC counts come from the untraced reps, which run no span code. *)
  let gc f = sum plain f in
  let ops = float_of_int (ops_per_rep * List.length plain) in
  let membership = [ l_mjoin; l_crash; l_depart ] in
  [
    ("topology.generate_s", t l_topology /. networks);
    ("oracle.build_s", t l_oracle /. networks);
    ("oracle.measure_calls", per_rep (get "oracle_measure_calls"));
    ("oracle.dist_calls", per_rep (get "oracle_dist_calls"));
    ("builder.build_s", per_build (t l_build));
    ( "builder.residual_s",
      per_build (t l_build -. t l_join -. t l_vector -. t l_publish -. t l_fill) );
    ("can.join_s", per_build (t l_join));
    ("can.join_us_p50", p50 l_join);
    ("can.join_us_p99", p99 l_join);
    ("can.join_calls", per_build (c l_join));
    ("landmark.vectors_s", per_build (t l_vector));
    ("landmark.vector_us_p50", p50 l_vector);
    ("store.publish_s", per_build (t l_publish));
    ("store.publish_us_p50", p50 l_publish);
    ("store.rehost_us_p50", p50 l_rehost);
    ("ecan.table_fill_s", per_build (t l_fill));
    ("ecan.slot_select_us_p50", p50 l_slot);
    ("ecan.slot_select_us_p99", p99 l_slot);
    ("ecan.slot_selects", per_build (c l_slot));
    ("store.lookup_us_p50", p50 l_lookup);
    ("store.lookup_us_p99", p99 l_lookup);
    ("store.lookup_calls", per_build (c l_lookup));
    ("store.lookup_words_per_call", Prof.words_per_call l_lookup);
    ("probe.batch_us_p50", p50 l_batch);
    ("probe.batch_calls", per_build (c l_batch));
    ("measure.stretch_s", per_rep (t l_stretch));
    ("cache.request_us_p50", p50 l_request);
    ("cache.request_us_p99", p99 l_request);
    ("cache.self_s", per_rep (Prof.self_s l_request));
    ("cache.request_words_per_call", Prof.words_per_call l_request);
    ("cache.hits", per_rep (get "cache_hits"));
    ("cache.misses", per_rep (get "cache_misses"));
    ("cache.replications", per_rep (get "cache_replications"));
    ("cache.sheds", per_rep (get "cache_sheds"));
    ("cache.failovers", per_rep (get "cache_failovers"));
    ("ecan.route_s", per_rep (t l_route));
    ("ecan.route_us_p50", p50 l_route);
    ("ecan.route_us_p99", p99 l_route);
    ("ecan.route_calls", per_rep (c l_route));
    ("ecan.route_hops_mean", ratio (get "ecan_route_hops") (c l_route));
    ("ecan.route_words_per_call", Prof.words_per_call l_route);
    ("can.owner_of_s", per_rep (t l_owner));
    ("can.owner_of_us_p50", p50 l_owner);
    ("can.owner_of_calls", per_rep (c l_owner));
    ("probe.rtt_s", per_rep (t l_rtt));
    ("probe.rtt_us_p50", p50 l_rtt);
    ("probe.rtt_calls", per_rep (c l_rtt));
    ("probe.submitted", per_rep (get "probe_submitted"));
    ("probe.measured", per_rep (get "probe_measured"));
    ( "probe.cache_hit_ratio",
      ratio (get "probe_cache_hits") (get "probe_cache_hits" +. get "probe_cache_misses") );
    ("store.near_lookup_s", per_rep (t l_near));
    ("store.near_lookup_calls", per_rep (c l_near));
    ("store.update_stats_s", per_rep (t l_stats));
    ("store.update_stats_calls", per_rep (c l_stats));
    ("store.publishes", per_rep (get "store_publishes"));
    ("store.refreshes", per_rep (get "store_refreshes"));
    ("store.expired", per_rep (get "store_expired"));
    ("store.sweep_visited", per_rep (get "store_sweep_visited"));
    ("store.sweep_yield", ratio (get "store_expired") (get "store_sweep_visited"));
    ("store.sweep_s", per_rep (t l_sweep));
    ("sim.events", per_rep (c l_step));
    ("sim.cancelled", per_rep (get "sim_events_cancelled"));
    ("sim.step_us_p50", p50 l_step);
    ("sim.step_us_p99", p99 l_step);
    ("sim.queue_depth_max", get "sim_queue_depth_max");
    ("sim.other_s", per_rep (t l_other));
    ("bus.deliver_s", per_rep (t l_deliver));
    ("bus.notify_sent", per_rep (get "notify_sent"));
    ("bus.notify_delivered", per_rep (get "notify_delivered"));
    ("bus.notify_dropped", per_rep (get "notify_dropped"));
    ("bus.reselect_yield", ratio (get "maintenance_reselections") (get "notify_delivered"));
    ("maint.refresh_s", per_rep (t l_refresh));
    ("maint.audit_s", per_rep (t l_audit));
    ("maint.poll_s", per_rep (t l_poll));
    ("maint.membership_s", per_rep (List.fold_left (fun acc l -> acc +. t l) 0.0 membership));
    ("maint.join_us_p50", p50 l_mjoin);
    ("maint.join_us_p99", p99 l_mjoin);
    ("maint.crash_us_p50", p50 l_crash);
    ("maint.depart_us_p50", p50 l_depart);
    ("maint.reselections", per_rep (get "maintenance_reselections"));
    ("maint.refreshes", per_rep (get "maintenance_refreshes"));
    ("faults.expire_s", per_rep (t l_expire));
    ("faults.perturb_calls", per_rep (get "faults_perturb_calls"));
    ("dpool.batches", per_rep (get "domain_batches"));
    ("dpool.tasks", per_rep (get "domain_tasks"));
    ("gc.minor_words_per_op", ratio (gc (fun k -> k.minor_words)) ops);
    ("gc.promoted_words_per_op", ratio (gc (fun k -> k.promoted_words)) ops);
    ( "gc.minor_collections",
      ratio (gc (fun k -> float_of_int k.minor_gcs)) (float_of_int (List.length plain)) );
    ( "gc.major_collections",
      ratio (gc (fun k -> float_of_int k.major_gcs)) (float_of_int (List.length plain)) );
    ( "gc.top_heap_mb",
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0 );
    ( "calib.reference_s",
      Prelude.Stats.percentile
        (Array.of_list (List.map (fun k -> float_of_int k.ref_ns /. 1e9) (plain @ traced)))
        50.0 );
    ("trace.overhead_frac", 1.0 -. ratio traced_ops_per_s plain_ops_per_s);
    ( "trace.unattributed_frac",
      1.0
      -. ratio
           (sum traced (fun k -> float_of_int k.attributed_ns))
           (sum traced (fun k -> float_of_int k.ns)) );
  ]
