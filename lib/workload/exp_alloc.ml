(* Allocation microbench: exact [Gc.minor_words] budgets for the
   simulation hot paths.

   Each op is warmed up once (fixture laziness, first-call memoization)
   and then run a fixed number of times with the minor-allocation
   counter read immediately around the measured calls only — fixture
   rebuilding between measured windows is excluded.  Minor-word counts
   are a pure function of the allocations the measured code performs, so
   for a seeded workload they are exactly reproducible and
   [bench/compare.exe] holds them to exact integer equality (its
   allocation-budget section).

   The budgets are words per op, truncated: [alloc_minor_words_per_route]
   (one eCAN expressway route), [alloc_minor_words_per_can_route] (one
   greedy CAN route, as [Store.lookup_route] issues it),
   [alloc_minor_words_per_rtt_hit] (one [Probe.rtt] served from a fresh
   RTT cache entry, metrics on), [alloc_minor_words_per_sweep] (one TTL
   sweep purging a 64-entry burst), [alloc_minor_words_per_sssp] (one
   single-source shortest-path run of the kind [Oracle.build] issues in
   a loop), [alloc_minor_words_per_lookup] (one Table 1 soft-state
   lookup, the per-slot read of a table fill),
   [alloc_minor_words_per_join] (one CAN join into a 256-member
   overlay), [alloc_minor_words_per_rehost] (one [Store.rehost] after
   such a join, every member published) and
   [alloc_minor_words_per_resubscribe] (one [Bus.unsubscribe] plus one
   [Bus.subscribe] in a region with 256 subscribers),
   [alloc_minor_words_per_slot_select] (one table-fill slot: the
   region's [Can.Overlay.members_with_prefix] plus one Hybrid
   [Builder.selector] call on a published 256-member build),
   [alloc_minor_words_per_fill_slot] (one slot of a whole Hybrid
   [Builder.rebuild_tables] on that build: the fill's words over the
   slots it selects) and [alloc_minor_words_per_leave] (one [Maintenance.node_departs] on a
   256-member build with every slot watched).  Counts are
   toolchain-sensitive: regenerate the baselines after a compiler upgrade
   (see EXPERIMENTS.md). *)

module Ts = Topology.Transit_stub
module Graph = Topology.Graph
module Dijkstra = Topology.Dijkstra
module Oracle = Topology.Oracle
module Builder = Core.Builder
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Store = Softstate.Store
module Bus = Pubsub.Bus
module Number = Landmark.Number
module Point = Geometry.Point
module Zone = Geometry.Zone
module Rng = Prelude.Rng
module Metrics = Engine.Metrics

let substrate = 256 (* CAN members for the route / sweep fixtures *)
let route_samples = 64 (* distinct seeded (src, point) route queries *)
let route_runs = 256
let sweep_rounds = 16
let sweep_burst = 64 (* entries expiring per measured sweep *)
let sweep_ttl = 1_000.0
let sssp_runs = 64
let lookup_samples = 64 (* distinct seeded query vectors *)
let lookup_runs = 256
let join_rounds = 16 (* fresh 256-member CANs, one measured join each *)
let rehost_rounds = 16 (* fresh published stores, one measured rehost each *)
let resubscribe_runs = 1024
let rtt_pairs = 64 (* distinct cached (src, dst) pairs *)
let rtt_runs = 1024
let slot_samples = 64 (* distinct seeded (node, region) table slots *)
let slot_runs = 256
let fill_runs = 4 (* whole Hybrid table fills of the slot fixture *)
let leave_rounds = 4 (* fresh maintained builds, one measured departure each *)
let cache_keys = 64 (* keys, each fetched once before the measured window *)
let cache_samples = 64 (* distinct seeded (client, key) requests *)
let cache_runs = 256

let vector_of node = Array.init 5 (fun i -> float_of_int ((node * ((7 * i) + 3)) mod 400))

(* Words allocated per call, truncated.  [f] must be side-effect-stable
   across repetitions (same allocation profile every call). *)
let words_per_op ~runs f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    f ()
  done;
  int_of_float (Gc.minor_words () -. before) / runs

(* A [substrate]-member 2-d CAN joined at seeded random points. *)
let substrate_can seed =
  let rng = Rng.create seed in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to substrate - 1 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  can

(* The route fixture: an expressway with seeded random tables over the
   [substrate] CAN. *)
let route_fixture () =
  let can = substrate_can 31 in
  let e = Ecan_exp.create ~span_bits:2 can in
  let sel = Rng.create 32 in
  Ecan_exp.build_tables e ~selector:(fun ~node:_ ~region:_ ~candidates ->
      Some (Rng.pick sel candidates));
  e

let route_op () =
  let e = route_fixture () in
  let members = Can_overlay.node_ids (Ecan_exp.can e) in
  let qrng = Rng.create 33 in
  let queries =
    Array.init route_samples (fun _ -> (Rng.pick qrng members, Point.random qrng 2))
  in
  let cursor = ref 0 in
  words_per_op ~runs:route_runs (fun () ->
      let src, point = queries.(!cursor mod route_samples) in
      incr cursor;
      ignore (Ecan_exp.route e ~src point))

(* A cache with metrics on the route fixture: each key homes at the
   owner of a seeded point, a copy is reached by an expressway route to
   its holder's zone centre, and every key is fetched once before the
   measured window, so each measured request is a hit on its one copy. *)
let cache_request_op () =
  let e = route_fixture () in
  let can = Ecan_exp.can e in
  let krng = Rng.create 132 in
  let homes = Array.init cache_keys (fun _ -> Can_overlay.owner_of can (Point.random krng 2)) in
  let centres =
    Array.init substrate (fun id -> Zone.center (Can_overlay.node can id).Can_overlay.zone)
  in
  let backend =
    {
      Engine.Cache.name = "ecan";
      member = Can_overlay.mem can;
      home_of = (fun key -> homes.(key));
      route_to = (fun ~src ~dst -> Ecan_exp.route e ~src centres.(dst));
      near = (fun ~node:_ ~exclude:_ -> None);
      publish_load = (fun ~node:_ ~load:_ -> ());
    }
  in
  let cache =
    Engine.Cache.create ~metrics:(Metrics.create ())
      ~link:(fun u v -> float_of_int (1 + (((u * 7) + v) mod 50)))
      backend
  in
  let members = Can_overlay.node_ids can in
  let requests =
    Array.init cache_samples (fun _ -> (Rng.pick krng members, Rng.int krng cache_keys))
  in
  for key = 0 to cache_keys - 1 do
    ignore (Engine.Cache.request cache ~client:members.(0) ~key)
  done;
  let cursor = ref 0 in
  words_per_op ~runs:cache_runs (fun () ->
      let client, key = requests.(!cursor mod cache_samples) in
      incr cursor;
      ignore (Engine.Cache.request cache ~client ~key))

(* The lookup fixture's store; each query routes from a seeded member to
   the map host of a seeded vector in a seeded region. *)
let can_route_op () =
  let can = substrate_can 91 in
  let store =
    Store.create ~scheme:(Number.default_scheme ~max_latency:400.0 ()) can
  in
  for node = 0 to substrate - 1 do
    Store.publish_all store ~span_bits:2 ~node ~vector:(vector_of node)
  done;
  let members = Can_overlay.node_ids can in
  let qrng = Rng.create 92 in
  let regions = [| [||]; [| 0; 1 |]; [| 1; 1; 0; 1 |] |] in
  let queries =
    Array.init route_samples (fun _ ->
        ( Rng.pick qrng members,
          Rng.pick qrng regions,
          Array.init 5 (fun _ -> Rng.float qrng 400.0) ))
  in
  let cursor = ref 0 in
  words_per_op ~runs:route_runs (fun () ->
      let from, region, vector = queries.(!cursor mod route_samples) in
      incr cursor;
      ignore (Store.lookup_route store ~from ~region ~vector))

(* A prober with metrics and a never-expiring RTT cache, every pair
   measured once before the measured window, so each measured call is a
   fresh hit. *)
let rtt_hit_op () =
  let prober =
    Engine.Probe.create ~metrics:(Metrics.create ())
      ~config:{ Engine.Probe.default_config with Engine.Probe.cache_ttl = infinity }
      ~measure:(fun src dst -> float_of_int (1 + ((src * 7) + dst) mod 50))
      ()
  in
  let prng = Rng.create 102 in
  let pairs = Array.init rtt_pairs (fun _ -> (Rng.int prng substrate, Rng.int prng substrate)) in
  Array.iter (fun (src, dst) -> ignore (Engine.Probe.rtt prober ~src ~dst)) pairs;
  let cursor = ref 0 in
  words_per_op ~runs:rtt_runs (fun () ->
      let src, dst = pairs.(!cursor mod rtt_pairs) in
      incr cursor;
      ignore (Engine.Probe.rtt prober ~src ~dst))

let sweep_op () =
  let can = substrate_can 41 in
  let clock = ref 0.0 in
  let store =
    Store.create ~shards:4 ~default_ttl:sweep_ttl
      ~clock:(fun () -> !clock)
      ~scheme:(Number.default_scheme ~max_latency:400.0 ())
      can
  in
  (* Warm-up burst: first sweep pays one-time map/heap growth. *)
  let publish_burst base =
    for p = 0 to sweep_burst - 1 do
      Store.publish store ~region:[||] ~node:(base + p) ~vector:(vector_of (base + p))
    done
  in
  publish_burst 10_000;
  clock := 2.0 *. sweep_ttl;
  ignore (Store.sweep_expired store);
  let total = ref 0.0 in
  for round = 1 to sweep_rounds do
    publish_burst (10_000 + (round * sweep_burst));
    clock := !clock +. (2.0 *. sweep_ttl);
    let before = Gc.minor_words () in
    ignore (Store.sweep_expired store);
    total := !total +. (Gc.minor_words () -. before)
  done;
  int_of_float !total / sweep_rounds

(* The 432-node transit-stub topology of the SSSP and slot fixtures. *)
let small_topology () = Ts.generate (Rng.create 7) (Ts.tsk_large ~latency:Ts.Manual ~scale:16 ())

let sssp_op () =
  let topo = small_topology () in
  let g = topo.Ts.graph in
  let n = Graph.node_count g in
  let ws = Dijkstra.Workspace.create n in
  let out = Array.make n infinity in
  let src = ref 0 in
  words_per_op ~runs:sssp_runs (fun () ->
      Dijkstra.distances_into ws g (!src mod n) out;
      incr src)

(* Every member published into every enclosing span-2 region; the
   measured lookups read the root map with the default result bound and
   TTL. *)
let lookup_op () =
  let can = substrate_can 51 in
  let store =
    Store.create ~scheme:(Number.default_scheme ~max_latency:400.0 ()) can
  in
  for node = 0 to substrate - 1 do
    Store.publish_all store ~span_bits:2 ~node ~vector:(vector_of node)
  done;
  let qrng = Rng.create 52 in
  let queries = Array.init lookup_samples (fun _ -> Array.init 5 (fun _ -> Rng.float qrng 400.0)) in
  let cursor = ref 0 in
  words_per_op ~runs:lookup_runs (fun () ->
      let vector = queries.(!cursor mod lookup_samples) in
      incr cursor;
      ignore (Store.lookup store ~region:[||] ~vector ()))

(* A join changes the overlay, so each round rebuilds the same substrate
   outside the measured window and times one join at a fresh point. *)
let join_op () =
  let prng = Rng.create 62 in
  let total = ref 0.0 in
  for _ = 1 to join_rounds do
    let can = substrate_can 61 in
    let point = Point.random prng 2 in
    let before = Gc.minor_words () in
    ignore (Can_overlay.join can substrate point);
    total := !total +. (Gc.minor_words () -. before)
  done;
  int_of_float !total / join_rounds

(* The lookup fixture's store (every member published into every
   enclosing span-2 region); each round rebuilds it, joins one node at a
   fresh point, and times the rehost that follows. *)
let rehost_op () =
  let prng = Rng.create 72 in
  let total = ref 0.0 in
  for _ = 1 to rehost_rounds do
    let can = substrate_can 71 in
    let store =
      Store.create ~scheme:(Number.default_scheme ~max_latency:400.0 ()) can
    in
    for node = 0 to substrate - 1 do
      Store.publish_all store ~span_bits:2 ~node ~vector:(vector_of node)
    done;
    ignore (Can_overlay.join can substrate (Point.random prng 2));
    let before = Gc.minor_words () in
    Store.rehost store;
    total := !total +. (Gc.minor_words () -. before)
  done;
  int_of_float !total / rehost_rounds

(* [substrate] subscriptions on the root region; each run replaces the
   next one round-robin, so the region always holds [substrate]. *)
let resubscribe_op () =
  let store =
    Store.create ~scheme:(Number.default_scheme ~max_latency:400.0 ()) (substrate_can 81)
  in
  let bus = Bus.create store in
  let handler _ = () in
  let subscribe subscriber =
    Bus.subscribe bus ~subscriber ~region:[||] ~condition:Bus.Any_new_entry ~handler
  in
  let subs = Array.init substrate subscribe in
  let cursor = ref 0 in
  words_per_op ~runs:resubscribe_runs (fun () ->
      let i = !cursor mod substrate in
      incr cursor;
      Bus.unsubscribe bus subs.(i);
      subs.(i) <- subscribe i)

(* A [substrate]-member build with the default Hybrid strategy, every
   member published. *)
let fixture_build oracle seed =
  Builder.build oracle
    {
      Builder.default_config with
      Builder.overlay_size = substrate;
      landmark_count = 8;
      seed;
    }

(* On a fixture build, a second table fill with the same selector
   records the slots a fill visits; each run selects one of 64 seeded
   ones exactly as [Ecan_exp.build_table_for] does: the region's
   members, then the selector. *)
let slot_select_op () =
  let b = fixture_build (Oracle.build (small_topology ())) 112 in
  let select = Builder.selector b b.Builder.config.Builder.strategy in
  let slots = ref [] in
  Ecan_exp.build_tables b.Builder.ecan ~selector:(fun ~node ~region ~candidates ->
      slots := (node, region) :: !slots;
      select ~node ~region ~candidates);
  let slots = Array.of_list !slots in
  let srng = Rng.create 113 in
  let samples = Array.init slot_samples (fun _ -> Rng.pick srng slots) in
  let can = Ecan_exp.can b.Builder.ecan in
  let cursor = ref 0 in
  words_per_op ~runs:slot_runs (fun () ->
      let node, region = samples.(!cursor mod slot_samples) in
      incr cursor;
      let candidates = Can_overlay.members_with_prefix can region in
      ignore (select ~node ~region ~candidates))

(* The slot-select fixture's build, its tables refilled whole under its
   own strategy: the words of one [Builder.rebuild_tables] over the
   number of slots it selects (a counting fill finds them). *)
let fill_slot_op () =
  let b = fixture_build (Oracle.build (small_topology ())) 112 in
  let strategy = b.Builder.config.Builder.strategy in
  let slots = ref 0 in
  Ecan_exp.build_tables b.Builder.ecan ~selector:(fun ~node:_ ~region:_ ~candidates:_ ->
      incr slots;
      None);
  words_per_op ~runs:fill_runs (fun () -> Builder.rebuild_tables b strategy) / !slots

(* A fixture build under maintenance, every slot watched; each round
   rebuilds it and times one proactive departure of a seeded member (the
   notifications it schedules are never delivered). *)
let leave_op () =
  let oracle = Oracle.build (small_topology ()) in
  let lrng = Rng.create 122 in
  let total = ref 0.0 in
  for _ = 1 to leave_rounds do
    let b = fixture_build oracle 121 in
    let m = Core.Maintenance.start ~sim:(Engine.Sim.create ()) b in
    Core.Maintenance.subscribe_all_slots m;
    let victim = Rng.pick lrng (Can_overlay.node_ids (Ecan_exp.can b.Builder.ecan)) in
    let before = Gc.minor_words () in
    Core.Maintenance.node_departs m victim;
    total := !total +. (Gc.minor_words () -. before)
  done;
  int_of_float !total / leave_rounds

let run ?(scale = 1) () =
  ignore scale;
  (* Every op is measured, in this order, before any budget is recorded. *)
  let budgets =
    List.map
      (fun (op, budget, measure) -> (op, "alloc_minor_words_per_" ^ budget, measure ()))
      [
        ("ecan route (1 message)", "route", route_op);
        ("can route (store lookup_route)", "can_route", can_route_op);
        ("probe rtt (fresh cache hit)", "rtt_hit", rtt_hit_op);
        (Printf.sprintf "ttl sweep (%d expired)" sweep_burst, "sweep", sweep_op);
        ("dijkstra sssp (reused workspace)", "sssp", sssp_op);
        ("soft-state lookup (root map)", "lookup", lookup_op);
        (Printf.sprintf "can join (%d members)" substrate, "join", join_op);
        ("store rehost (after 1 join)", "rehost", rehost_op);
        ( Printf.sprintf "bus resubscribe (%d subscribers)" substrate,
          "resubscribe",
          resubscribe_op );
        ( Printf.sprintf "slot select (hybrid, %d members)" substrate,
          "slot_select",
          slot_select_op );
        (Printf.sprintf "fill slot (hybrid, %d members)" substrate, "fill_slot", fill_slot_op);
        (Printf.sprintf "maintained leave (%d members)" substrate, "leave", leave_op);
        ("cache request (hit, metrics on)", "cache_request", cache_request_op);
      ]
  in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Allocation budget: minor words per hot-path op (%d routes of each kind, %d RTT hits, %d \
            sweeps x %d entries, %d SSSP, %d lookups, %d joins, %d rehosts, %d resubscribes, %d \
            slot selections, %d table fills, %d leaves, %d cache requests)"
           route_runs rtt_runs sweep_rounds sweep_burst sssp_runs lookup_runs join_rounds rehost_rounds
           resubscribe_runs slot_runs fill_runs leave_rounds cache_runs)
      ~columns:[ "op"; "minor words/op" ]
  in
  List.iter
    (fun (op, name, words) ->
      (* A budget is a measurement, not a tally: the counter is set to
         it, so a second run in one process records the same value. *)
      let counter = Metrics.counter Metrics.global name in
      Metrics.add counter (words - Metrics.count counter);
      if name = "alloc_minor_words_per_sweep" then
        Metrics.set
          (Metrics.gauge Metrics.global "alloc_sweep_words_per_entry")
          (float_of_int words /. float_of_int sweep_burst);
      Tableout.add_row table
        [ Tableout.text op; Tableout.named ~labels:[] name Tableout.Count (Tableout.fixed 0) ])
    budgets;
  [
    Tableout.table table;
    Tableout.note
      "  exact budgets: gated by bench/compare.exe's allocation-budget section (integer equality).";
  ]
