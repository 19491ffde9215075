(* Maintenance-plane storm: a burst workload aimed squarely at the two
   hot paths this plane optimises — TTL expiry sweeps and notification
   delivery.  N publishers push fresh soft-state entries into a watched
   region in bursts while M subscribers hold [Any_new_entry] watches, so
   every burst is an (N x M) notification storm.  The scenario runs
   twice on identical input: once with the seed configuration (flat
   store, one scheduled engine event per notification) and once with a
   sharded store and a nonzero digest window, demonstrating that

   - a sweep's cost tracks the number of *expired* entries (heap pops),
     not the store's total population: the first sweep arrives when only
     the first burst has aged out and visits just that burst;
   - digest batching collapses the per-(subscriber, region) delivery
     events by the burst fan-in (one digest per subscriber per burst
     instead of one event per notification) without changing what is
     delivered. *)

module Sim = Engine.Sim
module Metrics = Engine.Metrics
module Store = Softstate.Store
module Bus = Pubsub.Bus
module Can_overlay = Can.Overlay
module Number = Landmark.Number
module Point = Geometry.Point
module Rng = Prelude.Rng

let substrate = 256 (* CAN members hosting the maps *)
let ttl = 10_000.0
let burst_gap = 500.0
let window = 50.0 (* digest window, well under the gap *)
let vector_dims = 5
let max_latency = 400.0

(* Deterministic synthetic landmark vector for a published id. *)
let vector_of node =
  Array.init vector_dims (fun i -> float_of_int ((node * ((7 * i) + 3)) mod 400))

type run_stats = {
  mode : string;
  entries : int;  (** soft-state entries published over the run *)
  scheduled : int;  (** engine delivery events the bus scheduled *)
  first_visited : int;  (** heap records popped by the first sweep *)
  first_expired : int;  (** entries that had actually expired by then *)
  total_expired : int;
}

let run_mode metrics ~mode ~shards ~digest_window ~publishers ~subscribers ~bursts =
  let rng = Rng.create 21 in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to substrate - 1 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let sim = Sim.create () in
  let labels = [ ("experiment", "storm"); ("mode", mode) ] in
  let scheme = Number.default_scheme ~max_latency () in
  let store =
    Store.create ~metrics ~labels ~shards ~default_ttl:ttl
      ~clock:(fun () -> Sim.now sim)
      ~scheme can
  in
  let bus = Bus.create ~metrics ~labels ~sim ~digest_window store in
  for s = 0 to subscribers - 1 do
    ignore
      (Bus.subscribe bus ~subscriber:s ~region:[||] ~condition:Bus.Any_new_entry
         ~handler:ignore)
  done;
  (* Publish bursts: every burst is [publishers] fresh ids, all at the
     same virtual instant, [burst_gap] apart. *)
  for b = 0 to bursts - 1 do
    Sim.run ~until:(float_of_int b *. burst_gap) sim;
    for p = 0 to publishers - 1 do
      let node = 1_000 + (b * publishers) + p in
      Bus.publish bus ~region:[||] ~node ~vector:(vector_of node)
    done
  done;
  let visited () = Metrics.count (Metrics.counter metrics ~labels "store_sweep_visited") in
  (* First sweep lands when only the first burst has aged out: a scan
     would walk all [bursts * publishers] entries, the heap pops only the
     expired ones. *)
  Sim.run ~until:(ttl +. (burst_gap /. 2.0)) sim;
  let first_expired = Bus.expire_sweep bus in
  let first_visited = visited () in
  (* Then run past every expiry and drain the rest. *)
  Sim.run ~until:(ttl +. (float_of_int bursts *. burst_gap)) sim;
  let rest_expired = Bus.expire_sweep bus in
  assert (Store.check_invariants store = Ok ());
  let scheduled =
    if digest_window > 0.0 then Bus.batched_count bus
    else Bus.sent_count bus - Bus.dropped_count bus
  in
  {
    mode;
    entries = bursts * publishers;
    scheduled;
    first_visited;
    first_expired;
    total_expired = first_expired + rest_expired;
  }

let run { Run.scale; metrics } =
  let scale = max 1 scale in
  let publishers = max 8 (64 / scale) in
  let subscribers = max 4 (48 / scale) in
  let bursts = 8 in
  let seed_stats =
    run_mode metrics ~mode:"seed" ~shards:1 ~digest_window:0.0 ~publishers ~subscribers ~bursts
  in
  let digest_stats =
    run_mode metrics ~mode:"digest" ~shards:4 ~digest_window:window ~publishers ~subscribers ~bursts
  in
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Maintenance storm: %d publishers x %d subscribers x %d bursts (ttl %.0fs, digest window %.0f ms)"
           publishers subscribers bursts (ttl /. 1000.0) window)
      ~columns:
        [
          "mode";
          "entries";
          "notifs sent";
          "delivered";
          "sched events";
          "digests";
          "sweep1 visited";
          "sweep1 expired";
        ]
  in
  let count = Tableout.fixed 0 in
  let row s =
    let labels = [ ("mode", s.mode) ] in
    let g name v = Tableout.gauge ~labels name count (float_of_int v) in
    (* The bus's own counters, under the run's labels. *)
    let bus name =
      Tableout.named ~labels:(("experiment", "storm") :: labels) name Tableout.Count count
    in
    Metrics.set
      (Metrics.gauge metrics ~labels "storm_total_expired")
      (float_of_int s.total_expired);
    Tableout.add_row table
      [
        Tableout.text s.mode;
        g "storm_entries" s.entries;
        bus "notify_sent";
        bus "notify_delivered";
        g "storm_sched_events" s.scheduled;
        bus "notify_batched";
        g "storm_sweep1_visited" s.first_visited;
        g "storm_sweep1_expired" s.first_expired;
      ]
  in
  row seed_stats;
  row digest_stats;
  let ratio = float_of_int seed_stats.scheduled /. float_of_int (max 1 digest_stats.scheduled) in
  [
    Tableout.table table;
    Tableout.line
      [
        Tableout.text
          "  sched events: engine delivery events (digest mode batches per subscriber+region) — ";
        Tableout.gauge ~labels:[] "storm_sched_ratio" (Tableout.fixed 1) ratio;
        Tableout.text "x fewer.";
      ];
    Tableout.note
      "  sweep1: runs when only the first burst (%d of %d entries) has expired; the heap visits \
       only those."
      seed_stats.first_expired seed_stats.entries;
  ]
