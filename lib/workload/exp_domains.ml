(* Domain-parallel hosting: the determinism contract, exercised.

   One seeded maintenance-heavy workload — bursts of soft-state
   publishes across a sharded store, refreshes, TTL sweeps, probe
   batches through a lossy channel, a membership change with rehosting —
   runs three times, identical in everything except the size of the
   domain pool hosting the store's shard phases (1, 2 and 4 domains; the
   prober measures on the calling domain).  Each run reports into its
   own fresh metrics registry; the experiment then compares the rendered
   JSON of the three registries byte for byte.  DESIGN.md §12 promises they
   cannot differ; the [domains_identical] gauge (and the bench gate over
   it) holds the implementation to that promise.  Nothing here reads the
   wall clock: the table depends on the scale alone. *)

module Sim = Engine.Sim
module Metrics = Engine.Metrics
module Dpool = Engine.Dpool
module Probe = Engine.Probe
module Faults = Engine.Faults
module Store = Softstate.Store
module Can_overlay = Can.Overlay
module Number = Landmark.Number
module Point = Geometry.Point
module Rng = Prelude.Rng
module Json = Prelude.Json

let ttl = 3_000.0
let burst_gap = 1_000.0
let vector_dims = 5
let shards = 8

(* Deterministic synthetic landmark vector for a published id. *)
let vector_of node =
  Array.init vector_dims (fun i -> float_of_int ((node * ((7 * i) + 3)) mod 400))

(* Deterministic per-pair RTT, so the probe batches repeat exactly
   across the runs. *)
let measure src dst = 1.0 +. float_of_int (((src * 31) + (dst * 17)) mod 400)

(* 3-bit region path for a publisher index, spreading regions over the
   store's shards. *)
let region_of p = [| p land 1; (p lsr 1) land 1; (p lsr 2) land 1 |]

type one = {
  domains : int;
  json : string;  (* full metrics JSON of the run's private registry *)
  entries : int;
  purged : int;
  probes : int;
}

let run_pool ~scale ~domains =
  let metrics = Metrics.create () in
  let labels = [ ("experiment", "domains") ] in
  let pool = Dpool.get ~domains in
  let rng = Rng.create 77 in
  let can = Can_overlay.create ~dims:2 0 in
  let substrate = max 32 (192 / scale) in
  for id = 1 to substrate - 1 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let clock = ref 0.0 in
  let scheme = Number.default_scheme ~max_latency:400.0 () in
  let store =
    Store.create ~metrics ~labels ~pool ~shards ~default_ttl:ttl
      ~clock:(fun () -> !clock)
      ~scheme can
  in
  let faults =
    Faults.create ~channel:{ Faults.loss = 0.02; delay_min = 1.0; delay_max = 9.0 } ~seed:5 ()
  in
  let prober =
    Probe.create ~metrics ~labels ~faults
      ~clock:(fun () -> !clock)
      ~config:
        { Probe.window = 4; timeout = 600.0; retries = 1; cache_ttl = 2_500.0 }
      ~measure ()
  in
  let bursts = max 6 (24 / scale) in
  let publishers = max 8 (64 / scale) in
  let entries = ref 0 in
  let purged = ref 0 in
  for b = 0 to bursts - 1 do
    clock := float_of_int b *. burst_gap;
    for p = 0 to publishers - 1 do
      let node = 1_000 + (b * publishers) + p in
      Store.publish store ~region:(region_of p) ~node ~vector:(vector_of node);
      incr entries
    done;
    (* Keep a rotating slice of the previous burst alive past its TTL. *)
    if b > 0 then
      for p = 0 to (publishers / 4) - 1 do
        let node = 1_000 + ((b - 1) * publishers) + p in
        ignore (Store.refresh store ~region:(region_of p) ~node)
      done;
    (* One probe batch per burst: duplicate and repeat destinations mix
       cache hits, fresh measurements and lossy retries. *)
    let dsts = Array.init 12 (fun i -> ((b * 7) + (i * 13)) mod (2 * substrate)) in
    ignore (Probe.run_batch prober ~src:(b mod substrate) ~dsts);
    purged := !purged + List.length (Store.sweep_expired store)
  done;
  (* Membership change: the owner that splits for the newcomer moves,
     and the rehost re-places the entries it held. *)
  ignore (Can_overlay.join can substrate (Point.random rng 2));
  Store.rehost store;
  let stats = Store.hosting_stats store in
  Metrics.set (Metrics.gauge metrics ~labels "domains_hosting_mean") stats.Prelude.Stats.mean;
  Metrics.set
    (Metrics.gauge metrics ~labels "domains_avg_entries")
    (Store.avg_entries_per_node store);
  (match Store.check_invariants store with
  | Ok () -> ()
  | Error e -> failwith ("domains experiment: store invariants broken: " ^ e));
  {
    domains;
    json = Json.to_string (Metrics.to_json metrics);
    entries = !entries;
    purged = !purged;
    probes = Probe.probes prober;
  }

let run ?(scale = 1) ppf =
  let runs = List.map (fun d -> run_pool ~scale ~domains:d) [ 1; 2; 4 ] in
  let base = List.hd runs in
  let identical = List.for_all (fun r -> String.equal r.json base.json) runs in
  (* The deterministic facts go to the global registry (and hence the
     bench gate). *)
  let labels = [ ("experiment", "domains") ] in
  let g = Sweep.gauge ~labels in
  g "domains_identical" (if identical then 1.0 else 0.0);
  g "domains_entries" (float_of_int base.entries);
  g "domains_purged" (float_of_int base.purged);
  g "domains_probes" (float_of_int base.probes);
  let table =
    Tableout.create
      ~title:
        (Printf.sprintf
           "Domain-parallel hosting: %d entries, %d purged, %d probes, %d shards — metrics JSON compared byte-for-byte across pool sizes"
           base.entries base.purged base.probes shards)
      ~columns:[ "domains"; "metrics JSON" ]
  in
  List.iter
    (fun r ->
      Tableout.add_row table
        [
          string_of_int r.domains;
          (if String.equal r.json base.json then "identical" else "DIVERGED");
        ])
    runs;
  Tableout.render ppf table;
  Format.fprintf ppf
    "  the [domains_identical] gauge asserts the DESIGN.md §12 contract.@.";
  if not identical then failwith "domains experiment: metrics diverged across pool sizes"
