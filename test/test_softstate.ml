(* Tests for the global soft-state store. *)

module Store = Softstate.Store
module Can_overlay = Can.Overlay
module Number = Landmark.Number
module Point = Geometry.Point
module Zone = Geometry.Zone
module Rng = Prelude.Rng

let scheme = Number.default_scheme ~max_latency:100.0 ()

let check_ok = function Ok () -> () | Error e -> Alcotest.fail e

(* A small CAN plus a clock we can advance by hand. *)
let setup ?(condense = 1.0) ?(ttl = 100.0) ?(n = 40) ?(shards = 1) ~seed () =
  let rng = Rng.create seed in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to n - 1 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let now = ref 0.0 in
  let store =
    Store.create ~shards ~condense ~default_ttl:ttl ~clock:(fun () -> !now) ~scheme can
  in
  (store, can, now, rng)

let vec rng = Array.init 5 (fun _ -> Rng.float rng 100.0)

let test_publish_find () =
  let store, _, _, rng = setup ~seed:1 () in
  let v = vec rng in
  Store.publish store ~region:[||] ~node:3 ~vector:v;
  (match Store.find store ~region:[||] ~node:3 with
  | Some e ->
    Alcotest.(check (array (float 0.0))) "vector stored" v e.Store.Entry.vector;
    Alcotest.(check int) "landmark number consistent" (Number.number scheme v)
      e.Store.Entry.number
  | None -> Alcotest.fail "entry not found");
  Alcotest.(check bool) "other region empty" true (Store.find store ~region:[| 0 |] ~node:3 = None);
  check_ok (Store.check_invariants store)

let test_publish_overwrites () =
  let store, _, _, rng = setup ~seed:2 () in
  Store.publish store ~region:[||] ~node:3 ~vector:(vec rng);
  let v2 = vec rng in
  Store.publish store ~region:[||] ~node:3 ~vector:v2;
  Alcotest.(check int) "one entry" 1 (List.length (Store.region_entries store [||]));
  (match Store.find store ~region:[||] ~node:3 with
  | Some e -> Alcotest.(check (array (float 0.0))) "updated" v2 e.Store.Entry.vector
  | None -> Alcotest.fail "missing");
  check_ok (Store.check_invariants store)

let test_entry_position_in_condensed_box () =
  let store, _, _, rng = setup ~condense:0.5 ~seed:3 () in
  let region = [| 0; 1 |] in
  for node = 0 to 20 do
    Store.publish store ~region ~node ~vector:(vec rng)
  done;
  let box = Store.map_box store region in
  let zone = Can_overlay.zone_of_path ~dims:2 region in
  Alcotest.(check bool) "box strictly smaller than the region" true
    (Zone.volume box < Zone.volume zone);
  List.iter
    (fun e ->
      Alcotest.(check bool) "position inside condensed box" true
        (Zone.contains box e.Store.Entry.position))
    (Store.region_entries store region);
  check_ok (Store.check_invariants store)

let test_ttl_expiry () =
  let store, _, now, rng = setup ~ttl:50.0 ~seed:4 () in
  Store.publish store ~region:[||] ~node:1 ~vector:(vec rng);
  now := 49.0;
  Alcotest.(check bool) "alive before ttl" true (Store.find store ~region:[||] ~node:1 <> None);
  now := 51.0;
  Alcotest.(check bool) "dead after ttl" true (Store.find store ~region:[||] ~node:1 = None);
  Alcotest.(check int) "sweep drops it" 1 (Store.expire_sweep store);
  Alcotest.(check int) "sweep idempotent" 0 (Store.expire_sweep store)

let test_refresh_extends () =
  let store, _, now, rng = setup ~ttl:50.0 ~seed:5 () in
  Store.publish store ~region:[||] ~node:1 ~vector:(vec rng);
  now := 40.0;
  Alcotest.(check bool) "refresh finds the live entry" true
    (Store.refresh store ~region:[||] ~node:1);
  now := 80.0;
  Alcotest.(check bool) "alive thanks to refresh" true
    (Store.find store ~region:[||] ~node:1 <> None);
  now := 91.0;
  Alcotest.(check bool) "eventually expires" true (Store.find store ~region:[||] ~node:1 = None)

let test_unpublish () =
  let store, _, _, rng = setup ~seed:6 () in
  Store.publish store ~region:[||] ~node:1 ~vector:(vec rng);
  Store.publish store ~region:[| 0 |] ~node:1 ~vector:(vec rng);
  Store.unpublish store ~region:[||] ~node:1;
  Alcotest.(check bool) "gone from root" true (Store.find store ~region:[||] ~node:1 = None);
  Alcotest.(check bool) "still in the other map" true
    (Store.find store ~region:[| 0 |] ~node:1 <> None);
  Store.unpublish_everywhere store 1;
  Alcotest.(check bool) "gone everywhere" true (Store.find store ~region:[| 0 |] ~node:1 = None);
  check_ok (Store.check_invariants store)

let test_publish_all_regions () =
  let store, can, _, rng = setup ~n:64 ~seed:7 () in
  let node = (Can_overlay.node_ids can).(5) in
  let v = vec rng in
  Store.publish_all store ~span_bits:2 ~node ~vector:v;
  let regions = Store.regions_of store node in
  let path_len = Array.length (Can_overlay.node can node).Can_overlay.path in
  Alcotest.(check int) "one map per complete high-order zone plus the root"
    ((path_len / 2) + 1) (List.length regions);
  List.iter
    (fun region ->
      (* every region is a prefix of the node's path with even length *)
      let len = Array.length region in
      Alcotest.(check bool) "digit-aligned" true (len mod 2 = 0);
      let path = (Can_overlay.node can node).Can_overlay.path in
      Alcotest.(check bool) "prefix of the node's path" true
        (Array.for_all2 ( = ) region (Array.sub path 0 len)))
    regions

let test_lookup_finds_closest () =
  let store, _, _, rng = setup ~n:60 ~seed:8 () in
  let region = [||] in
  (* publish clusters: nodes 0-9 near vector A, nodes 10-19 near vector B *)
  let base_a = [| 10.0; 10.0; 10.0; 10.0; 10.0 |] in
  let base_b = [| 80.0; 80.0; 80.0; 80.0; 80.0 |] in
  let jitter base = Array.map (fun x -> x +. Rng.float rng 2.0) base in
  for node = 0 to 9 do
    Store.publish store ~region ~node ~vector:(jitter base_a)
  done;
  for node = 10 to 19 do
    Store.publish store ~region ~node ~vector:(jitter base_b)
  done;
  let results = Store.lookup store ~region ~vector:base_a ~max_results:5 ~ttl:8 () in
  Alcotest.(check bool) "got results" true (results <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "results from cluster A" true (e.Store.Entry.node < 10))
    results;
  (* sorted by vector distance *)
  let dists =
    List.map (fun e -> Landmark.Landmarks.vector_dist base_a e.Store.Entry.vector) results
  in
  Alcotest.(check (list (float 1e-9))) "sorted ascending" (List.sort compare dists) dists

let test_lookup_respects_max_results () =
  let store, _, _, rng = setup ~n:40 ~seed:9 () in
  for node = 0 to 30 do
    Store.publish store ~region:[||] ~node ~vector:(vec rng)
  done;
  let results = Store.lookup store ~region:[||] ~vector:(vec rng) ~max_results:7 ~ttl:6 () in
  Alcotest.(check bool) "bounded" true (List.length results <= 7)

let test_lookup_skips_expired () =
  let store, _, now, rng = setup ~ttl:50.0 ~seed:10 () in
  Store.publish store ~region:[||] ~node:1 ~vector:(vec rng);
  now := 100.0;
  Store.publish store ~region:[||] ~node:2 ~vector:(vec rng);
  let results = Store.lookup store ~region:[||] ~vector:(vec rng) ~max_results:10 ~ttl:8 () in
  List.iter
    (fun e -> Alcotest.(check int) "only the live entry" 2 e.Store.Entry.node)
    results

let test_lookup_empty_region () =
  let store, _, _, rng = setup ~seed:11 () in
  Alcotest.(check (list reject)) "empty" []
    (Store.lookup store ~region:[| 1; 1 |] ~vector:(vec rng) ())

let test_condense_concentrates_entries () =
  (* With a tiny condensed box, all entries land on few hosts; with the
     whole region, they spread out. *)
  let region = [||] in
  let fill store rng =
    for node = 0 to 39 do
      Store.publish store ~region ~node ~vector:(vec rng)
    done
  in
  let hosts store can =
    Array.fold_left
      (fun acc id -> if Store.entries_at_host store id > 0 then acc + 1 else acc)
      0 (Can_overlay.node_ids can)
  in
  let store_tight, can_tight, _, rng_tight = setup ~condense:0.05 ~n:60 ~seed:12 () in
  fill store_tight rng_tight;
  let store_wide, can_wide, _, rng_wide = setup ~condense:8.0 ~n:60 ~seed:12 () in
  fill store_wide rng_wide;
  Alcotest.(check bool)
    (Printf.sprintf "tight %d hosts <= wide %d hosts" (hosts store_tight can_tight)
       (hosts store_wide can_wide))
    true
    (hosts store_tight can_tight <= hosts store_wide can_wide);
  Alcotest.(check bool) "avg entries per node consistent" true
    (Store.avg_entries_per_node store_tight > 0.0)

let test_update_stats () =
  let store, _, _, rng = setup ~seed:13 () in
  Store.publish store ~region:[||] ~node:1 ~vector:(vec rng);
  Store.update_stats store ~region:[||] ~node:1 ~load:0.9 ~capacity:4.0;
  match Store.find store ~region:[||] ~node:1 with
  | Some e ->
    Alcotest.(check (float 0.0)) "load" 0.9 e.Store.Entry.load;
    Alcotest.(check (float 0.0)) "capacity" 4.0 e.Store.Entry.capacity
  | None -> Alcotest.fail "missing"

let test_lookup_route_reaches_host () =
  let store, can, _, rng = setup ~n:50 ~seed:15 () in
  for node = 0 to 20 do
    Store.publish store ~region:[| 0 |] ~node ~vector:(vec rng)
  done;
  for _ = 1 to 30 do
    let v = vec rng in
    let from = Prelude.Rng.pick rng (Can_overlay.node_ids can) in
    match Store.lookup_route store ~from ~region:[| 0 |] ~vector:v with
    | None -> Alcotest.fail "lookup route failed"
    | Some hops ->
      Alcotest.(check int) "route starts at the querier" from (List.hd hops);
      Alcotest.(check int) "route ends at the map host"
        (Store.host_of store ~region:[| 0 |] ~vector:v)
        (List.nth hops (List.length hops - 1))
  done

let test_rehost_after_churn () =
  let store, can, _, rng = setup ~n:30 ~seed:14 () in
  for node = 0 to 29 do
    Store.publish_all store ~span_bits:2 ~node ~vector:(vec rng)
  done;
  check_ok (Store.check_invariants store);
  (* churn: join a few new nodes, then fix hosting *)
  for id = 100 to 105 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  Store.rehost store;
  check_ok (Store.check_invariants store);
  (* and after leaves *)
  ignore (Can_overlay.leave can 100);
  ignore (Can_overlay.leave can 101);
  Store.rehost store;
  check_ok (Store.check_invariants store)

(* A host that leaves, rejoins and then takes back by backfill the very
   path array it held before, all between two rehosts: the entries it
   was given while it held its rejoin zone must still be re-placed. *)
let test_rehost_rejoined_host_backfill () =
  let store, can, _, rng = setup ~condense:8.0 ~n:40 ~seed:21 () in
  let depth id = Array.length (Can_overlay.node can id).Can_overlay.path in
  let ids () = List.sort compare (Array.to_list (Can_overlay.node_ids can)) in
  let deepest () = List.fold_left (fun acc id -> max acc (depth id)) 0 (ids ()) in
  let publish_batch base =
    for k = 0 to 199 do
      Store.publish store ~region:[||] ~node:(base + k) ~vector:(vec rng)
    done
  in
  publish_batch 1000;
  Store.rehost store;
  (* a shallow host leaves: the deepest member backfills its zone *)
  let h =
    List.find (fun id -> depth id < deepest () && Store.entries_at_host store id > 0) (ids ())
  in
  let d =
    match (Can_overlay.leave can h).Can_overlay.backfilled with
    | Some d -> d
    | None -> Alcotest.fail "expected a backfill"
  in
  (* h rejoins by splitting a deepest member with a higher id, so the
     next leave picks h to backfill d *)
  let owner = List.find (fun id -> depth id = deepest () && id > h) (ids ()) in
  let zone = (Can_overlay.node can owner).Can_overlay.zone in
  ignore (Can_overlay.join can h (Zone.subzone zone (Point.random rng 2)));
  publish_batch 2000;
  Alcotest.(check bool) "rejoined host holds entries" true (Store.entries_at_host store h > 0);
  let effect = Can_overlay.leave can d in
  Alcotest.(check (option int)) "h backfills d" (Some h) effect.Can_overlay.backfilled;
  Store.rehost store;
  check_ok (Store.check_invariants store)

let test_republish_preserves_stats () =
  let store, _, _, rng = setup ~seed:16 () in
  Store.publish store ~region:[||] ~node:1 ~vector:(vec rng);
  Store.update_stats store ~region:[||] ~node:1 ~load:0.7 ~capacity:3.0;
  (* overwrite = refresh-by-replacement: the vector changes, the load
     statistics survive *)
  Store.publish store ~region:[||] ~node:1 ~vector:(vec rng);
  (match Store.find store ~region:[||] ~node:1 with
  | Some e ->
    Alcotest.(check (float 0.0)) "load carried over" 0.7 e.Store.Entry.load;
    Alcotest.(check (float 0.0)) "capacity carried over" 3.0 e.Store.Entry.capacity
  | None -> Alcotest.fail "missing");
  (* a brand-new node starts from the defaults *)
  Store.publish store ~region:[||] ~node:2 ~vector:(vec rng);
  match Store.find store ~region:[||] ~node:2 with
  | Some e -> Alcotest.(check (float 0.0)) "fresh entry unloaded" 0.0 e.Store.Entry.load
  | None -> Alcotest.fail "missing"

(* ---- sharded sweeps ---- *)

let regions_under_test = [ [||]; [| 0 |]; [| 1 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ]

let test_shard_sweep_partition () =
  let store, _, now, rng = setup ~shards:4 ~ttl:50.0 ~seed:17 () in
  Alcotest.(check int) "shard count" 4 (Store.shard_count store);
  List.iter
    (fun region ->
      let s = Store.shard_of_region store region in
      Alcotest.(check bool) "shard in range" true (s >= 0 && s < 4);
      Alcotest.(check int) "shard assignment stable" s (Store.shard_of_region store region);
      for node = 0 to 9 do
        Store.publish store ~region ~node ~vector:(vec rng)
      done)
    regions_under_test;
  check_ok (Store.check_invariants store);
  now := 60.0;
  (* per-shard sweeps partition the expired population: each purged
     region belongs to the swept shard, and the union covers everything *)
  let total = ref 0 in
  for i = 0 to Store.shard_count store - 1 do
    let purged = Store.sweep_shard store i in
    List.iter
      (fun (region, _) ->
        Alcotest.(check int) "purged region owned by the swept shard" i
          (Store.shard_of_region store region))
      purged;
    total := !total + List.length purged
  done;
  Alcotest.(check int) "union of shard sweeps purges everything"
    (10 * List.length regions_under_test)
    !total;
  Alcotest.(check int) "nothing left" 0 (Store.expire_sweep store);
  check_ok (Store.check_invariants store);
  Alcotest.check_raises "shard index range-checked"
    (Invalid_argument "Store.sweep_shard: shard out of range") (fun () ->
      ignore (Store.sweep_shard store 4))

(* The heap-swept sharded store must purge exactly what a naive
   full-scan reference model would, under any interleaving of publish /
   refresh / unpublish / clock advance / sweep.  The model is an assoc
   table ((region, node) -> expires) mutated by the same rules. *)
let qcheck_sweep_matches_scan_model =
  let key region node = (Array.to_list region, node) in
  QCheck.Test.make ~name:"sharded heap sweeps = full-scan reference model" ~count:40
    QCheck.(triple (int_range 0 1_000) (int_range 1 5) (int_range 30 120))
    (fun (seed, shards, steps) ->
      let ttl = 50.0 in
      let store, _, now, rng = setup ~shards ~ttl ~seed () in
      let model : ((int list * int), float) Hashtbl.t = Hashtbl.create 64 in
      let regions = Array.of_list regions_under_test in
      let pick_region () = regions.(Rng.int rng (Array.length regions)) in
      let pick_node () = Rng.int rng 12 in
      let model_live k = match Hashtbl.find_opt model k with
        | Some e -> e > !now
        | None -> false
      in
      let sweep_and_compare () =
        let purged =
          Store.sweep_expired store
          |> List.map (fun (region, (e : Store.Entry.t)) -> key region e.Store.Entry.node)
          |> List.sort compare
        in
        let expected =
          Hashtbl.fold (fun k e acc -> if e <= !now then k :: acc else acc) model []
          |> List.sort compare
        in
        List.iter (fun k -> Hashtbl.remove model k) expected;
        purged = expected
      in
      let ok = ref true in
      for _ = 1 to steps do
        (match Rng.int rng 6 with
        | 0 | 1 ->
          let region = pick_region () and node = pick_node () in
          Store.publish store ~region ~node ~vector:(vec rng);
          Hashtbl.replace model (key region node) (!now +. ttl)
        | 2 ->
          let region = pick_region () and node = pick_node () in
          let refreshed = Store.refresh store ~region ~node in
          let k = key region node in
          if refreshed <> model_live k then ok := false;
          if model_live k then Hashtbl.replace model k (!now +. ttl)
        | 3 ->
          let region = pick_region () and node = pick_node () in
          Store.unpublish store ~region ~node;
          Hashtbl.remove model (key region node)
        | 4 -> now := !now +. Rng.float rng 30.0
        | _ -> if not (sweep_and_compare ()) then ok := false);
        if Store.check_invariants store <> Ok () then ok := false
      done;
      now := !now +. (2.0 *. ttl);
      !ok && sweep_and_compare () && Hashtbl.length model = 0
      && Store.check_invariants store = Ok ())

(* Reference model of [Store.lookup]: the collect-then-sort procedure,
   rebuilt from public functions.  A host's bucket is the region's live
   entries whose cached host it is; the lookup starts at the root
   descent's owner of the vector's position in the map box; the rings
   widen over CAN neighbours whose zones meet the map box; every
   admissible entry found is sorted by (distance, node, entry) with
   [compare] and the list truncated. *)
let reference_lookup store ~region ~vector ~max_results ~ttl ~max_load =
  match Store.region_entries store region with
  | [] -> []
  | live ->
    let can = Store.can store in
    let box = Store.map_box store region in
    let admissible (e : Store.Entry.t) =
      match max_load with None -> true | Some bound -> e.Store.Entry.load <= bound
    in
    let seen = Hashtbl.create 32 and collected = ref [] and count = ref 0 in
    let visit host =
      if not (Hashtbl.mem seen host) then begin
        Hashtbl.replace seen host ();
        List.iter
          (fun (e : Store.Entry.t) ->
            if e.Store.Entry.host = host && admissible e then begin
              collected := e :: !collected;
              incr count
            end)
          live
      end
    in
    let start = Can_overlay.owner_of can (Number.position_in_zone scheme box vector) in
    visit start;
    let frontier = ref [ start ] and hops = ref 0 in
    while !count < max_results && !hops < ttl && !frontier <> [] do
      incr hops;
      let next =
        List.concat_map
          (fun h ->
            List.filter
              (fun nid ->
                (not (Hashtbl.mem seen nid))
                && Zone.intersects box (Can_overlay.node can nid).Can_overlay.zone)
              (Can_overlay.node can h).Can_overlay.neighbors)
          !frontier
        |> List.sort_uniq compare
      in
      List.iter visit next;
      frontier := next
    done;
    List.map
      (fun (e : Store.Entry.t) ->
        (Landmark.Landmarks.vector_dist vector e.Store.Entry.vector, e.Store.Entry.node, e))
      !collected
    |> List.sort compare
    |> List.map (fun (_, _, e) -> e)
    |> List.filteri (fun i _ -> i < max_results)

(* Vectors on a coarse integer grid, half of them drawn from a small pool:
   duplicate vectors and equal distances are common, so the node-id
   tie-break decides many positions. *)
let grid_vector rng pool =
  if Rng.chance rng 0.5 then pool.(Rng.int rng (Array.length pool))
  else Array.init 5 (fun _ -> float_of_int (10 * Rng.int rng 4))

(* Between lookups the script runs the store's writers: every writer of
   an entry's stamp (publish, refresh, refresh_prefix, inject_staleness),
   the removals (unpublish, unpublish_everywhere, both sweeps), load
   statistics, membership changes with their rehost, and the clock. *)
let qcheck_lookup_matches_reference =
  QCheck.Test.make ~name:"lookup = collect-then-sort reference model, order and entries" ~count:60
    QCheck.(triple (int_range 0 10_000) (int_range 1 4) (int_range 8 48))
    (fun (seed, shards, n) ->
      let store, can, now, rng = setup ~shards ~ttl:100.0 ~n ~seed () in
      let pool = Array.init 4 (fun _ -> Array.init 5 (fun _ -> float_of_int (10 * Rng.int rng 4))) in
      let publish node =
        if Can_overlay.mem can node && Rng.chance rng 0.7 then
          Store.publish_all store ~span_bits:(1 + Rng.int rng 2) ~node
            ~vector:(grid_vector rng pool)
        else Store.publish store ~region:[||] ~node ~vector:(grid_vector rng pool);
        if Rng.chance rng 0.5 then
          Store.update_stats store ~region:[||] ~node ~load:(Rng.float rng 1.0) ~capacity:1.0
      in
      (* early entries expire unless re-published; expired ones stay in
         the maps, unswept *)
      for node = 0 to n - 1 do
        publish node
      done;
      now := 60.0;
      for node = 0 to n - 1 do
        if Rng.chance rng 0.4 then publish node
      done;
      now := 120.0;
      let next_id = ref n in
      let churn () =
        for _ = 1 to 1 + Rng.int rng 3 do
          ignore (Can_overlay.join can !next_id (Point.random rng 2));
          incr next_id
        done;
        let ids = Can_overlay.node_ids can in
        ignore (Can_overlay.leave can (Rng.pick rng ids));
        Store.rehost store
      in
      if Rng.chance rng 0.5 then churn ();
      let regions = [| [||]; [| 0 |]; [| 1 |]; [| 0; 1 |]; [| 1; 1 |]; [| 1; 0; 1; 1; 0 |] |] in
      let pick_region () = regions.(Rng.int rng (Array.length regions)) in
      let write () =
        let node = Rng.int rng !next_id in
        match Rng.int rng 11 with
        | 0 -> publish node
        | 1 -> ignore (Store.refresh store ~region:(pick_region ()) ~node)
        | 2 ->
          let path = regions.(5) in
          let len = Rng.int rng (Array.length path + 1) in
          ignore (Store.refresh_prefix store ~path ~len ~node)
        | 3 -> ignore (Store.inject_staleness store ~rng ~fraction:(Rng.float rng 0.5))
        | 4 -> Store.unpublish store ~region:(pick_region ()) ~node
        | 5 -> Store.unpublish_everywhere store node
        | 6 -> ignore (Store.sweep_shard store (Rng.int rng shards))
        | 7 -> ignore (Store.sweep_expired store)
        | 8 -> churn ()
        | _ -> now := !now +. Rng.float rng 40.0
      in
      let same a b = List.length a = List.length b && List.for_all2 ( == ) a b in
      List.for_all
        (fun _ ->
          for _ = 1 to Rng.int rng 4 do
            write ()
          done;
          let region = pick_region () in
          let vector = grid_vector rng pool in
          let max_results =
            match Rng.int rng 4 with 0 -> 0 | 1 -> 1 | 2 -> 2 + Rng.int rng 8 | _ -> 4 * n
          in
          let ttl = Rng.int rng 4 in
          let max_load = if Rng.chance rng 0.3 then Some (Rng.float rng 1.0) else None in
          Store.check_invariants store = Ok ()
          && same
               (Store.lookup store ~region ~vector ~max_results ~ttl ?max_load ())
               (reference_lookup store ~region ~vector ~max_results ~ttl ~max_load))
        (List.init 12 Fun.id))

let qcheck_host_index_consistent =
  QCheck.Test.make ~name:"hosting matches CAN ownership after random publishes" ~count:20
    QCheck.(pair (int_range 0 500) (int_range 5 40))
    (fun (seed, n) ->
      let store, _, _, rng = setup ~n ~seed () in
      for node = 0 to (n / 2) - 1 do
        Store.publish_all store ~span_bits:2 ~node ~vector:(vec rng)
      done;
      Store.check_invariants store = Ok ())

(* Incremental [rehost] against a from-scratch reference: after any mix
   of joins, leaves and store writes, every live entry's cached host is
   the owner of its position, and each member hosts exactly the live
   entries whose positions it owns.  The script forces a merge and then a
   split of the same host between two rehosts, and a rehost with nothing
   changed. *)
let qcheck_rehost_matches_reference =
  QCheck.Test.make ~name:"incremental rehost = from-scratch owner_of reference" ~count:60
    QCheck.(triple (int_range 0 10_000) bool (int_range 8 40))
    (fun (seed, four, n) ->
      let store, can, now, rng = setup ~shards:(if four then 4 else 1) ~ttl:50.0 ~n ~seed () in
      let regions = Hashtbl.create 16 in
      let next_id = ref n in
      let publish node =
        if Can_overlay.mem can node && Rng.chance rng 0.7 then
          Store.publish_all store ~span_bits:(1 + Rng.int rng 2) ~node ~vector:(vec rng)
        else begin
          let region = List.nth regions_under_test (Rng.int rng 6) in
          Store.publish store ~region ~node ~vector:(vec rng)
        end;
        List.iter (fun r -> Hashtbl.replace regions r ()) (Store.regions_of store node)
      in
      let store_write () =
        match Rng.int rng 4 with
        | 0 | 1 -> publish (Rng.int rng !next_id)
        | 2 ->
          let region = List.nth regions_under_test (Rng.int rng 6) in
          Store.unpublish store ~region ~node:(Rng.int rng !next_id)
        | _ ->
          now := !now +. 20.0;
          ignore (Store.sweep_expired store)
      in
      (* Departed ids rejoin too: a rejoined host can later take back,
         by backfill, the path array it held before it left. *)
      let departed = ref [] in
      let join_at point =
        match !departed with
        | id :: rest when Rng.chance rng 0.5 ->
          departed := rest;
          ignore (Can_overlay.join can id point)
        | _ ->
          ignore (Can_overlay.join can !next_id point);
          incr next_id
      in
      let leave_node id =
        ignore (Can_overlay.leave can id);
        departed := id :: !departed
      in
      let leave () =
        let ids = Can_overlay.node_ids can in
        if Array.length ids > 2 then leave_node (Rng.pick rng ids)
      in
      (* The deepest member leaves into its sibling leaf, which then splits
         for a newcomer: one host's zone merges and splits again. *)
      let merge_then_split () =
        let ids = Can_overlay.node_ids can in
        let depth id = Array.length (Can_overlay.node can id).Can_overlay.path in
        let deepest = Array.fold_left (fun acc id -> max acc (depth id)) 0 ids in
        if Array.length ids > 2 && deepest > 0 then begin
          let x = List.find (fun id -> depth id = deepest) (Array.to_list ids) in
          let effect = Can_overlay.leave can x in
          departed := x :: !departed;
          store_write ();
          let zone = (Can_overlay.node can effect.Can_overlay.survivor).Can_overlay.zone in
          join_at (Zone.subzone zone (Point.random rng 2))
        end
      in
      let hosting () =
        Hashtbl.fold
          (fun region () acc ->
            List.map
              (fun (e : Store.Entry.t) -> (region, e.Store.Entry.node, e.Store.Entry.host))
              (Store.region_entries store region)
            @ acc)
          regions []
        |> List.sort compare
      in
      let matches_reference () =
        let owned = Hashtbl.create 64 in
        let hosts_ok =
          Hashtbl.fold
            (fun region () ok ->
              List.fold_left
                (fun ok (e : Store.Entry.t) ->
                  let owner = Can_overlay.owner_of can e.Store.Entry.position in
                  Hashtbl.replace owned owner
                    (1 + Option.value ~default:0 (Hashtbl.find_opt owned owner));
                  ok && e.Store.Entry.host = owner)
                ok (Store.region_entries store region))
            regions true
        in
        hosts_ok
        && Array.for_all
             (fun id ->
               Store.entries_at_host store id
               = Option.value ~default:0 (Hashtbl.find_opt owned id))
             (Can_overlay.node_ids can)
        && Store.check_invariants store = Ok ()
      in
      for node = 0 to n - 1 do
        publish node
      done;
      let ok = ref true in
      for round = 0 to 7 do
        (match round with
        | 0 -> ()
        | 1 -> merge_then_split ()
        | _ ->
          for _ = 0 to Rng.int rng 3 do
            if Rng.chance rng 0.5 then join_at (Point.random rng 2) else leave ();
            for _ = 0 to Rng.int rng 2 do
              store_write ()
            done
          done);
        Store.rehost store;
        let before = hosting () in
        ok := !ok && matches_reference ();
        (* nothing changed: a second rehost moves nothing *)
        Store.rehost store;
        ok := !ok && hosting () = before && matches_reference ()
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "publish and find" `Quick test_publish_find;
    Alcotest.test_case "publish overwrites" `Quick test_publish_overwrites;
    Alcotest.test_case "condensed map placement" `Quick test_entry_position_in_condensed_box;
    Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry;
    Alcotest.test_case "refresh extends life" `Quick test_refresh_extends;
    Alcotest.test_case "unpublish" `Quick test_unpublish;
    Alcotest.test_case "publish into all enclosing regions" `Quick test_publish_all_regions;
    Alcotest.test_case "lookup returns the closest cluster" `Quick test_lookup_finds_closest;
    Alcotest.test_case "lookup bounded by max_results" `Quick test_lookup_respects_max_results;
    Alcotest.test_case "lookup skips expired entries" `Quick test_lookup_skips_expired;
    Alcotest.test_case "lookup on empty region" `Quick test_lookup_empty_region;
    Alcotest.test_case "condense rate concentrates entries" `Quick test_condense_concentrates_entries;
    Alcotest.test_case "load statistics" `Quick test_update_stats;
    Alcotest.test_case "lookup routes reach the host" `Quick test_lookup_route_reaches_host;
    Alcotest.test_case "rehost after churn" `Quick test_rehost_after_churn;
    Alcotest.test_case "rehost after a rejoin and backfill" `Quick test_rehost_rejoined_host_backfill;
    Alcotest.test_case "re-publish preserves load stats" `Quick test_republish_preserves_stats;
    Alcotest.test_case "per-shard sweeps partition expiry" `Quick test_shard_sweep_partition;
    QCheck_alcotest.to_alcotest qcheck_sweep_matches_scan_model;
    QCheck_alcotest.to_alcotest qcheck_host_index_consistent;
    QCheck_alcotest.to_alcotest qcheck_lookup_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_rehost_matches_reference;
  ]
