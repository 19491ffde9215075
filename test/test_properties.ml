(* Cross-module property tests (qcheck): structural invariants that must
   hold for arbitrary inputs, beyond the per-module example tests. *)

module Rng = Prelude.Rng
module Stats = Prelude.Stats
module Graph = Topology.Graph
module Dijkstra = Topology.Dijkstra
module Zone = Geometry.Zone
module Point = Geometry.Point
module Hilbert = Geometry.Hilbert
module Zcurve = Geometry.Zcurve
module Can_overlay = Can.Overlay
module Keyring = Chord.Keyring
module Sim = Engine.Sim

(* Random connected weighted graph for Dijkstra properties. *)
let random_graph seed n extra =
  let rng = Rng.create seed in
  let edges = ref [] in
  for i = 1 to n - 1 do
    edges := (Rng.int rng i, i, Rng.float_in rng 1.0 20.0) :: !edges
  done;
  let seen = Hashtbl.create 16 in
  List.iter (fun (u, v, _) -> Hashtbl.replace seen (min u v, max u v) ()) !edges;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < extra * 10 do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Hashtbl.mem seen (min u v, max u v)) then begin
      Hashtbl.replace seen (min u v, max u v) ();
      edges := (u, v, Rng.float_in rng 1.0 20.0) :: !edges;
      incr added
    end
  done;
  Graph.make n !edges

let qcheck_degree_sum =
  QCheck.Test.make ~name:"sum of degrees = 2 * edges" ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 2 40))
    (fun (seed, n) ->
      let g = random_graph seed n n in
      let sum = ref 0 in
      for u = 0 to n - 1 do
        sum := !sum + Graph.degree g u
      done;
      !sum = 2 * Graph.edge_count g)

let qcheck_dijkstra_triangle =
  QCheck.Test.make ~name:"shortest paths satisfy the triangle inequality" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 3 25))
    (fun (seed, n) ->
      let g = random_graph seed n n in
      let d = Array.init n (fun src -> Dijkstra.distances g src) in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          for w = 0 to n - 1 do
            if d.(u).(w) > d.(u).(v) +. d.(v).(w) +. 1e-9 then ok := false
          done
        done
      done;
      !ok)

let qcheck_dijkstra_symmetric =
  QCheck.Test.make ~name:"undirected shortest paths are symmetric" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 30))
    (fun (seed, n) ->
      let g = random_graph seed n (n / 2) in
      let ok = ref true in
      for u = 0 to n - 1 do
        let du = Dijkstra.distances g u in
        for v = 0 to n - 1 do
          if Float.abs (du.(v) -. Dijkstra.distance g v u) > 1e-9 then ok := false
        done
      done;
      !ok)

(* Zones arising from random split paths. *)
let zone_of_random_path rng depth =
  let bits = Array.init depth (fun _ -> Rng.int rng 2) in
  Can_overlay.zone_of_path ~dims:2 bits

let qcheck_zone_neighbor_symmetric =
  QCheck.Test.make ~name:"zone adjacency is symmetric" ~count:200
    QCheck.(triple (int_range 0 10_000) (int_range 0 6) (int_range 0 6))
    (fun (seed, d1, d2) ->
      let rng = Rng.create seed in
      let a = zone_of_random_path rng d1 and b = zone_of_random_path rng d2 in
      Zone.is_neighbor a b = Zone.is_neighbor b a)

let qcheck_zone_shrink_volume =
  QCheck.Test.make ~name:"shrink scales volume by exactly f" ~count:200
    QCheck.(pair (int_range 0 10_000) (float_range 0.01 1.0))
    (fun (seed, f) ->
      let rng = Rng.create seed in
      let z = zone_of_random_path rng (Rng.int rng 8) in
      Float.abs (Zone.volume (Zone.shrink z f) -. (f *. Zone.volume z)) < 1e-9)

let qcheck_zone_subzone_containment =
  QCheck.Test.make ~name:"subzone maps unit points into the zone" ~count:200
    QCheck.(triple (int_range 0 10_000) (float_range 0.0 0.999) (float_range 0.0 0.999))
    (fun (seed, x, y) ->
      let rng = Rng.create seed in
      let z = zone_of_random_path rng (Rng.int rng 8) in
      Zone.contains z (Zone.subzone z [| x; y |]))

let qcheck_hilbert_beats_zcurve_locality =
  (* The reason Hilbert is the default: consecutive indices are always
     adjacent cells, while Morton jumps.  Quantified over random runs. *)
  QCheck.Test.make ~name:"hilbert locality strictly better than z-order on index runs" ~count:20
    QCheck.(int_range 0 1000)
    (fun start ->
      let bits = 4 and dims = 2 in
      let total = 1 lsl (bits * dims) in
      let start = start mod (total - 32) in
      let jump coords_of =
        let acc = ref 0 in
        for idx = start to start + 30 do
          let a = coords_of ~bits ~dims idx and b = coords_of ~bits ~dims (idx + 1) in
          let d = ref 0 in
          for i = 0 to dims - 1 do
            d := !d + abs (a.(i) - b.(i))
          done;
          acc := !acc + !d
        done;
        !acc
      in
      jump Hilbert.coords_of_index <= jump Zcurve.coords_of_index)

let qcheck_rng_chance_extremes =
  QCheck.Test.make ~name:"chance 0 never fires, chance 1 always fires" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        if Rng.chance rng 0.0 then ok := false;
        if not (Rng.chance rng 1.0) then ok := false
      done;
      !ok)

let qcheck_rng_split_deterministic =
  QCheck.Test.make ~name:"split derives the same child from the same state" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      let ca = Rng.split a and cb = Rng.split b in
      Rng.bits64 ca = Rng.bits64 cb && Rng.bits64 a = Rng.bits64 b)

let qcheck_stats_percentile_bounds =
  QCheck.Test.make ~name:"percentiles lie within sample bounds and are monotone" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let lo = Array.fold_left Float.min arr.(0) arr in
      let hi = Array.fold_left Float.max arr.(0) arr in
      let p25 = Stats.percentile arr 25.0
      and p50 = Stats.percentile arr 50.0
      and p75 = Stats.percentile arr 75.0 in
      lo <= p25 && p25 <= p50 && p50 <= p75 && p75 <= hi)

let qcheck_sim_fires_sorted =
  QCheck.Test.make ~name:"events fire in nondecreasing time order" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 40) (float_bound_exclusive 1000.0))
    (fun delays ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iter (fun d -> ignore (Sim.schedule sim ~delay:d (fun () -> fired := Sim.now sim :: !fired))) delays;
      Sim.run sim;
      let times = List.rev !fired in
      List.length times = List.length delays
      && fst
           (List.fold_left
              (fun (ok, prev) t -> (ok && t >= prev, t))
              (true, neg_infinity) times))

let qcheck_can_owner_total =
  QCheck.Test.make ~name:"every point has exactly one owner" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 1 50))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let t = Can_overlay.create ~dims:2 0 in
      for id = 1 to n - 1 do
        ignore (Can_overlay.join t id (Point.random rng 2))
      done;
      let ok = ref true in
      for _ = 1 to 30 do
        let p = Point.random rng 2 in
        let owner = Can_overlay.owner_of t p in
        (* the owner's zone contains p, and no other member's zone does *)
        if not (Zone.contains (Can_overlay.node t owner).Can_overlay.zone p) then ok := false;
        Array.iter
          (fun id ->
            if id <> owner && Zone.contains (Can_overlay.node t id).Can_overlay.zone p then
              ok := false)
          (Can_overlay.node_ids t)
      done;
      !ok)

(* The prefix index hands out cached snapshots, so the scan is repeated
   after every join and leave of a churn run, and each prefix is asked
   twice in a row: a snapshot left stale by a membership change shows up
   as a wrong set. *)
let qcheck_can_prefix_membership_bruteforce =
  QCheck.Test.make ~name:"members_with_prefix = brute-force path-prefix scan" ~count:25
    QCheck.(triple (int_range 0 10_000) (int_range 2 60) (int_range 0 6))
    (fun (seed, n, plen) ->
      let rng = Rng.create seed in
      let t = Can_overlay.create ~dims:2 0 in
      for id = 1 to n - 1 do
        ignore (Can_overlay.join t id (Point.random rng 2))
      done;
      let agrees prefix =
        let len = Array.length prefix in
        let fast = List.sort compare (Array.to_list (Can_overlay.members_with_prefix t prefix)) in
        let brute =
          List.sort compare
            (List.filter
               (fun id ->
                 let path = (Can_overlay.node t id).Can_overlay.path in
                 Array.length path >= len && Array.for_all2 ( = ) prefix (Array.sub path 0 len))
               (Array.to_list (Can_overlay.node_ids t)))
        in
        fast = brute
      in
      let prefix = Array.init plen (fun _ -> Rng.int rng 2) in
      let shallow = [ [||]; [| 0 |]; [| 1 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1; 0 |] ] in
      let all_agree () = List.for_all (fun p -> agrees p && agrees p) (prefix :: shallow) in
      let ok = ref (all_agree ()) in
      let next = ref n in
      for _ = 1 to 12 do
        if Can_overlay.size t > 1 && Rng.bool rng then begin
          let members = Can_overlay.node_ids t in
          ignore (Can_overlay.leave t members.(Rng.int rng (Array.length members)))
        end
        else begin
          ignore (Can_overlay.join t !next (Point.random rng 2));
          incr next
        end;
        if not (all_agree ()) then ok := false
      done;
      !ok)

(* The identifier ring under Chord and Koorde, checked against a
   brute-force scan of its members at both overlays' default key widths,
   given as (key bits, test-name prefix). *)
let chord_width = (30, "")
let koorde_width = (24, "24-bit ring: ")

let keyring_of ~key_bits seed n =
  let rng = Rng.create seed in
  let t = Keyring.create ~key_bits in
  for id = 0 to n - 1 do
    Keyring.add t id ~key:(Keyring.fresh_key t rng)
  done;
  t

(* The member minimising [dist] among those [keep] accepts; the first in
   member order on ties. *)
let brute_argmin t ?(keep = fun _ -> true) dist =
  Array.fold_left
    (fun best id ->
      if not (keep id) then best
      else
        match best with
        | Some (bd, _) when bd <= dist id -> best
        | _ -> Some (dist id, id))
    None (Keyring.node_ids t)
  |> Option.map snd

(* A ring position from a raw draw: half the time anywhere on the ring,
   half the time on or next to a member key, where off-by-one slips in
   the binary searches show. *)
let position t raw =
  let ring = Keyring.ring_size t in
  if raw mod 2 = 0 then raw * ((ring / 1_000_000) + 1) mod ring
  else begin
    let ids = Keyring.node_ids t in
    let key = Keyring.key_of t ids.(raw / 2 mod Array.length ids) in
    Keyring.clockwise t 0 (key + (raw / 2 mod 3) - 1)
  end

let qcheck_keyring_arc_bruteforce (key_bits, prefix) =
  QCheck.Test.make ~name:(prefix ^ "arc_members = brute-force key scan") ~count:30
    QCheck.(triple (int_range 0 10_000) (int_range 1 50) (pair (int_range 0 1_000_000) (int_range 0 1_000_000)))
    (fun (seed, n, (lo_raw, hi_raw)) ->
      let t = keyring_of ~key_bits seed n in
      let lo = position t lo_raw in
      let span =
        match Keyring.clockwise t lo (position t hi_raw) with 0 -> Keyring.ring_size t | d -> d
      in
      let fast = List.sort compare (Array.to_list (Keyring.arc_members t ~lo ~span)) in
      let brute =
        List.sort compare
          (List.filter
             (fun id -> Keyring.clockwise t lo (Keyring.key_of t id) < span)
             (Array.to_list (Keyring.node_ids t)))
      in
      fast = brute)

let qcheck_keyring_successor_bruteforce (key_bits, prefix) =
  QCheck.Test.make ~name:(prefix ^ "successor_node = brute-force clockwise minimum") ~count:30
    QCheck.(triple (int_range 0 10_000) (int_range 1 40) (int_range 0 1_000_000))
    (fun (seed, n, key_raw) ->
      let t = keyring_of ~key_bits seed n in
      let key = position t key_raw in
      brute_argmin t (fun id -> Keyring.clockwise t key (Keyring.key_of t id))
      = Some (Keyring.successor_node t key))

let qcheck_keyring_charge_bruteforce (key_bits, prefix) =
  QCheck.Test.make ~name:(prefix ^ "charge_node = predecessor of successor_node") ~count:30
    QCheck.(triple (int_range 0 10_000) (int_range 1 40) (int_range 0 1_000_000))
    (fun (seed, n, key_raw) ->
      let t = keyring_of ~key_bits seed n in
      let key = position t key_raw in
      let succ = Keyring.successor_node t key in
      (* the predecessor: the member nearest [succ] counter-clockwise *)
      let pred =
        brute_argmin t
          ~keep:(fun id -> n = 1 || id <> succ)
          (fun id -> Keyring.clockwise t (Keyring.key_of t id) (Keyring.key_of t succ))
      in
      pred = Some (Keyring.charge_node t key))

let qcheck_store_lookup_subset =
  QCheck.Test.make ~name:"store lookup returns a subset of the region's live entries" ~count:20
    QCheck.(pair (int_range 0 10_000) (int_range 5 40))
    (fun (seed, n) ->
      let module Store = Softstate.Store in
      let rng = Rng.create seed in
      let can = Can_overlay.create ~dims:2 0 in
      for id = 1 to n - 1 do
        ignore (Can_overlay.join can id (Point.random rng 2))
      done;
      let scheme = Landmark.Number.default_scheme ~max_latency:100.0 () in
      let store = Store.create ~scheme can in
      for node = 0 to n - 1 do
        Store.publish store ~region:[||] ~node
          ~vector:(Array.init 5 (fun _ -> Rng.float rng 100.0))
      done;
      let all =
        List.sort_uniq compare
          (List.map (fun (e : Store.Entry.t) -> e.Store.Entry.node) (Store.region_entries store [||]))
      in
      let got =
        Store.lookup store ~region:[||]
          ~vector:(Array.init 5 (fun _ -> Rng.float rng 100.0))
          ~max_results:8 ~ttl:4 ()
      in
      List.for_all (fun (e : Store.Entry.t) -> List.mem e.Store.Entry.node all) got
      && List.length got <= 8)

let qcheck_serialize_roundtrip =
  QCheck.Test.make ~name:"serialize/parse roundtrips random topologies" ~count:20
    QCheck.(
      pair (int_range 0 10_000)
        (quad (int_range 1 3) (int_range 1 3) (int_range 1 3) (int_range 1 6)))
    (fun (seed, (domains, per_domain, stubs_per, stub_size)) ->
      let module Ts = Topology.Transit_stub in
      let p =
        {
          Ts.transit_domains = domains;
          transit_nodes_per_domain = per_domain;
          stubs_per_transit_node = stubs_per;
          stub_size;
          extra_domain_edges = domains;
          extra_edge_fraction = 0.3;
          latency = Ts.Gtitm_random;
        }
      in
      let t = Ts.generate (Rng.create seed) p in
      match Topology.Serialize.of_string (Topology.Serialize.to_string t) with
      | Ok t' ->
        List.sort compare (Graph.edges t.Ts.graph) = List.sort compare (Graph.edges t'.Ts.graph)
        && t.Ts.stub_members = t'.Ts.stub_members
      | Error _ -> false)

let qcheck_hilbert_point_roundtrip_cell =
  QCheck.Test.make ~name:"point -> index -> cell center stays within a cell" ~count:200
    QCheck.(pair (float_range 0.0 0.999) (float_range 0.0 0.999))
    (fun (x, y) ->
      let bits = 5 in
      let idx = Hilbert.index_of_point ~bits [| x; y |] in
      let back = Hilbert.point_of_index ~bits ~dims:2 idx in
      let cell = 1.0 /. float_of_int (1 lsl bits) in
      Float.abs (back.(0) -. x) <= cell && Float.abs (back.(1) -. y) <= cell)

let qcheck_coordinates_estimate_metric =
  QCheck.Test.make ~name:"coordinate estimates are symmetric and triangle-consistent" ~count:100
    QCheck.(list_of_size (Gen.return 9) (float_range (-100.0) 100.0))
    (fun raw ->
      match raw with
      | [ a1; a2; a3; b1; b2; b3; c1; c2; c3 ] ->
        let module C = Landmark.Coordinates in
        let a = [| a1; a2; a3 |] and b = [| b1; b2; b3 |] and c = [| c1; c2; c3 |] in
        Float.abs (C.estimate a b -. C.estimate b a) < 1e-9
        && C.estimate a c <= C.estimate a b +. C.estimate b c +. 1e-9
      | _ -> false)

let qcheck_heap_length_tracks =
  QCheck.Test.make ~name:"heap length tracks pushes and pops" ~count:100
    QCheck.(list (float_bound_exclusive 100.0))
    (fun xs ->
      let module Heap = Prelude.Heap in
      let h = Heap.create ~before:(fun (p, _) (q, _) -> p < q) ~dummy:(nan, -1) () in
      List.iteri (fun i x -> Heap.push h (x, i)) xs;
      let n = List.length xs in
      let ok = ref (Heap.length h = n) in
      for expect = n - 1 downto 0 do
        ignore (Heap.pop h);
        if Heap.length h <> expect then ok := false
      done;
      !ok)

(* The float-priority heap that ran the store's expiry heaps before the
   heap took its order at creation, kept verbatim as the reference for
   the order of equal priorities. *)
module Ref_heap = struct
  type 'a entry = { prio : float; value : 'a }
  type 'a t = { mutable data : 'a entry array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if h.data.(i).prio < h.data.(parent).prio then begin
        let tmp = h.data.(i) in
        h.data.(i) <- h.data.(parent);
        h.data.(parent) <- tmp;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && h.data.(l).prio < h.data.(!smallest).prio then smallest := l;
    if r < h.size && h.data.(r).prio < h.data.(!smallest).prio then smallest := r;
    if !smallest <> i then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(!smallest);
      h.data.(!smallest) <- tmp;
      sift_down h !smallest
    end

  let push h prio value =
    let entry = { prio; value } in
    if h.size = Array.length h.data then begin
      let ndata = Array.make (max 16 (2 * h.size)) entry in
      Array.blit h.data 0 ndata 0 h.size;
      h.data <- ndata
    end;
    h.data.(h.size) <- entry;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.data.(0) <- h.data.(h.size);
        sift_down h 0
      end;
      Some (top.prio, top.value)
    end
end

(* Random interleaved pushes ([Some p], a priority out of four, so most
   pushes tie) and pops ([None]); every pop must return the reference's
   element, ties included. *)
let qcheck_heap_matches_reference =
  QCheck.Test.make ~name:"heap pops what the float-priority heap popped, ties included" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 300) (option ~ratio:0.7 (int_bound 3)))
    (fun ops ->
      let module Heap = Prelude.Heap in
      let h = Heap.create ~before:(fun (p, _) (q, _) -> p < q) ~dummy:(nan, -1) ()
      and r = Ref_heap.create () in
      let ok = ref true in
      let pop_both () = if Heap.pop h <> Ref_heap.pop r then ok := false in
      List.iteri
        (fun i op ->
          match op with
          | Some p ->
            Heap.push h (float_of_int p, i);
            Ref_heap.push r (float_of_int p) i
          | None -> pop_both ())
        ops;
      while not (Heap.is_empty h) do
        pop_both ()
      done;
      !ok && Ref_heap.pop r = None)

(* A list-scan event queue: fire the least [(time, seq)] queued event,
   [seq] counting every enqueue, and re-arm a periodic timer before its
   callback runs.  The reference for [Sim]'s order. *)
module Ref_sim = struct
  type ev = { time : float; seq : int; run : unit -> unit; mutable active : bool }
  type timer = { mutable ev : ev option; mutable alive : bool }
  type t = { mutable clock : float; mutable seq : int; mutable queue : ev list }

  let create () = { clock = 0.0; seq = 0; queue = [] }

  let enqueue t time run =
    let e = { time; seq = t.seq; run; active = true } in
    t.seq <- t.seq + 1;
    t.queue <- e :: t.queue;
    e

  let schedule_at t time run = { ev = Some (enqueue t time run); alive = true }

  let every t ~period run =
    let timer = { ev = None; alive = true } in
    let rec fire () =
      if timer.alive then begin
        timer.ev <- Some (enqueue t (t.clock +. period) fire);
        run ()
      end
    in
    timer.ev <- Some (enqueue t (t.clock +. period) fire);
    timer

  let cancel timer =
    timer.alive <- false;
    Option.iter (fun e -> e.active <- false) timer.ev

  let run t =
    let rec loop () =
      match t.queue with
      | [] -> ()
      | e0 :: _ ->
        let e =
          List.fold_left
            (fun m e -> if e.time < m.time || (e.time = m.time && e.seq < m.seq) then e else m)
            e0 t.queue
        in
        t.queue <- List.filter (fun e' -> e' != e) t.queue;
        t.clock <- e.time;
        if e.active then begin
          e.active <- false;
          e.run ()
        end;
        loop ()
    in
    loop ()
end

(* One random schedule, driven through either engine: [starts] events
   at small integer times (so many share an instant); event [i] with
   [i < Array.length specs] schedules more events [delays] from now,
   0 included, and cancels event [target] if it exists; a periodic timer
   schedules one more event [spawn] from each beat, and cancels itself
   after [beats] beats.  Returns the (time, event) firing log, the
   periodic timer's beats as event -1. *)
let run_schedule ~now ~at ~every ~cancel ~run (starts, specs, (period, beats, spawn)) =
  let log = ref [] and timers = Hashtbl.create 64 and next = ref 0 in
  let rec add time =
    let id = !next in
    incr next;
    Hashtbl.replace timers id (at time (fun () -> fire id))
  and fire id =
    log := (now (), id) :: !log;
    if id < Array.length specs then begin
      let delays, target = specs.(id) in
      List.iter (fun d -> add (now () +. float_of_int d)) delays;
      Option.iter (fun k -> Option.iter cancel (Hashtbl.find_opt timers k)) target
    end
  in
  List.iter (fun t -> add (float_of_int t)) starts;
  let count = ref 0 in
  let rec periodic =
    lazy
      (every (float_of_int period) (fun () ->
           log := (now (), -1) :: !log;
           add (now () +. float_of_int spawn);
           incr count;
           if !count >= beats then cancel (Lazy.force periodic)))
  in
  ignore (Lazy.force periodic);
  run ();
  List.rev !log

let qcheck_sim_time_seq_order =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 20) (int_bound 4))
        (array_size (int_range 0 40)
           (pair (list_size (int_bound 3) (int_bound 2)) (option ~ratio:0.3 (int_bound 60))))
        (triple (int_range 1 3) (int_range 1 4) (int_bound 3)))
  in
  QCheck.Test.make ~name:"sim fires random schedules in (time, seq) order" ~count:200
    (QCheck.make gen)
    (fun input ->
      let sim = Sim.create () in
      let got =
        run_schedule
          ~now:(fun () -> Sim.now sim)
          ~at:(Sim.schedule_at sim)
          ~every:(fun period f -> Sim.every sim ~period f)
          ~cancel:Sim.cancel
          ~run:(fun () -> Sim.run sim)
          input
      in
      let r = Ref_sim.create () in
      let expect =
        run_schedule
          ~now:(fun () -> r.Ref_sim.clock)
          ~at:(Ref_sim.schedule_at r)
          ~every:(fun period f -> Ref_sim.every r ~period f)
          ~cancel:Ref_sim.cancel
          ~run:(fun () -> Ref_sim.run r)
          input
      in
      got = expect && Sim.pending sim = 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_serialize_roundtrip;
      qcheck_hilbert_point_roundtrip_cell;
      qcheck_coordinates_estimate_metric;
      qcheck_heap_length_tracks;
      qcheck_degree_sum;
      qcheck_dijkstra_triangle;
      qcheck_dijkstra_symmetric;
      qcheck_zone_neighbor_symmetric;
      qcheck_zone_shrink_volume;
      qcheck_zone_subzone_containment;
      qcheck_hilbert_beats_zcurve_locality;
      qcheck_rng_chance_extremes;
      qcheck_rng_split_deterministic;
      qcheck_stats_percentile_bounds;
      qcheck_sim_fires_sorted;
      qcheck_can_owner_total;
      qcheck_can_prefix_membership_bruteforce;
      qcheck_keyring_arc_bruteforce chord_width;
      qcheck_keyring_successor_bruteforce chord_width;
      qcheck_store_lookup_subset;
      qcheck_keyring_charge_bruteforce chord_width;
      qcheck_keyring_arc_bruteforce koorde_width;
      qcheck_keyring_successor_bruteforce koorde_width;
      qcheck_keyring_charge_bruteforce koorde_width;
      qcheck_heap_matches_reference;
      qcheck_sim_time_seq_order;
    ]
