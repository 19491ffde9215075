module Zone = Geometry.Zone
module Can_overlay = Can.Overlay
module Number = Landmark.Number
module Heap = Prelude.Heap

module Entry = struct
  type t = {
    node : int;
    vector : float array;
    number : int;
    position : Geometry.Point.t;
    mutable host : int;
    mutable expires : float;
    mutable load : float;
    mutable capacity : float;
  }
end

(* A host bucket: a compact growable array of entries with swap-remove.
   The seed kept [Entry.t list ref]s and rebuilt each list with
   [List.filter] on every retraction — O(bucket) allocation per
   unpublish.  Buckets have no observable order (every reader either
   counts, tests membership, or re-sorts by vector distance), so
   swap-remove is free to reorder.  A removed slot keeps its stale
   pointer until the next add overwrites it; retention is bounded by the
   bucket's high-water capacity. *)
module Bucket = struct
  type t = { mutable arr : Entry.t array; mutable len : int }

  let create () = { arr = [||]; len = 0 }

  let add b (e : Entry.t) =
    if b.len = Array.length b.arr then begin
      let narr = Array.make (max 4 (2 * b.len)) e in
      Array.blit b.arr 0 narr 0 b.len;
      b.arr <- narr
    end;
    b.arr.(b.len) <- e;
    b.len <- b.len + 1

  let remove_node b node =
    let i = ref 0 in
    while !i < b.len && b.arr.(!i).Entry.node <> node do
      incr i
    done;
    if !i < b.len then begin
      b.len <- b.len - 1;
      b.arr.(!i) <- b.arr.(b.len)
    end

  let iter f b =
    for i = 0 to b.len - 1 do
      f b.arr.(i)
    done

  let exists p b =
    let rec go i = i < b.len && (p b.arr.(i) || go (i + 1)) in
    go 0
end

type region_map = {
  box : Zone.t;
  shard : int;  (* owning shard index, fixed by the region key *)
  entries : (int, Entry.t) Hashtbl.t;  (* by described node *)
  by_host : (int, Bucket.t) Hashtbl.t;  (* overlay host -> entries *)
}

(* An expiry-heap record.  Records are never removed eagerly: a refresh,
   re-publish or retraction leaves the old record in the heap and it is
   recognised as stale when popped (the map no longer holds that exact
   entry, or the entry's current [expires] stamp moved past the record's
   priority). *)
type hrec = { hr_key : int; hr_entry : Entry.t }

(* A host's record in a shard's host index: the keys of the shard's maps
   where the host has a bucket, and the CAN node record and path array
   the host had when the record was made.  [Can.Overlay] makes a new node
   record on every join, and gives a member a new path array on every
   zone change without writing one in place; a member only takes over an
   array that was a leaving node's.  So while the host's node and path
   are physically these, it has been a member throughout and its zone is
   unchanged, and every entry in those buckets still lies in it. *)
type host_rec = { node : Can_overlay.node; placed : int array; mutable keys : int list }

type shard = {
  expiry : hrec Heap.t;
  hosts : (int, host_rec) Hashtbl.t;  (* host -> its buckets in this shard *)
}

type obs = {
  publishes : Engine.Metrics.counter;
  refreshes : Engine.Metrics.counter;
  expired : Engine.Metrics.counter;
  sweep_visited : Engine.Metrics.counter;
  domain_batches : Engine.Metrics.counter;
  domain_tasks : Engine.Metrics.counter;
  tracer : Engine.Trace.t option;
}

type t = {
  can : Can_overlay.t;
  scheme : Number.scheme;
  condense : float;
  default_ttl : float;
  clock : unit -> float;
  maps : (int, region_map) Hashtbl.t;  (* region path key *)
  regions : (int, int array) Hashtbl.t;  (* region path key -> path bits *)
  shards : shard array;
  node_index : (int, (int, Entry.t) Hashtbl.t) Hashtbl.t;
      (* described node -> region key -> entry; reverse index so the
         per-node operations avoid scanning every map *)
  pool : Engine.Dpool.t;
      (* hosts whole-store phases (sweep scans, rehost, stats); shard i's
         heap is touched from slot i of this pool during a batch, from the
         coordinator otherwise *)
  obs : obs option;
}

(* The key is the sentinel-prefixed region path, so taking it mod the
   shard count spreads regions by their prefix bits; sibling regions land
   on different shards and each shard's heap is swept independently. *)
let shard_of_key t key = key mod Array.length t.shards

let create ?metrics ?(labels = []) ?trace ?pool ?(shards = 1) ?(condense = 1.0)
    ?(default_ttl = 600_000.0) ?(clock = fun () -> 0.0) ~scheme can =
  if shards < 1 then invalid_arg "Store.create: shards must be >= 1";
  if condense <= 0.0 then invalid_arg "Store.create: condense must be positive";
  if default_ttl <= 0.0 then invalid_arg "Store.create: ttl must be positive";
  let obs =
    Option.map
      (fun m ->
        {
          publishes = Engine.Metrics.counter m ~labels "store_publishes";
          refreshes = Engine.Metrics.counter m ~labels "store_refreshes";
          expired = Engine.Metrics.counter m ~labels "store_expired";
          sweep_visited = Engine.Metrics.counter m ~labels "store_sweep_visited";
          domain_batches = Engine.Metrics.counter m ~labels "domain_batches";
          domain_tasks = Engine.Metrics.counter m ~labels "domain_tasks";
          tracer = trace;
        })
      metrics
  in
  {
    can;
    scheme;
    condense;
    default_ttl;
    clock;
    maps = Hashtbl.create 256;
    regions = Hashtbl.create 256;
    shards =
      Array.init shards (fun _ ->
          { expiry = Heap.create ~capacity:256 (); hosts = Hashtbl.create 64 });
    node_index = Hashtbl.create 256;
    pool = (match pool with Some p -> p | None -> Engine.Dpool.default ());
    obs;
  }

(* Dispatch accounting: batch/task counts depend only on the call sites
   and shard count, never on the pool size, so they are byte-identical
   across single- and multi-domain runs. *)
let pool_run t n f =
  (match t.obs with
  | Some o ->
    Engine.Metrics.incr o.domain_batches;
    Engine.Metrics.add o.domain_tasks n
  | None -> ());
  Engine.Dpool.run t.pool n f

let can t = t.can
let shard_count t = Array.length t.shards
let shard_of_region t region = shard_of_key t (Can_overlay.region_key region)

(* The map's volume fraction of its region at condense rate 1. *)
let base_fraction = 0.125

let map_fraction t = Float.min 1.0 (t.condense *. base_fraction)

let map_box t region =
  let zone = Can_overlay.zone_of_path ~dims:(Can_overlay.dims t.can) region in
  Zone.shrink zone (map_fraction t)

let map_for t region =
  let key = Can_overlay.region_key region in
  match Hashtbl.find_opt t.maps key with
  | Some m -> m
  | None ->
    let m =
      {
        box = map_box t region;
        shard = shard_of_key t key;
        (* [entries]'s capacity is load-bearing: its iteration order feeds
           [inject_staleness]'s RNG stream and [region_entries].  [by_host]
           is never iterated in an observable order, so its capacity is a
           free hint (sized for a populated region's host set). *)
        entries = Hashtbl.create 16;
        by_host = Hashtbl.create 64;
      }
    in
    Hashtbl.replace t.maps key m;
    Hashtbl.replace t.regions key (Array.copy region);
    m

let live t (e : Entry.t) = e.Entry.expires > t.clock ()

let schedule_expiry t ~key m (e : Entry.t) =
  Heap.push t.shards.(m.shard).expiry e.Entry.expires { hr_key = key; hr_entry = e }

(* [host] owns the entry's position now.  A new bucket goes on the host's
   record, made now if the host has none. *)
let host_add t ~key m host entry =
  match Hashtbl.find_opt m.by_host host with
  | Some b -> Bucket.add b entry
  | None ->
    let b = Bucket.create () in
    Bucket.add b entry;
    Hashtbl.replace m.by_host host b;
    let hosts = t.shards.(m.shard).hosts in
    (match Hashtbl.find hosts host with
    | hr -> hr.keys <- key :: hr.keys
    | exception Not_found ->
      let node = Can_overlay.node t.can host in
      Hashtbl.replace hosts host { node; placed = node.Can_overlay.path; keys = [ key ] })

(* Emptied buckets stay in the table: a host that cycles between zero and
   a few entries reuses its bucket's backing array instead of
   reallocating it on every refill. *)
let host_remove m host (entry : Entry.t) =
  match Hashtbl.find_opt m.by_host host with
  | Some b -> Bucket.remove_node b entry.Entry.node
  | None -> ()

let index_add t node ~key entry =
  match Hashtbl.find_opt t.node_index node with
  | Some inner -> Hashtbl.replace inner key entry
  | None ->
    let inner = Hashtbl.create 8 in
    Hashtbl.replace inner key entry;
    Hashtbl.replace t.node_index node inner

let index_remove t node ~key =
  match Hashtbl.find_opt t.node_index node with
  | Some inner ->
    Hashtbl.remove inner key;
    if Hashtbl.length inner = 0 then Hashtbl.remove t.node_index node
  | None -> ()

(* The owning host is cached on the entry, so a retraction never re-runs
   the overlay's point-location walk — and it removes from the exact
   bucket [host_add] used even if ownership drifted since publish
   ({!rehost} refreshes the cache when the overlay changes). *)
let remove_entry t ~key m (entry : Entry.t) =
  Hashtbl.remove m.entries entry.Entry.node;
  host_remove m entry.Entry.host entry;
  index_remove t entry.Entry.node ~key

let publish t ~region ~node ~vector =
  let key = Can_overlay.region_key region in
  let m = map_for t region in
  (* A re-publish is a refresh-by-replacement: the piggybacked load
     statistics survive the new entry. *)
  let old_load, old_capacity =
    match Hashtbl.find_opt m.entries node with
    | Some old ->
      remove_entry t ~key m old;
      (old.Entry.load, old.Entry.capacity)
    | None -> (0.0, 1.0)
  in
  let position = Number.position_in_zone t.scheme m.box vector in
  let host = Can_overlay.owner_of t.can position in
  let entry =
    {
      Entry.node;
      vector = Array.copy vector;
      number = Number.number t.scheme vector;
      position;
      host;
      expires = t.clock () +. t.default_ttl;
      load = old_load;
      capacity = old_capacity;
    }
  in
  Hashtbl.replace m.entries node entry;
  host_add t ~key m host entry;
  index_add t node ~key entry;
  schedule_expiry t ~key m entry;
  match t.obs with
  | None -> ()
  | Some o ->
    Engine.Metrics.incr o.publishes;
    Option.iter
      (fun tr ->
        Engine.Trace.emit tr ~peer:node (Engine.Trace.Map_publish { region }) ~node:host)
      o.tracer

let enclosing_regions ~span_bits path =
  let len = Array.length path in
  let rec go acc l = if l < 0 then acc else go (Array.sub path 0 l :: acc) (l - span_bits) in
  (* Regions at digit granularity, from the root down to the node's
     deepest complete high-order zone. *)
  go [] (len / span_bits * span_bits)

let publish_all t ~span_bits ~node ~vector =
  if span_bits < 1 then invalid_arg "Store.publish_all: span_bits must be >= 1";
  let path = (Can_overlay.node t.can node).Can_overlay.path in
  List.iter (fun region -> publish t ~region ~node ~vector) (enclosing_regions ~span_bits path)

let unpublish t ~region ~node =
  let key = Can_overlay.region_key region in
  match Hashtbl.find_opt t.maps key with
  | None -> ()
  | Some m ->
    (match Hashtbl.find_opt m.entries node with
    | Some e -> remove_entry t ~key m e
    | None -> ())

let unpublish_everywhere t node =
  match Hashtbl.find_opt t.node_index node with
  | None -> ()
  | Some inner ->
    let keyed = Hashtbl.fold (fun key e acc -> (key, e) :: acc) inner [] in
    List.iter
      (fun (key, e) ->
        match Hashtbl.find_opt t.maps key with
        | Some m -> remove_entry t ~key m e
        | None -> ())
      keyed

let with_live_entry t ~region ~node f =
  match Hashtbl.find_opt t.maps (Can_overlay.region_key region) with
  | None -> ()
  | Some m ->
    (match Hashtbl.find_opt m.entries node with
    | Some e when live t e -> f e
    | Some _ | None -> ())

(* One probe: the map by the prefix's key, then the entry. *)
let refresh_prefix t ~path ~len ~node =
  if len < 0 || len > Array.length path then invalid_arg "Store.refresh_prefix: len out of range";
  let key = Can_overlay.path_key path len in
  match Hashtbl.find t.maps key with
  | exception Not_found -> false
  | m -> (
    match Hashtbl.find m.entries node with
    | e when live t e ->
      e.Entry.expires <- t.clock () +. t.default_ttl;
      (* Lazy heap discipline: push a record at the new stamp; the record
         from the previous stamp pops as stale. *)
      schedule_expiry t ~key m e;
      (match t.obs with None -> () | Some o -> Engine.Metrics.incr o.refreshes);
      true
    | _ | (exception Not_found) -> false)

let refresh t ~region ~node = refresh_prefix t ~path:region ~len:(Array.length region) ~node

let update_stats t ~region ~node ~load ~capacity =
  with_live_entry t ~region ~node (fun e ->
      e.Entry.load <- load;
      e.Entry.capacity <- capacity)

let find t ~region ~node =
  match Hashtbl.find_opt t.maps (Can_overlay.region_key region) with
  | None -> None
  | Some m ->
    (match Hashtbl.find_opt m.entries node with
    | Some e when live t e -> Some e
    | Some _ | None -> None)

let region_box t region =
  match Hashtbl.find_opt t.maps (Can_overlay.region_key region) with
  | Some m -> m.box
  | None -> map_box t region

let host_in_box t box vector =
  Can_overlay.owner_of t.can (Number.position_in_zone t.scheme box vector)

let host_of t ~region ~vector = host_in_box t (region_box t region) vector

let lookup_route t ~from ~region ~vector =
  Can_overlay.route t.can ~src:from
    (Number.position_in_zone t.scheme (region_box t region) vector)

(* The lookup order: ascending (vector distance, node id).  A map holds
   one entry per node, so this is a total order, and it is the order
   [compare] gives on (distance, node, entry) tuples ([Float.compare]
   orders floats, NaN included, as polymorphic compare does).  Inlined,
   so the distances it reads from the top-k buffer stay unboxed. *)
let[@inline] precedes d node d' node' =
  let c = Float.compare d d' in
  c < 0 || (c = 0 && node < node')

(* The [cap] least (distance, entry) pairs offered so far, ascending.  The
   arrays grow on demand up to [cap], so a large [max_results] costs
   nothing until entries arrive. *)
module Topk = struct
  type t = {
    cap : int;
    mutable dist : float array;
    mutable ents : Entry.t array;
    mutable len : int;
  }

  let create cap = { cap; dist = [||]; ents = [||]; len = 0 }

  let grow k (e : Entry.t) =
    let size = min k.cap (max 8 (2 * k.len)) in
    let dist = Array.make size 0.0 and ents = Array.make size e in
    Array.blit k.dist 0 dist 0 k.len;
    Array.blit k.ents 0 ents 0 k.len;
    k.dist <- dist;
    k.ents <- ents

  (* Inlined into [lookup], so [d] arrives unboxed. *)
  let[@inline] offer k d (e : Entry.t) =
    let node = e.Entry.node in
    let last = k.len - 1 in
    (* [slot] is a free slot at the end, or the evicted maximum's *)
    let slot =
      if k.len < k.cap then begin
        if k.len = Array.length k.ents then grow k e;
        k.len <- k.len + 1;
        last + 1
      end
      else if k.cap > 0 && precedes d node k.dist.(last) k.ents.(last).Entry.node then last
      else -1
    in
    if slot >= 0 then begin
      let i = ref slot in
      while !i > 0 && precedes d node k.dist.(!i - 1) k.ents.(!i - 1).Entry.node do
        k.dist.(!i) <- k.dist.(!i - 1);
        k.ents.(!i) <- k.ents.(!i - 1);
        decr i
      done;
      k.dist.(!i) <- d;
      k.ents.(!i) <- e
    end

  let to_list k =
    let rec go i acc = if i < 0 then acc else go (i - 1) (k.ents.(i) :: acc) in
    go (k.len - 1) []
end

let lookup t ~region ~vector ?(max_results = 16) ?(ttl = 2) ?max_load () =
  match Hashtbl.find_opt t.maps (Can_overlay.region_key region) with
  | None -> []
  | Some m ->
    let now = t.clock () in
    let top = Topk.create max_results in
    let count = ref 0 in
    (* QoS consultation: with [max_load], entries whose piggybacked load
       statistic exceeds the bound are invisible to this lookup — an
       overloaded node never enters the candidate set. *)
    let offer (e : Entry.t) =
      if e.Entry.expires > now
         && match max_load with None -> true | Some bound -> e.Entry.load <= bound
      then begin
        incr count;
        (* [Landmarks.vector_dist], inlined: the same operations in the
           same order, without boxing the distance across the call. *)
        let v = e.Entry.vector in
        if Array.length vector <> Array.length v then
          invalid_arg "Landmarks.vector_dist: length mismatch";
        let acc = ref 0.0 in
        for i = 0 to Array.length vector - 1 do
          let d = vector.(i) -. v.(i) in
          acc := !acc +. (d *. d)
        done;
        Topk.offer top (sqrt !acc) e
      end
    in
    let visit host =
      match Hashtbl.find_opt m.by_host host with Some b -> Bucket.iter offer b | None -> ()
    in
    let start = host_in_box t m.box vector in
    visit start;
    (* Table 1's "define a TTL to search outside": widen ring by ring over
       CAN neighbors whose zones still intersect the map box.  Each ring
       is visited whole, so [count] holds every admissible live entry seen
       so far.  A lookup visits about two hosts, so the visited set is a
       list. *)
    let seen = ref [ start ] in
    let frontier = ref [ start ] in
    let hops = ref 0 in
    while !count < max_results && !hops < ttl && !frontier <> [] do
      incr hops;
      let next = ref [] in
      List.iter
        (fun h ->
          List.iter
            (fun nid ->
              if (not (List.mem nid !seen))
                 && Zone.intersects m.box (Can_overlay.node t.can nid).Can_overlay.zone
              then begin
                seen := nid :: !seen;
                next := nid :: !next
              end)
            (Can_overlay.node t.can h).Can_overlay.neighbors)
        !frontier;
      List.iter visit !next;
      frontier := !next
    done;
    Topk.to_list top

let region_entries t region =
  match Hashtbl.find_opt t.maps (Can_overlay.region_key region) with
  | None -> []
  | Some m -> Hashtbl.fold (fun _ e acc -> if live t e then e :: acc else acc) m.entries []

let regions_of t node =
  match Hashtbl.find_opt t.node_index node with
  | None -> []
  | Some inner ->
    Hashtbl.fold
      (fun key e acc -> if live t e then Hashtbl.find t.regions key :: acc else acc)
      inner []

let described_nodes t =
  Hashtbl.fold
    (fun node inner acc ->
      if Hashtbl.fold (fun _ e any -> any || live t e) inner false then node :: acc else acc)
    t.node_index []

let entries_at_host t host =
  Hashtbl.fold
    (fun _ m acc ->
      match Hashtbl.find_opt m.by_host host with
      | Some b ->
        let c = ref 0 in
        Bucket.iter (fun e -> if live t e then incr c) b;
        acc + !c
      | None -> acc)
    t.maps 0

(* Per-host entry counts for every overlay node, computed in shard-count
   many read-only chunks (the chunk count is tied to the shard count, not
   the pool size, so dispatch accounting stays pool-size-invariant).
   Task j counts the j-th contiguous slice of the node-id array; the
   slices concatenate back in node order, identical to a sequential
   map. *)
let host_counts t =
  let ids = Can_overlay.node_ids t.can in
  let n = Array.length ids in
  if n = 0 then [||]
  else begin
    let chunks = min n (Array.length t.shards) in
    let per = (n + chunks - 1) / chunks in
    let slices =
      pool_run t chunks (fun j ->
          let lo = j * per in
          let hi = min n (lo + per) in
          Array.init (max 0 (hi - lo)) (fun k -> entries_at_host t ids.(lo + k)))
    in
    Array.concat (Array.to_list slices)
  end

let avg_entries_per_node t =
  let counts = host_counts t in
  if Array.length counts = 0 then 0.0
  else begin
    let total = Array.fold_left ( + ) 0 counts in
    float_of_int total /. float_of_int (Array.length counts)
  end

let hosting_stats t =
  let counts =
    Array.to_list (host_counts t)
    |> List.filter (fun c -> c > 0)
    |> List.map float_of_int
  in
  Prelude.Stats.summarize (Array.of_list counts)

(* Sweeping is split into a {e scan} phase that may run on the shard's
   pool slot and an {e apply} phase that always runs on the coordinator
   (DESIGN.md §12).

   Scan pops the shard's heap while the minimum stamp is due.  Each
   popped record is checked against the current map contents: only a
   record whose entry is still exactly the one in the map, and whose
   current stamp is due, is a purge candidate; everything else is a stale
   record from a superseded stamp.  The scan mutates nothing but the
   shard-private heap — map reads are concurrent-safe because nothing
   writes the maps while a scan batch is in flight — so scanning shards
   in parallel observes exactly the state a sequential sweep would.
   [claimed] replays the sequential semantics for duplicate due records
   of one entry (stamp moved, both stamps due): only the first purges.
   Cost: O((expired + stale) * log heap) — independent of the number of
   live entries. *)
let scan_shard_due t i now =
  let heap = t.shards.(i).expiry in
  let visited = ref 0 in
  let claimed = Hashtbl.create 64 in
  let due = ref [] in
  let rec loop () =
    match Heap.peek heap with
    | Some (prio, _) when prio <= now ->
      (match Heap.pop heap with
      | Some (_, r) ->
        incr visited;
        (match Hashtbl.find_opt t.maps r.hr_key with
        | Some m ->
          (match Hashtbl.find_opt m.entries r.hr_entry.Entry.node with
          | Some cur
            when cur == r.hr_entry && cur.Entry.expires <= now
                 && not (Hashtbl.mem claimed (r.hr_key, cur.Entry.node)) ->
            Hashtbl.replace claimed (r.hr_key, cur.Entry.node) ();
            due := (r.hr_key, cur) :: !due
          | Some _ | None -> ())
        | None -> ());
        loop ()
      | None -> ())
    | Some _ | None -> ()
  in
  loop ();
  (List.rev !due, !visited)

(* Apply a scan's purge candidates in scan order, on the coordinator —
   the deterministic merge point for cross-shard effects. *)
let apply_purges t due =
  List.map
    (fun (key, (cur : Entry.t)) ->
      let m = Hashtbl.find t.maps key in
      remove_entry t ~key m cur;
      (Hashtbl.find t.regions key, cur))
    due

let observe_sweep t ~visited ~purged =
  match t.obs with
  | None -> ()
  | Some o ->
    Engine.Metrics.add o.sweep_visited visited;
    Engine.Metrics.add o.expired (List.length purged);
    Option.iter
      (fun tr ->
        Engine.Trace.emit tr (Engine.Trace.Ttl_sweep { purged = List.length purged }) ~node:(-1))
      o.tracer

let sweep_shard t i =
  if i < 0 || i >= Array.length t.shards then invalid_arg "Store.sweep_shard: shard out of range";
  (* Between batches the coordinator owns every shard (DESIGN.md §12);
     a one-task batch could only block it while a worker scanned. *)
  let due, visited = scan_shard_due t i (t.clock ()) in
  let purged = apply_purges t due in
  observe_sweep t ~visited ~purged;
  purged

let sweep_expired t =
  let now = t.clock () in
  (* One batch: shard i's scan is task i (stable placement keeps each heap
     on its slot), then the purges apply sequentially in shard order —
     the same order the sequential per-shard loop used. *)
  let scans = pool_run t (Array.length t.shards) (fun i -> scan_shard_due t i now) in
  let visited = Array.fold_left (fun acc (_, v) -> acc + v) 0 scans in
  let purged = List.concat_map (fun (due, _) -> apply_purges t due) (Array.to_list scans) in
  observe_sweep t ~visited ~purged;
  purged

let expire_sweep t = List.length (sweep_expired t)

let inject_staleness t ~rng ~fraction =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Store.inject_staleness: fraction out of [0,1]";
  let now = t.clock () in
  let aged = ref 0 in
  Hashtbl.iter
    (fun key m ->
      Hashtbl.iter
        (fun _ e ->
          if live t e && Prelude.Rng.chance rng fraction then begin
            e.Entry.expires <- now;
            schedule_expiry t ~key m e;
            incr aged
          end)
        m.entries)
    t.maps;
  !aged

(* A host that left, or whose node record or path array is not the one
   on its record, is stale: its entries may lie outside its zone.  All
   stale buckets are detached before any entry is re-placed, so a
   re-placed entry never lands in a bucket that is about to be
   detached. *)
let rehost_shard t i =
  let hosts = t.shards.(i).hosts in
  let stale =
    Hashtbl.fold
      (fun host hr acc ->
        match Can_overlay.node t.can host with
        | n when n == hr.node && n.Can_overlay.path == hr.placed -> acc
        | _ | (exception Not_found) -> (host, hr) :: acc)
      hosts []
  in
  let detached =
    List.concat_map
      (fun (host, hr) ->
        Hashtbl.remove hosts host;
        List.map
          (fun key ->
            let m = Hashtbl.find t.maps key in
            let b = Hashtbl.find m.by_host host in
            Hashtbl.remove m.by_host host;
            (key, m, b))
          hr.keys)
      stale
  in
  List.iter
    (fun (key, m, b) ->
      Bucket.iter
        (fun (e : Entry.t) ->
          e.Entry.host <- Can_overlay.owner_of t.can e.Entry.position;
          host_add t ~key m e.Entry.host e)
        b)
    detached

let rehost t =
  (* Shard-disjoint: task i re-places entries of the maps shard i owns and
     writes only their buckets and shard i's host index.  [owner_of] is a
     pure read of the overlay, and bucket order is unobservable, so the
     result is independent of the pool size. *)
  ignore (pool_run t (Array.length t.shards) (rehost_shard t))

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let* () =
    Hashtbl.fold
      (fun key m acc ->
        let* () = acc in
        let region = Hashtbl.find t.regions key in
        let* () =
          if Zone.equal m.box (map_box t region) then Ok ()
          else err "map box drifted for a region"
        in
        let* () =
          if m.shard = shard_of_key t key then Ok ()
          else err "region assigned to the wrong shard"
        in
        let* () =
          Hashtbl.fold
            (fun node e acc ->
              let* () = acc in
              if not (Zone.contains m.box e.Entry.position) then
                err "entry for node %d outside its map box" node
              else begin
                let host = Can_overlay.owner_of t.can e.Entry.position in
                let* () =
                  match Hashtbl.find_opt m.by_host host with
                  | Some b when Bucket.exists (fun (x : Entry.t) -> x.Entry.node = node) b ->
                    Ok ()
                  | _ -> err "entry for node %d not indexed under its host" node
                in
                (* reverse index agrees with the map *)
                match Hashtbl.find_opt t.node_index node with
                | Some inner ->
                  (match Hashtbl.find_opt inner key with
                  | Some e' when e' == e -> Ok ()
                  | Some _ | None -> err "entry for node %d missing from the node index" node)
                | None -> err "entry for node %d missing from the node index" node
              end)
            m.entries (Ok ())
        in
        (* no orphans in the host index; every bucket is on its host's
           record in the owning shard *)
        let hosts = t.shards.(m.shard).hosts in
        Hashtbl.fold
          (fun host (b : Bucket.t) acc ->
            let* () = acc in
            let* () =
              match Hashtbl.find_opt hosts host with
              | Some hr when List.mem key hr.keys -> Ok ()
              | Some _ | None -> err "bucket of host %d missing from its shard's host index" host
            in
            let rec go i =
              if i >= b.Bucket.len then Ok ()
              else if Hashtbl.mem m.entries b.Bucket.arr.(i).Entry.node then go (i + 1)
              else err "host index holds an orphan entry"
            in
            go 0)
          m.by_host (Ok ()))
      t.maps (Ok ())
  in
  (* every host-index record names buckets that exist *)
  let* () =
    Array.fold_left
      (fun acc shard ->
        let* () = acc in
        Hashtbl.fold
          (fun host hr acc ->
            let* () = acc in
            if
              List.for_all
                (fun key ->
                  match Hashtbl.find_opt t.maps key with
                  | Some m -> Hashtbl.mem m.by_host host
                  | None -> false)
                hr.keys
            then Ok ()
            else err "host index of host %d names a missing bucket" host)
          shard.hosts (Ok ()))
      (Ok ()) t.shards
  in
  (* no orphans in the reverse index *)
  let* () =
    Hashtbl.fold
      (fun node inner acc ->
        let* () = acc in
        Hashtbl.fold
          (fun key e acc ->
            let* () = acc in
            match Hashtbl.find_opt t.maps key with
            | Some m ->
              (match Hashtbl.find_opt m.entries node with
              | Some e' when e' == e -> Ok ()
              | Some _ | None -> err "node index holds an orphan entry for node %d" node)
            | None -> err "node index holds an orphan entry for node %d" node)
          inner (Ok ()))
      t.node_index (Ok ())
  in
  (* every current entry is covered by a heap record at its current stamp,
     in the shard that owns its region (stale records are fine; a missing
     fresh record would make the entry immortal to sweeps) *)
  let covered = Hashtbl.create 256 in
  Array.iteri
    (fun si shard ->
      Heap.iter
        (fun prio r ->
          match Hashtbl.find_opt t.maps r.hr_key with
          | Some m when m.shard = si ->
            (match Hashtbl.find_opt m.entries r.hr_entry.Entry.node with
            | Some cur when cur == r.hr_entry && prio = cur.Entry.expires ->
              Hashtbl.replace covered (r.hr_key, cur.Entry.node) ()
            | Some _ | None -> ())
          | Some _ | None -> ())
        shard.expiry)
    t.shards;
  Hashtbl.fold
    (fun key m acc ->
      let* () = acc in
      Hashtbl.fold
        (fun node _ acc ->
          let* () = acc in
          if Hashtbl.mem covered (key, node) then Ok ()
          else err "entry for node %d has no live expiry-heap record" node)
        m.entries (Ok ()))
    t.maps (Ok ())
