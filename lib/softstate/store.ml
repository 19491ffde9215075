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

(* The store's entries, one per slot of a slab that every map shares.
   Beside each slot's [Entry.t] the slab keeps flat copies of what the
   Table 1 scan reads: the described node, the expiry stamp (an unboxed
   float array) and the landmark vector ([stride] floats from
   [slot * stride]).  A lookup so reads contiguous arrays and touches an
   entry record only for [max_load] and for the entries it returns.
   Every write of an entry's stamp goes through [set_expires], which
   writes the copy too.  A freed slot holds [vacant] and goes on a free
   stack that the next publish pops; the arrays keep the store's
   high-water size.  One slab for the store, not one per map: most maps
   hold a handful of entries, and per-map arrays would each carry their
   own growth slack. *)
module Slab = struct
  let vacant =
    {
      Entry.node = -1;
      vector = [||];
      number = 0;
      position = [||];
      host = -1;
      expires = neg_infinity;
      load = 0.0;
      capacity = 0.0;
    }

  type t = {
    mutable stride : int;  (* landmark-vector length of every entry; -1 before the first *)
    mutable ents : Entry.t array;
    mutable nodes : int array;
    mutable stamps : float array;
    mutable vecs : float array;
    mutable used : int;  (* slots ever handed out *)
    mutable free : int array;
    mutable nfree : int;
  }

  let create () =
    {
      stride = -1;
      ents = [||];
      nodes = [||];
      stamps = [||];
      vecs = [||];
      used = 0;
      free = [||];
      nfree = 0;
    }

  let grow s =
    let cap = max 4 (2 * s.used) in
    let ents = Array.make cap vacant and nodes = Array.make cap 0 in
    let stamps = Array.make cap 0.0 and vecs = Array.make (cap * s.stride) 0.0 in
    Array.blit s.ents 0 ents 0 s.used;
    Array.blit s.nodes 0 nodes 0 s.used;
    Array.blit s.stamps 0 stamps 0 s.used;
    Array.blit s.vecs 0 vecs 0 (s.used * s.stride);
    s.ents <- ents;
    s.nodes <- nodes;
    s.stamps <- stamps;
    s.vecs <- vecs

  let alloc s (e : Entry.t) =
    let slot =
      if s.nfree > 0 then begin
        s.nfree <- s.nfree - 1;
        s.free.(s.nfree)
      end
      else begin
        if s.used = Array.length s.ents then grow s;
        s.used <- s.used + 1;
        s.used - 1
      end
    in
    s.ents.(slot) <- e;
    s.nodes.(slot) <- e.Entry.node;
    s.stamps.(slot) <- e.Entry.expires;
    Array.blit e.Entry.vector 0 s.vecs (slot * s.stride) s.stride;
    slot

  let release s slot =
    s.ents.(slot) <- vacant;
    if s.nfree = Array.length s.free then begin
      let free = Array.make (max 4 (2 * s.nfree)) 0 in
      Array.blit s.free 0 free 0 s.nfree;
      s.free <- free
    end;
    s.free.(s.nfree) <- slot;
    s.nfree <- s.nfree + 1
end

(* A host bucket: the slots of the entries a host holds in one map, in a
   compact growable array with swap-remove.  Buckets have no observable
   order (every reader either counts, tests membership, or re-sorts by
   vector distance), so swap-remove is free to reorder. *)
module Bucket = struct
  type t = { mutable slots : int array; mutable len : int }

  let create () = { slots = [||]; len = 0 }

  let add b slot =
    if b.len = Array.length b.slots then begin
      let slots = Array.make (max 4 (2 * b.len)) 0 in
      Array.blit b.slots 0 slots 0 b.len;
      b.slots <- slots
    end;
    b.slots.(b.len) <- slot;
    b.len <- b.len + 1

  let remove b slot =
    let i = ref 0 in
    while !i < b.len && b.slots.(!i) <> slot do
      incr i
    done;
    if !i < b.len then begin
      b.len <- b.len - 1;
      b.slots.(!i) <- b.slots.(b.len)
    end

  let iter f b =
    for i = 0 to b.len - 1 do
      f b.slots.(i)
    done

  let mem b slot =
    let rec go i = i < b.len && (b.slots.(i) = slot || go (i + 1)) in
    go 0
end

type region_map = {
  region : int array;  (* the region's path bits *)
  box : Zone.t;
  shard : int;  (* owning shard index, fixed by the region key *)
  entries : (int, int) Hashtbl.t;  (* described node -> slot *)
  by_host : (int, Bucket.t) Hashtbl.t;  (* overlay host -> slots *)
}

(* An expiry-heap record: the entry and the stamp it had when the record
   was pushed, which orders the heap.  Records are never removed eagerly:
   a refresh, re-publish or retraction leaves the old record in the heap
   and it is recognised as stale when popped (the map no longer holds
   that exact entry, or the entry's current [expires] stamp moved past
   [hr_prio]). *)
type hrec = { hr_key : int; hr_prio : float; hr_entry : Entry.t }

let earlier a b = a.hr_prio < b.hr_prio

(* The filler of an expiry heap's vacant slots. *)
let no_hrec = { hr_key = -1; hr_prio = neg_infinity; hr_entry = Slab.vacant }

(* A host's record in the store's host index: the keys of the maps where
   the host has a bucket, and the CAN node record and path array the host
   had when the record was made.  [Can.Overlay] makes a new node
   record on every join, and gives a member a new path array on every
   zone change without writing one in place; a member only takes over an
   array that was a leaving node's.  So while the host's node and path
   are physically these, it has been a member throughout and its zone is
   unchanged, and every entry in those buckets still lies in it. *)
type host_rec = { node : Can_overlay.node; placed : int array; mutable keys : int list }

type obs = {
  publishes : Engine.Metrics.counter;
  refreshes : Engine.Metrics.counter;
  expired : Engine.Metrics.counter;
  sweep_visited : Engine.Metrics.counter;
  tracer : Engine.Trace.t option;
}

(* The lookup order: ascending (vector distance, node id).  A map holds
   one entry per node, so this is a total order, and it is the order
   [compare] gives on (distance, node, entry) tuples ([Float.compare]
   orders floats, NaN included, as polymorphic compare does).  [d < d']
   and [d > d'] decide two ordered distances as [Float.compare] would;
   equal distances and NaNs take the full comparison.  Inlined, so the
   distances it reads from the top-k buffer stay unboxed. *)
let[@inline] precedes d (node : int) d' node' =
  d < d'
  || ((not (d > d'))
     &&
     let c = Float.compare d d' in
     c < 0 || (c = 0 && node < node'))

(* The [cap] least (distance, node) pairs offered so far, ascending, with
   the slots they came from.  The arrays grow on demand up to [cap], so a
   large [max_results] costs nothing until entries arrive. *)
module Topk = struct
  type t = {
    mutable cap : int;
    mutable dist : float array;
    mutable nodes : int array;
    mutable slots : int array;
    mutable len : int;
  }

  let create () = { cap = 0; dist = [||]; nodes = [||]; slots = [||]; len = 0 }

  let reset k cap =
    k.cap <- cap;
    k.len <- 0

  let grow k =
    let size = min k.cap (max 8 (2 * k.len)) in
    let dist = Array.make size 0.0 and nodes = Array.make size 0 and slots = Array.make size 0 in
    Array.blit k.dist 0 dist 0 k.len;
    Array.blit k.nodes 0 nodes 0 k.len;
    Array.blit k.slots 0 slots 0 k.len;
    k.dist <- dist;
    k.nodes <- nodes;
    k.slots <- slots

  (* Inlined into [lookup], so [d] arrives unboxed. *)
  let[@inline] offer k d node slot =
    let last = k.len - 1 in
    (* [pos] is a free slot at the end, or the evicted maximum's *)
    let pos =
      if k.len < k.cap then begin
        if k.len = Array.length k.nodes then grow k;
        k.len <- k.len + 1;
        last + 1
      end
      else if k.cap > 0 && precedes d node k.dist.(last) k.nodes.(last) then last
      else -1
    in
    if pos >= 0 then begin
      (* [0 <= !i <= pos < len <= length] of all three arrays *)
      let dist = k.dist and nodes = k.nodes and slots = k.slots in
      let i = ref pos in
      while
        !i > 0
        && precedes d node (Array.unsafe_get dist (!i - 1)) (Array.unsafe_get nodes (!i - 1))
      do
        Array.unsafe_set dist !i (Array.unsafe_get dist (!i - 1));
        Array.unsafe_set nodes !i (Array.unsafe_get nodes (!i - 1));
        Array.unsafe_set slots !i (Array.unsafe_get slots (!i - 1));
        decr i
      done;
      Array.unsafe_set dist !i d;
      Array.unsafe_set nodes !i node;
      Array.unsafe_set slots !i slot
    end

  let to_list k (ents : Entry.t array) =
    let rec go i acc = if i < 0 then acc else go (i - 1) (ents.(k.slots.(i)) :: acc) in
    go (k.len - 1) []
end

type t = {
  can : Can_overlay.t;
  scheme : Number.scheme;
  condense : float;
  default_ttl : float;
  clock : unit -> float;
  maps : (int, region_map) Hashtbl.t;  (* region path key *)
  slab : Slab.t;  (* every map's entries *)
  shards : hrec Heap.t array;  (* each shard's expiry heap *)
  hosts : (int, host_rec) Hashtbl.t;  (* host -> the maps where it has a bucket *)
  node_index : (int, (int, Entry.t) Hashtbl.t) Hashtbl.t;
      (* described node -> region key -> entry; reverse index so the
         per-node operations avoid scanning every map *)
  top : Topk.t;
  visit : Can_overlay.Cursor.t;
      (* [lookup]'s result buffer and visited hosts, reused from lookup to
         lookup: a lookup calls nothing that could start another one *)
  obs : obs option;
}

(* The key is the sentinel-prefixed region path, so taking it mod the
   shard count spreads regions by their prefix bits; sibling regions land
   on different shards and each shard's heap is swept independently. *)
let shard_of_key t key = key mod Array.length t.shards

let create ?metrics ?(labels = []) ?trace ?pool:(_ : Engine.Dpool.t option) ?(shards = 1)
    ?(condense = 1.0) ?(default_ttl = 600_000.0) ?(clock = fun () -> 0.0) ~scheme can =
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
    slab = Slab.create ();
    shards =
      Array.init shards (fun _ -> Heap.create ~capacity:256 ~before:earlier ~dummy:no_hrec ());
    hosts = Hashtbl.create 64;
    node_index = Hashtbl.create 256;
    top = Topk.create ();
    visit = Can_overlay.Cursor.create ();
    obs;
  }

let can t = t.can
let shard_count t = Array.length t.shards
let shard_of_region t region = shard_of_key t (Can_overlay.region_key region)

(* The map's volume fraction of its region at condense rate 1. *)
let base_fraction = 0.125

let map_fraction t = Float.min 1.0 (t.condense *. base_fraction)

let map_box t region =
  let zone = Can_overlay.zone_of_path ~dims:(Can_overlay.dims t.can) region in
  Zone.shrink zone (map_fraction t)

(* The map of the region made of the first [len] bits of [path], whose
   key is [key]. *)
let map_for t ~key path len =
  match Hashtbl.find t.maps key with
  | m -> m
  | exception Not_found ->
    let region = Array.sub path 0 len in
    let m =
      {
        region;
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
    m

let live t (e : Entry.t) = e.Entry.expires > t.clock ()

(* Every write of a stored entry's stamp; the slab's copy follows. *)
let set_expires t slot (e : Entry.t) at =
  e.Entry.expires <- at;
  t.slab.Slab.stamps.(slot) <- at

let schedule_expiry t ~key m (e : Entry.t) =
  Heap.push t.shards.(m.shard) { hr_key = key; hr_prio = e.Entry.expires; hr_entry = e }

(* The owner of a position inside the map's box: the overlay's descent
   from the region's depth. *)
let owner_in_map t m position = Can_overlay.owner_within t.can ~prefix:m.region position

(* [host] owns the entry's position now.  A new bucket goes on the host's
   record, made now if the host has none. *)
let host_add t ~key m host slot =
  match Hashtbl.find_opt m.by_host host with
  | Some b -> Bucket.add b slot
  | None ->
    let b = Bucket.create () in
    Bucket.add b slot;
    Hashtbl.replace m.by_host host b;
    (match Hashtbl.find t.hosts host with
    | hr -> hr.keys <- key :: hr.keys
    | exception Not_found ->
      let node = Can_overlay.node t.can host in
      Hashtbl.replace t.hosts host { node; placed = node.Can_overlay.path; keys = [ key ] })

(* Emptied buckets stay in the table: a host that cycles between zero and
   a few entries reuses its bucket's backing array instead of
   reallocating it on every refill. *)
let host_remove m host slot =
  match Hashtbl.find_opt m.by_host host with
  | Some b -> Bucket.remove b slot
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
let remove_entry t ~key m slot =
  let e = t.slab.Slab.ents.(slot) in
  Hashtbl.remove m.entries e.Entry.node;
  host_remove m e.Entry.host slot;
  index_remove t e.Entry.node ~key;
  Slab.release t.slab slot

(* [vector] is already the store's own copy: {!publish_all} shares one
   between the node's entries in every map it reaches. *)
let publish_in t ~key m ~node ~vector ~number =
  if t.slab.Slab.stride < 0 then t.slab.Slab.stride <- Array.length vector
  else if Array.length vector <> t.slab.Slab.stride then
    invalid_arg "Store.publish: vector length differs from the stored entries'";
  (* A re-publish is a refresh-by-replacement: the piggybacked load
     statistics survive the new entry. *)
  let old_load, old_capacity =
    match Hashtbl.find m.entries node with
    | slot ->
      let old = t.slab.Slab.ents.(slot) in
      remove_entry t ~key m slot;
      (old.Entry.load, old.Entry.capacity)
    | exception Not_found -> (0.0, 1.0)
  in
  let position = Number.position_of_number t.scheme m.box number in
  let host = owner_in_map t m position in
  let entry =
    {
      Entry.node;
      vector;
      number;
      position;
      host;
      expires = t.clock () +. t.default_ttl;
      load = old_load;
      capacity = old_capacity;
    }
  in
  let slot = Slab.alloc t.slab entry in
  Hashtbl.replace m.entries node slot;
  host_add t ~key m host slot;
  index_add t node ~key entry;
  schedule_expiry t ~key m entry;
  match t.obs with
  | None -> ()
  | Some o ->
    Engine.Metrics.incr o.publishes;
    Option.iter
      (fun tr ->
        Engine.Trace.emit tr ~peer:node
          (Engine.Trace.Map_publish { region = m.region })
          ~node:host)
      o.tracer

let publish t ~region ~node ~vector =
  let key = Can_overlay.region_key region in
  let m = map_for t ~key region (Array.length region) in
  publish_in t ~key m ~node ~vector:(Array.copy vector) ~number:(Number.number t.scheme vector)

let publish_all t ~span_bits ~node ~vector =
  if span_bits < 1 then invalid_arg "Store.publish_all: span_bits must be >= 1";
  let path = (Can_overlay.node t.can node).Can_overlay.path in
  let number = Number.number t.scheme vector and vector = Array.copy vector in
  (* Regions at digit granularity, from the root down to the node's
     deepest complete high-order zone. *)
  let deepest = Array.length path / span_bits * span_bits in
  let rec go len =
    if len <= deepest then begin
      let key = Can_overlay.path_key path len in
      let m = map_for t ~key path len in
      publish_in t ~key m ~node ~vector ~number;
      go (len + span_bits)
    end
  in
  go 0

let unpublish t ~region ~node =
  let key = Can_overlay.region_key region in
  match Hashtbl.find_opt t.maps key with
  | None -> ()
  | Some m ->
    (match Hashtbl.find m.entries node with
    | slot -> remove_entry t ~key m slot
    | exception Not_found -> ())

let unpublish_everywhere t node =
  match Hashtbl.find_opt t.node_index node with
  | None -> ()
  | Some inner ->
    let keys = Hashtbl.fold (fun key _ acc -> key :: acc) inner [] in
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.maps key with
        | Some m -> remove_entry t ~key m (Hashtbl.find m.entries node)
        | None -> ())
      keys

let find t ~region ~node =
  match Hashtbl.find_opt t.maps (Can_overlay.region_key region) with
  | None -> None
  | Some m ->
    (match t.slab.Slab.ents.(Hashtbl.find m.entries node) with
    | e when live t e -> Some e
    | _ | (exception Not_found) -> None)

(* One probe: the map by the prefix's key, then the entry. *)
let refresh_prefix t ~path ~len ~node =
  if len < 0 || len > Array.length path then invalid_arg "Store.refresh_prefix: len out of range";
  let key = Can_overlay.path_key path len in
  match Hashtbl.find t.maps key with
  | exception Not_found -> false
  | m -> (
    match Hashtbl.find m.entries node with
    | slot when live t t.slab.Slab.ents.(slot) ->
      let e = t.slab.Slab.ents.(slot) in
      set_expires t slot e (t.clock () +. t.default_ttl);
      (* Lazy heap discipline: push a record at the new stamp; the record
         from the previous stamp pops as stale. *)
      schedule_expiry t ~key m e;
      (match t.obs with None -> () | Some o -> Engine.Metrics.incr o.refreshes);
      true
    | _ | (exception Not_found) -> false)

let refresh t ~region ~node = refresh_prefix t ~path:region ~len:(Array.length region) ~node

let update_stats t ~region ~node ~load ~capacity =
  match find t ~region ~node with
  | Some e ->
    e.Entry.load <- load;
    e.Entry.capacity <- capacity
  | None -> ()

let region_box t region =
  match Hashtbl.find_opt t.maps (Can_overlay.region_key region) with
  | Some m -> m.box
  | None -> map_box t region

let host_of t ~region ~vector =
  Can_overlay.owner_within t.can ~prefix:region
    (Number.position_in_zone t.scheme (region_box t region) vector)

let lookup_route t ~from ~region ~vector =
  Can_overlay.route t.can ~src:from
    (Number.position_in_zone t.scheme (region_box t region) vector)

(* Push the CAN neighbours in [ns] that the lookup has not visited and
   whose zones meet the map box. *)
let rec push_ring t box visit = function
  | [] -> ()
  | nid :: rest ->
    if
      (not (Can_overlay.Cursor.visited visit nid))
      && Zone.intersects box (Can_overlay.node t.can nid).Can_overlay.zone
    then Can_overlay.Cursor.push visit nid;
    push_ring t box visit rest

let lookup t ~region ~vector ?(max_results = 16) ?(ttl = 2) ?max_load () =
  match Hashtbl.find_opt t.maps (Can_overlay.region_key region) with
  | None -> []
  | Some m ->
    let now = t.clock () in
    let slab = t.slab and top = t.top and visit = t.visit in
    let stride = slab.Slab.stride and stamps = slab.Slab.stamps and vecs = slab.Slab.vecs in
    Topk.reset top max_results;
    Can_overlay.Cursor.start visit;
    Can_overlay.Cursor.push visit
      (owner_in_map t m (Number.position_in_zone t.scheme m.box vector));
    (* The visited hosts in [visit], ring by ring: ring [hops] is the run
       from [ring] to [ring_end].  Table 1's "define a TTL to search
       outside" widens ring by ring over CAN neighbours whose zones still
       meet the map box.  Each ring is scanned whole, so [count] holds
       every admissible live entry seen so far. *)
    let count = ref 0 and hops = ref 0 and ring = ref 0 and widening = ref true in
    while !widening do
      let ring_end = Can_overlay.Cursor.length visit in
      for r = !ring to ring_end - 1 do
        match Hashtbl.find m.by_host (Can_overlay.Cursor.get visit r) with
        | exception Not_found -> ()
        | b ->
          for j = 0 to b.Bucket.len - 1 do
            let slot = b.Bucket.slots.(j) in
            (* QoS consultation: with [max_load], entries whose
               piggybacked load statistic exceeds the bound are invisible
               to this lookup — an overloaded node never enters the
               candidate set. *)
            if
              stamps.(slot) > now
              &&
              match max_load with
              | None -> true
              | Some bound -> slab.Slab.ents.(slot).Entry.load <= bound
            then begin
              incr count;
              (* [Landmarks.vector_dist], inlined: the same operations in
                 the same order, without boxing the distance. *)
              if Array.length vector <> stride then
                invalid_arg "Landmarks.vector_dist: length mismatch";
              let base = slot * stride in
              let acc = ref 0.0 in
              for i = 0 to stride - 1 do
                let d = Array.unsafe_get vector i -. Array.unsafe_get vecs (base + i) in
                acc := !acc +. (d *. d)
              done;
              Topk.offer top (sqrt !acc) slab.Slab.nodes.(slot) slot
            end
          done
      done;
      if !count < max_results && !hops < ttl && ring_end > !ring then begin
        incr hops;
        for r = !ring to ring_end - 1 do
          push_ring t m.box visit
            (Can_overlay.node t.can (Can_overlay.Cursor.get visit r)).Can_overlay.neighbors
        done;
        ring := ring_end
      end
      else widening := false
    done;
    Topk.to_list top slab.Slab.ents

let region_entries t region =
  match Hashtbl.find_opt t.maps (Can_overlay.region_key region) with
  | None -> []
  | Some m ->
    Hashtbl.fold
      (fun _ slot acc ->
        let e = t.slab.Slab.ents.(slot) in
        if live t e then e :: acc else acc)
      m.entries []

let regions_of t node =
  match Hashtbl.find_opt t.node_index node with
  | None -> []
  | Some inner ->
    Hashtbl.fold
      (fun key e acc -> if live t e then (Hashtbl.find t.maps key).region :: acc else acc)
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
        Bucket.iter (fun slot -> if live t t.slab.Slab.ents.(slot) then incr c) b;
        acc + !c
      | None -> acc)
    t.maps 0

(* Per-host live-entry counts for every overlay node, in node-id order:
   one pass over every map's host buckets.  A bucket of a host that is
   no longer a member (it left before a [rehost]) counts for no one. *)
let host_counts t =
  let now = t.clock () and stamps = t.slab.Slab.stamps in
  let counts = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun _ m ->
      Hashtbl.iter
        (fun host b ->
          let c = ref 0 in
          Bucket.iter (fun slot -> if stamps.(slot) > now then incr c) b;
          if !c > 0 then
            Hashtbl.replace counts host
              (!c + Option.value ~default:0 (Hashtbl.find_opt counts host)))
        m.by_host)
    t.maps;
  Array.map
    (fun id -> Option.value ~default:0 (Hashtbl.find_opt counts id))
    (Can_overlay.node_ids t.can)

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

(* Sweep shards [lo..hi] in index order.  Each shard pops its heap while
   the minimum stamp is due and purges at once each record whose entry is
   still exactly the one in its map and whose current stamp is due; every
   other record is stale, from a superseded stamp, a retraction or an
   earlier purge of the same entry.  Cost: O((expired + stale) * log
   heap), independent of the number of live entries. *)
let sweep_range t lo hi =
  let now = t.clock () in
  let visited = ref 0 and purged = ref [] in
  for i = lo to hi do
    let heap = t.shards.(i) in
    let rec loop () =
      match Heap.peek heap with
      | Some r when r.hr_prio <= now ->
        ignore (Heap.pop heap);
        incr visited;
        (match Hashtbl.find_opt t.maps r.hr_key with
        | Some m ->
          (match Hashtbl.find m.entries r.hr_entry.Entry.node with
          | slot when t.slab.Slab.ents.(slot) == r.hr_entry && r.hr_entry.Entry.expires <= now ->
            remove_entry t ~key:r.hr_key m slot;
            purged := (m.region, r.hr_entry) :: !purged
          | _ | (exception Not_found) -> ())
        | None -> ());
        loop ()
      | Some _ | None -> ()
    in
    loop ()
  done;
  let purged = List.rev !purged in
  (match t.obs with
  | None -> ()
  | Some o ->
    Engine.Metrics.add o.sweep_visited !visited;
    Engine.Metrics.add o.expired (List.length purged);
    Option.iter
      (fun tr ->
        Engine.Trace.emit tr (Engine.Trace.Ttl_sweep { purged = List.length purged }) ~node:(-1))
      o.tracer);
  purged

let sweep_shard t i =
  if i < 0 || i >= Array.length t.shards then invalid_arg "Store.sweep_shard: shard out of range";
  sweep_range t i i

let sweep_expired t = sweep_range t 0 (Array.length t.shards - 1)

let expire_sweep t = List.length (sweep_expired t)

let inject_staleness t ~rng ~fraction =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Store.inject_staleness: fraction out of [0,1]";
  let now = t.clock () in
  let aged = ref 0 in
  Hashtbl.iter
    (fun key m ->
      Hashtbl.iter
        (fun _ slot ->
          let e = t.slab.Slab.ents.(slot) in
          if live t e && Prelude.Rng.chance rng fraction then begin
            set_expires t slot e now;
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
let rehost t =
  let stale =
    Hashtbl.fold
      (fun host hr acc ->
        match Can_overlay.node t.can host with
        | n when n == hr.node && n.Can_overlay.path == hr.placed -> acc
        | _ | (exception Not_found) -> (host, hr) :: acc)
      t.hosts []
  in
  let detached =
    List.concat_map
      (fun (host, hr) ->
        Hashtbl.remove t.hosts host;
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
        (fun slot ->
          let e = t.slab.Slab.ents.(slot) in
          e.Entry.host <- owner_in_map t m e.Entry.position;
          host_add t ~key m e.Entry.host slot)
        b)
    detached

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The slab's copies of the entry in [slot], bit for bit. *)
let slot_matches (s : Slab.t) slot (e : Entry.t) =
  s.Slab.nodes.(slot) = e.Entry.node
  && same_bits s.Slab.stamps.(slot) e.Entry.expires
  && Array.length e.Entry.vector = s.Slab.stride
  &&
  let rec go i =
    i >= s.Slab.stride
    || (same_bits s.Slab.vecs.((slot * s.Slab.stride) + i) e.Entry.vector.(i) && go (i + 1))
  in
  go 0

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let slab = t.slab in
  (* every slot is an entry's or free, never both *)
  let entries = Hashtbl.fold (fun _ m acc -> acc + Hashtbl.length m.entries) t.maps 0 in
  let* () =
    if slab.Slab.used = entries + slab.Slab.nfree then Ok ()
    else err "slab holds %d slots for %d entries and %d free" slab.Slab.used entries slab.Slab.nfree
  in
  let* () =
    let rec go i =
      if i >= slab.Slab.nfree then Ok ()
      else if slab.Slab.ents.(slab.Slab.free.(i)) == Slab.vacant then go (i + 1)
      else err "a free slot holds an entry"
    in
    go 0
  in
  let* () =
    Hashtbl.fold
      (fun key m acc ->
        let* () = acc in
        let* () =
          if Zone.equal m.box (map_box t m.region) then Ok ()
          else err "map box drifted for a region"
        in
        let* () =
          if Can_overlay.region_key m.region = key then Ok ()
          else err "map filed under another region's key"
        in
        let* () =
          if m.shard = shard_of_key t key then Ok ()
          else err "region assigned to the wrong shard"
        in
        let* () =
          Hashtbl.fold
            (fun node slot acc ->
              let* () = acc in
              let e = slab.Slab.ents.(slot) in
              if slot >= slab.Slab.used || e.Entry.node <> node then
                err "entry for node %d is not in its slot" node
              else if not (slot_matches slab slot e) then
                err "flat copy of node %d's entry differs from the entry" node
              else if not (Zone.contains m.box e.Entry.position) then
                err "entry for node %d outside its map box" node
              else begin
                let host = Can_overlay.owner_of t.can e.Entry.position in
                let* () =
                  match Hashtbl.find_opt m.by_host host with
                  | Some b when host = e.Entry.host && Bucket.mem b slot -> Ok ()
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
        (* no orphans in the host buckets; every bucket is on its host's
           record in the host index *)
        Hashtbl.fold
          (fun host (b : Bucket.t) acc ->
            let* () = acc in
            let* () =
              match Hashtbl.find_opt t.hosts host with
              | Some hr when List.mem key hr.keys -> Ok ()
              | Some _ | None -> err "bucket of host %d missing from the host index" host
            in
            let rec go i =
              if i >= b.Bucket.len then Ok ()
              else begin
                let slot = b.Bucket.slots.(i) in
                match Hashtbl.find_opt m.entries slab.Slab.ents.(slot).Entry.node with
                | Some s when s = slot -> go (i + 1)
                | Some _ | None -> err "host index holds an orphan entry"
              end
            in
            go 0)
          m.by_host (Ok ()))
      t.maps (Ok ())
  in
  (* every host-index record names buckets that exist *)
  let* () =
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
      t.hosts (Ok ())
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
              | Some slot when t.slab.Slab.ents.(slot) == e -> Ok ()
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
    (fun si heap ->
      Heap.iter
        (fun r ->
          match Hashtbl.find_opt t.maps r.hr_key with
          | Some m when m.shard = si ->
            (match Hashtbl.find_opt m.entries r.hr_entry.Entry.node with
            | Some slot
              when t.slab.Slab.ents.(slot) == r.hr_entry && r.hr_prio = r.hr_entry.Entry.expires ->
              Hashtbl.replace covered (r.hr_key, r.hr_entry.Entry.node) ()
            | Some _ | None -> ())
          | Some _ | None -> ())
        heap)
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
