module Zone = Geometry.Zone
module Point = Geometry.Point

type node = {
  id : int;
  mutable zone : Zone.t;
  mutable path : int array;
  mutable neighbors : int list;
}

(* The members of one path prefix, oldest-indexed first, in a growable
   array.  Removal compacts in place and keeps the order, so a re-indexed
   node (a split owner, a merged sibling) moves to the newest end.
   [newest] caches the newest-first snapshot that [newest_first] hands
   out; [add] and [remove], the only writers, drop it ([[||]]: a set in
   the index is never empty), and a snapshot is never written after it
   is built, so arrays handed out earlier keep their contents. *)
module Members = struct
  type t = { mutable ids : int array; mutable len : int; mutable newest : int array }

  let singleton id = { ids = Array.make 4 id; len = 1; newest = [||] }

  let add m id =
    if m.len = Array.length m.ids then begin
      let ids = Array.make (2 * m.len) id in
      Array.blit m.ids 0 ids 0 m.len;
      m.ids <- ids
    end;
    m.ids.(m.len) <- id;
    m.len <- m.len + 1;
    m.newest <- [||]

  let remove m id =
    let i = ref 0 in
    while !i < m.len && m.ids.(!i) <> id do
      incr i
    done;
    if !i < m.len then begin
      Array.blit m.ids (!i + 1) m.ids !i (m.len - !i - 1);
      m.len <- m.len - 1;
      m.newest <- [||]
    end

  let newest_first m =
    if Array.length m.newest = 0 then begin
      let a = Array.make m.len 0 in
      for i = 0 to m.len - 1 do
        a.(i) <- m.ids.(m.len - 1 - i)
      done;
      m.newest <- a
    end;
    m.newest
end

(* A route's visited set and hop buffer, reused from route to route.
   Node [v] is visited in the current route iff [seen.(v) = stamp], so
   starting a route is one increment instead of a fresh table. *)
module Cursor = struct
  type t = {
    mutable seen : int array;
    mutable stamp : int;
    mutable hops : int array;
    mutable len : int;
  }

  let create () = { seen = [||]; stamp = 0; hops = Array.make 16 0; len = 0 }

  let start c =
    c.stamp <- c.stamp + 1;
    c.len <- 0

  let visited c id = id >= 0 && id < Array.length c.seen && Array.unsafe_get c.seen id = c.stamp

  let push c id =
    if id >= Array.length c.seen then begin
      let seen = Array.make (max (id + 1) (2 * Array.length c.seen)) 0 in
      Array.blit c.seen 0 seen 0 (Array.length c.seen);
      c.seen <- seen
    end;
    c.seen.(id) <- c.stamp;
    if c.len = Array.length c.hops then begin
      let hops = Array.make (2 * c.len) 0 in
      Array.blit c.hops 0 hops 0 c.len;
      c.hops <- hops
    end;
    c.hops.(c.len) <- id;
    c.len <- c.len + 1

  let last c = c.hops.(c.len - 1)

  let hops c =
    let acc = ref [] in
    for i = c.len - 1 downto 0 do
      acc := c.hops.(i) :: !acc
    done;
    !acc
end

type t = {
  dims : int;
  nodes : (int, node) Hashtbl.t;
  mutable by_id : node array;
      (* dense id -> node view of [nodes] ([absent] where no member);
         written only by [create], [join] and [leave] *)
  cursor : Cursor.t;  (* the visited set and hops of this overlay's own routes *)
  by_path : (int, int) Hashtbl.t;  (* exact path key -> owner id *)
  prefix_members : (int, Members.t) Hashtbl.t;  (* prefix key -> member ids *)
  mutable rep : int;  (* arbitrary live member, default routing start *)
  obs : Engine.Route_obs.t;
  join_hops : Engine.Metrics.histogram option;
}

let max_depth = 60

let absent = { id = -1; zone = Zone.full 1; path = [||]; neighbors = [] }

let set_node t id n =
  if id >= Array.length t.by_id then begin
    let by_id = Array.make (max (id + 1) (2 * Array.length t.by_id)) absent in
    Array.blit t.by_id 0 by_id 0 (Array.length t.by_id);
    t.by_id <- by_id
  end;
  t.by_id.(id) <- n

(* A path (bit string, MSB first) encoded as an int with a leading
   sentinel bit, so different lengths never collide. *)
let path_key bits len =
  let acc = ref 1 in
  for i = 0 to len - 1 do
    acc := (!acc lsl 1) lor bits.(i)
  done;
  !acc

let region_key bits = path_key bits (Array.length bits)

let zone_of_path ~dims bits =
  let z = ref (Zone.full dims) in
  Array.iteri
    (fun depth b ->
      let lower, upper = Zone.split !z (Zone.split_dim_at_depth dims depth) in
      z := if b = 0 then lower else upper)
    bits;
  !z

(* [f key] for the key of every prefix of [path], root first; each key
   extends the previous one by a bit. *)
let iter_prefix_keys path f =
  let key = ref 1 in
  f !key;
  Array.iter
    (fun b ->
      key := (!key lsl 1) lor b;
      f !key)
    path

let index_add t n =
  Hashtbl.replace t.by_path (region_key n.path) n.id;
  iter_prefix_keys n.path (fun key ->
      match Hashtbl.find_opt t.prefix_members key with
      | Some m -> Members.add m n.id
      | None -> Hashtbl.replace t.prefix_members key (Members.singleton n.id))

let index_remove t n =
  Hashtbl.remove t.by_path (region_key n.path);
  iter_prefix_keys n.path (fun key ->
      match Hashtbl.find_opt t.prefix_members key with
      | Some m ->
        Members.remove m n.id;
        if m.Members.len = 0 then Hashtbl.remove t.prefix_members key
      | None -> ())

let create ?metrics ?(labels = []) ?trace ~dims first =
  if dims < 1 then invalid_arg "Can.create: dims must be >= 1";
  if first < 0 then invalid_arg "Can.create: negative node id";
  let t =
    {
      dims;
      nodes = Hashtbl.create 64;
      by_id = Array.make (max 64 (first + 1)) absent;
      cursor = Cursor.create ();
      by_path = Hashtbl.create 64;
      prefix_members = Hashtbl.create 64;
      rep = first;
      obs = Engine.Route_obs.create metrics ~labels ~trace ~overlay:"can";
      join_hops =
        Option.map
          (fun m -> Engine.Metrics.histogram m ~labels:(("overlay", "can") :: labels) "join_hops")
          metrics;
    }
  in
  let n = { id = first; zone = Zone.full dims; path = [||]; neighbors = [] } in
  Hashtbl.replace t.nodes first n;
  set_node t first n;
  index_add t n;
  t

let dims t = t.dims
let size t = Hashtbl.length t.nodes
let mem t id = id >= 0 && id < Array.length t.by_id && Array.unsafe_get t.by_id id != absent

let node t id =
  if id < 0 || id >= Array.length t.by_id then raise Not_found;
  let n = Array.unsafe_get t.by_id id in
  if n == absent then raise Not_found;
  n

let node_ids t =
  let arr = Array.make (size t) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun id _ ->
      arr.(!i) <- id;
      incr i)
    t.nodes;
  arr

let path_bit ~dims zone depth point =
  let dim = Zone.split_dim_at_depth dims depth in
  let mid = (zone.Zone.lo.(dim) +. zone.Zone.hi.(dim)) /. 2.0 in
  if point.(dim) >= mid then 1 else 0

(* The split walk only ever narrows one dimension per level and only the
   bounds of that dimension are consulted, so both descents below track
   per-dimension lo/hi instead of allocating two zone records per split
   (Zone.split copies both bound arrays twice).  The produced bits are
   identical: the midpoint and the chosen half are computed from the same
   float values Zone.split would have stored.  Dimension [dim] is split
   at depths [dim], [dim + dims], ... and its bounds depend on no other
   dimension, so [path_of_point_into] fills the bits one dimension at a
   time with two float locals; [owner_of] interleaves the dimensions and
   keeps them in two flat arrays. *)

let path_of_point_into t point bits =
  if Array.length point <> t.dims then invalid_arg "Can.path_of_point: dimension mismatch";
  let depth = Array.length bits in
  for dim = 0 to min t.dims depth - 1 do
    let lo = ref 0.0 and hi = ref 1.0 and d = ref dim in
    while !d < depth do
      let mid = (!lo +. !hi) /. 2.0 in
      if point.(dim) >= mid then begin
        lo := mid;
        bits.(!d) <- 1
      end
      else begin
        hi := mid;
        bits.(!d) <- 0
      end;
      d := !d + t.dims
    done
  done

let path_of_point t ~depth point =
  let bits = Array.make depth 0 in
  path_of_point_into t point bits;
  bits

let owner_of t point =
  if Array.length point <> t.dims then invalid_arg "Can.owner_of: dimension mismatch";
  let lo = Array.make t.dims 0.0 and hi = Array.make t.dims 1.0 in
  (* [key] is the path key of the first [depth] bits of the point *)
  let rec descend depth key =
    if depth > max_depth then failwith "Can.owner_of: tree deeper than max_depth"
    else begin
      match Hashtbl.find_opt t.by_path key with
      | Some id -> id
      | None ->
        let dim = Zone.split_dim_at_depth t.dims depth in
        let mid = (lo.(dim) +. hi.(dim)) /. 2.0 in
        if point.(dim) >= mid then begin
          lo.(dim) <- mid;
          descend (depth + 1) ((key lsl 1) lor 1)
        end
        else begin
          hi.(dim) <- mid;
          descend (depth + 1) (key lsl 1)
        end
    end
  in
  descend 0 1

(* [Zone.min_torus_dist zone point], computed inline so the distance
   stays an unboxed float.  The operations are Zone's and Point's, in the
   same order; [if b > a then a else b] is [Float.min a b] on the
   non-negative, non-NaN axis distances that occur here. *)
let[@inline] zone_dist zone point =
  let acc = ref 0.0 in
  for i = 0 to Array.length point - 1 do
    let p = point.(i) and lo = zone.Zone.lo.(i) and hi = zone.Zone.hi.(i) in
    let d =
      if p >= lo && p <= hi then 0.0
      else begin
        let a = Float.abs (p -. lo) in
        let a = if 1.0 -. a > a then a else 1.0 -. a in
        let b = Float.abs (p -. hi) in
        let b = if 1.0 -. b > b then b else 1.0 -. b in
        if b > a then a else b
      end
    in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let[@inline] nonempty = function [] -> false | _ :: _ -> true

(* The neighbor scans below are while-loops over the list with float and
   int refs that no closure captures, so the refs stay unboxed locals and
   a scan allocates nothing. *)
let greedy_step t c ~revisit u point =
  let ns = ref u.neighbors in
  let best_d = ref infinity and best_id = ref (-1) in
  let any_d = ref infinity and any_id = ref (-1) in
  while nonempty !ns do
    match !ns with
    | [] -> ()
    | vid :: rest ->
      ns := rest;
      let unvisited = not (Cursor.visited c vid) in
      if unvisited || revisit then begin
        let d = zone_dist (node t vid).zone point in
        if unvisited && (!best_id < 0 || d < !best_d || (d = !best_d && vid < !best_id)) then begin
          best_d := d;
          best_id := vid
        end;
        if !any_id < 0 || d < !any_d || (d = !any_d && vid < !any_id) then begin
          any_d := d;
          any_id := vid
        end
      end
  done;
  if !best_id >= 0 || not revisit then !best_id else !any_id

let rec greedy_walk t c point u =
  Cursor.push c u.id;
  Zone.contains u.zone point
  ||
  let next = greedy_step t c ~revisit:false u point in
  next >= 0 && greedy_walk t c point (node t next)

(* Greedy routing on the overlay's own cursor; [true] when the owner of
   [point] was reached, with the hops in [t.cursor]. *)
let route_walk t ~src point =
  Cursor.start t.cursor;
  greedy_walk t t.cursor point (node t src)

let route t ~src point =
  if Array.length point <> t.dims then invalid_arg "Can.route: dimension mismatch";
  Engine.Route_obs.observe t.obs
    (if route_walk t ~src point then Some (Cursor.hops t.cursor) else None)

(* Among unvisited neighbors strictly closer to the target, maximise
   geometric progress per unit of physical latency (the classic CAN
   proximity-forwarding metric), ties to the lower id; otherwise fall
   back to the greedy step. *)
let rec proximity_walk t c ~dist point u =
  Cursor.push c u.id;
  Zone.contains u.zone point
  ||
  let here = zone_dist u.zone point in
  let ns = ref u.neighbors in
  let best_r = ref 0.0 and best_id = ref (-1) in
  while nonempty !ns do
    match !ns with
    | [] -> ()
    | vid :: rest ->
      ns := rest;
      if not (Cursor.visited c vid) then begin
        let zd = zone_dist (node t vid).zone point in
        if zd < here then begin
          let pd = Float.max 1e-9 (dist u.id vid) in
          let ratio = (here -. zd) /. pd in
          if !best_id < 0 || ratio > !best_r || (ratio = !best_r && vid < !best_id) then begin
            best_r := ratio;
            best_id := vid
          end
        end
      end
  done;
  let next = if !best_id >= 0 then !best_id else greedy_step t c ~revisit:false u point in
  next >= 0 && proximity_walk t c ~dist point (node t next)

let route_proximity t ~dist ~src point =
  if Array.length point <> t.dims then invalid_arg "Can.route_proximity: dimension mismatch";
  Cursor.start t.cursor;
  if proximity_walk t t.cursor ~dist point (node t src) then Some (Cursor.hops t.cursor)
  else None

let unlink t a b =
  let na = node t a and nb = node t b in
  na.neighbors <- List.filter (fun id -> id <> b) na.neighbors;
  nb.neighbors <- List.filter (fun id -> id <> a) nb.neighbors

let link a b =
  a.neighbors <- b.id :: a.neighbors;
  b.neighbors <- a.id :: b.neighbors

let join t ?start id point =
  if id < 0 then invalid_arg "Can.join: negative node id";
  if mem t id then invalid_arg "Can.join: node already a member";
  if Array.length point <> t.dims then invalid_arg "Can.join: dimension mismatch";
  let start = match start with Some s -> s | None -> t.rep in
  (* Joins route internally but are accounted separately ([join_hops]) so
     the [route_hops] histogram only reflects explicit lookups. *)
  if not (route_walk t ~src:start point) then failwith "Can.join: routing failed";
  let c = t.cursor in
  let hops = Cursor.hops c in
  Option.iter (fun h -> Engine.Metrics.observe h (float_of_int (c.Cursor.len - 1))) t.join_hops;
  let owner = node t (Cursor.last c) in
  let depth = Array.length owner.path in
  if depth >= max_depth then failwith "Can.join: max split depth exceeded";
  let lower, upper = Zone.split owner.zone (Zone.split_dim_at_depth t.dims depth) in
  let bit = path_bit ~dims:t.dims owner.zone depth point in
  let new_zone, old_zone = if bit = 1 then (upper, lower) else (lower, upper) in
  index_remove t owner;
  let old_neighbor_ids = owner.neighbors in
  List.iter (fun c -> unlink t owner.id c) old_neighbor_ids;
  owner.zone <- old_zone;
  owner.path <- Array.append owner.path [| 1 - bit |];
  index_add t owner;
  let newcomer = { id; zone = new_zone; path = Array.append (Array.sub owner.path 0 depth) [| bit |]; neighbors = [] } in
  Hashtbl.replace t.nodes id newcomer;
  set_node t id newcomer;
  index_add t newcomer;
  List.iter
    (fun cid ->
      let c = node t cid in
      if Zone.is_neighbor c.zone owner.zone then link c owner;
      if Zone.is_neighbor c.zone newcomer.zone then link c newcomer)
    old_neighbor_ids;
  link owner newcomer;
  hops

(* Merge leaf [child] into its sibling leaf [sibling]: the sibling absorbs
   the parent zone. *)
let merge_siblings t sibling child =
  let parent_path = Array.sub sibling.path 0 (Array.length sibling.path - 1) in
  let parent_zone = zone_of_path ~dims:t.dims parent_path in
  let candidates =
    List.filter
      (fun cid -> cid <> sibling.id && cid <> child.id)
      (List.sort_uniq compare (sibling.neighbors @ child.neighbors))
  in
  List.iter (fun cid -> unlink t sibling.id cid) sibling.neighbors;
  List.iter (fun cid -> unlink t child.id cid) (node t child.id).neighbors;
  sibling.neighbors <- [];
  child.neighbors <- [];
  index_remove t sibling;
  sibling.zone <- parent_zone;
  sibling.path <- parent_path;
  index_add t sibling;
  List.iter
    (fun cid ->
      let c = node t cid in
      if Zone.is_neighbor c.zone sibling.zone then link c sibling)
    candidates

let deepest_node t ~excluding =
  let best = ref None in
  Hashtbl.iter
    (fun id n ->
      if id <> excluding then begin
        let d = Array.length n.path in
        match !best with
        | Some (bd, bid) when (bd, -bid) >= (d, -id) -> ()
        | _ -> best := Some (d, id)
      end)
    t.nodes;
  match !best with Some (_, id) -> Some (node t id) | None -> None

let sibling_of t n =
  let len = Array.length n.path in
  if len = 0 then None
  else begin
    let bits = Array.copy n.path in
    bits.(len - 1) <- 1 - bits.(len - 1);
    match Hashtbl.find_opt t.by_path (path_key bits len) with
    | Some id -> Some (node t id)
    | None -> None
  end

type leave_effect = { survivor : int; backfilled : int option }

let leave t id =
  let x = node t id in
  let finish_removal () =
    Hashtbl.remove t.nodes id;
    t.by_id.(id) <- absent;
    if t.rep = id then
      Hashtbl.iter (fun nid _ -> t.rep <- nid) t.nodes
  in
  if size t = 1 then begin
    index_remove t x;
    finish_removal ();
    { survivor = id; backfilled = None }
  end
  else begin
    (* Find the deepest member other than x; its sibling zone is
       necessarily a single leaf (or is x itself). *)
    let m =
      match deepest_node t ~excluding:id with
      | Some m -> m
      | None -> assert false
    in
    if Array.length m.path <= Array.length x.path then begin
      (* x is (one of) the deepest: merge x into its own sibling leaf. *)
      match sibling_of t x with
      | Some s ->
        merge_siblings t s x;
        index_remove t x;
        finish_removal ();
        { survivor = s.id; backfilled = None }
      | None -> failwith "Can.leave: inconsistent tree (deepest leaf has no sibling)"
    end
    else begin
      match sibling_of t m with
      | Some s when s.id = id ->
        (* x happens to be the deepest pair's sibling: merge m over x. *)
        merge_siblings t m x;
        index_remove t x;
        finish_removal ();
        { survivor = m.id; backfilled = None }
      | Some s ->
        (* Free m by merging it into its sibling, then m backfills x.  The
           merge also fixes x's own neighbor list (the x-m link dies, an
           x-s link may appear), so snapshot x's neighbors only after. *)
        merge_siblings t s m;
        let x_neighbors = x.neighbors in
        List.iter (fun cid -> unlink t x.id cid) x_neighbors;
        index_remove t x;
        index_remove t m;
        m.zone <- x.zone;
        m.path <- x.path;
        index_add t m;
        List.iter
          (fun cid ->
            let c = node t cid in
            link c m)
          (List.filter (fun cid -> cid <> m.id) x_neighbors);
        x.neighbors <- [];
        finish_removal ();
        { survivor = s.id; backfilled = Some m.id }
      | None -> failwith "Can.leave: inconsistent tree (deepest node has no sibling)"
    end
  end

let members_with_prefix t bits =
  match Hashtbl.find_opt t.prefix_members (region_key bits) with
  | Some m -> Members.newest_first m
  | None -> [||]

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let all = node_ids t in
  let* () =
    (* Zones match paths and tile the space. *)
    Array.fold_left
      (fun acc id ->
        let* () = acc in
        let n = node t id in
        if Zone.equal n.zone (zone_of_path ~dims:t.dims n.path) then Ok ()
        else err "node %d: zone does not match path" id)
      (Ok ()) all
  in
  let total = Array.fold_left (fun acc id -> acc +. Zone.volume (node t id).zone) 0.0 all in
  let* () =
    if Float.abs (total -. 1.0) < 1e-9 then Ok ()
    else err "zone volumes sum to %.12f, not 1" total
  in
  let* () =
    (* Neighbor lists: symmetric, geometrically right, and complete. *)
    Array.fold_left
      (fun acc id ->
        let* () = acc in
        let n = node t id in
        let* () =
          List.fold_left
            (fun acc cid ->
              let* () = acc in
              let c = node t cid in
              if not (List.mem id c.neighbors) then err "asymmetric neighbors %d/%d" id cid
              else if not (Zone.is_neighbor n.zone c.zone) then
                err "nodes %d/%d listed but not adjacent" id cid
              else Ok ())
            (Ok ()) n.neighbors
        in
        Array.fold_left
          (fun acc other ->
            let* () = acc in
            if other <> id && Zone.is_neighbor n.zone (node t other).zone
               && not (List.mem other n.neighbors)
            then err "nodes %d/%d adjacent but not listed" id other
            else Ok ())
          (Ok ()) all)
      (Ok ()) all
  in
  let* () =
    (* The dense id array is a view of the member table. *)
    let dense = Array.fold_left (fun acc n -> if n != absent then acc + 1 else acc) 0 t.by_id in
    if dense <> size t then err "id array holds %d nodes, member table %d" dense (size t)
    else
      Hashtbl.fold
        (fun id n acc ->
          let* () = acc in
          if t.by_id.(id) == n then Ok () else err "id array disagrees at %d" id)
        t.nodes (Ok ())
  in
  let* () =
    (* Prefix index agrees with the node set. *)
    Array.fold_left
      (fun acc id ->
        let* () = acc in
        let n = node t id in
        let members = members_with_prefix t n.path in
        if Array.exists (fun m -> m = id) members then Ok ()
        else err "node %d missing from its own prefix set" id)
      (Ok ()) all
  in
  Ok ()
