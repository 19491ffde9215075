(* Flat stride-indexed layouts: the seed's [float array array] core
   all-pairs and [float array array array] per-stub tables become single
   [float array]s ([core_dist] with row stride [n_transit]; [stub_dist]
   as concatenated per-stub all-pairs blocks at [stub_off.(s)], row
   stride [stub_sz.(s)]), so a distance query is a couple of int
   multiplies and flat loads instead of chasing three boxed rows.

   [hierarchical_dist] branches on precomputed per-node arrays ([gw] /
   [aw] / [tr] are 0.0 / 0.0 / the node itself for transit nodes).  The
   float-add groupings of the seed's four-way branch are preserved
   exactly — [(0.0 +. 0.0) +. x = x] is exact, so the unified
   stub/transit formula reproduces the seed's bytes in every case that
   shares its shape, and the one case with a different seed grouping
   (u in a stub, v transit) keeps its own branch. *)

type hierarchical = {
  topo : Transit_stub.t;
  n_transit : int;
  core_dist : float array;  (* n_transit^2, row stride n_transit *)
  stub_off : int array;  (* stub -> offset of its all-pairs block *)
  stub_sz : int array;  (* stub -> member count (= block row stride) *)
  stub_dist : float array;  (* concatenated per-stub all-pairs blocks *)
  local_idx : int array;  (* node -> index within its stub; -1 for transit *)
  stub_of : int array;  (* node -> stub id; -1 for transit *)
  gw : float array;  (* node -> latency to its stub's gateway; 0 for transit *)
  aw : float array;  (* node -> its stub's access-link weight; 0 for transit *)
  tr : int array;  (* node -> its stub's attach transit node; itself for transit *)
}

type backend =
  | Hierarchical of hierarchical
  | Dense of { nodes : int; all_pairs : float array }  (* nodes^2, row stride nodes *)

type t = { backend : backend; mutable count : int  (* measurements so far *) }

let build (topo : Transit_stub.t) =
  let n = Graph.node_count topo.graph in
  let n_transit = Array.length topo.transit_nodes in
  let ws = Dijkstra.Workspace.create n_transit in
  (* Core all-pairs over the transit-only subgraph (ids 0..n_transit-1). *)
  let core_graph, _ = Graph.subgraph topo.graph topo.transit_nodes in
  let core_dist = Array.make (n_transit * n_transit) infinity in
  let row = Array.make n_transit infinity in
  for src = 0 to n_transit - 1 do
    Dijkstra.distances_into ws core_graph src row;
    Array.blit row 0 core_dist (src * n_transit) n_transit
  done;
  let stub_count = Array.length topo.stub_members in
  let local_idx = Array.make n (-1) in
  Array.iter
    (fun members -> Array.iteri (fun i id -> local_idx.(id) <- i) members)
    topo.stub_members;
  let stub_sz = Array.map Array.length topo.stub_members in
  let stub_off = Array.make stub_count 0 in
  let total = ref 0 in
  for s = 0 to stub_count - 1 do
    stub_off.(s) <- !total;
    total := !total + (stub_sz.(s) * stub_sz.(s))
  done;
  let stub_dist = Array.make (max 1 !total) infinity in
  let max_stub = Array.fold_left max 1 stub_sz in
  let srow = Array.make max_stub infinity in
  for s = 0 to stub_count - 1 do
    let sub, _ = Graph.subgraph topo.graph topo.stub_members.(s) in
    let sz = stub_sz.(s) in
    for src = 0 to sz - 1 do
      Dijkstra.distances_into ws sub src srow;
      Array.blit srow 0 stub_dist (stub_off.(s) + (src * sz)) sz
    done
  done;
  let gw = Array.make n 0.0 in
  let aw = Array.make n 0.0 in
  let tr = Array.init n (fun i -> i) in
  Array.iteri
    (fun s members ->
      let gw_local = local_idx.(topo.stub_attach_stub_node.(s)) in
      let w = topo.stub_attach_weight.(s) in
      let t = topo.stub_attach_transit.(s) in
      Array.iter
        (fun id ->
          gw.(id) <- stub_dist.(stub_off.(s) + (local_idx.(id) * stub_sz.(s)) + gw_local);
          aw.(id) <- w;
          tr.(id) <- t)
        members)
    topo.stub_members;
  {
    backend =
      Hierarchical
        {
          topo;
          n_transit;
          core_dist;
          stub_off;
          stub_sz;
          stub_dist;
          local_idx;
          stub_of = topo.stub_of;
          gw;
          aw;
          tr;
        };
    count = 0;
  }

let of_graph graph =
  let n = Graph.node_count graph in
  let ws = Dijkstra.Workspace.create n in
  let all_pairs = Array.make (max 1 (n * n)) infinity in
  let row = Array.make (max 1 n) infinity in
  for src = 0 to n - 1 do
    Dijkstra.distances_into ws graph src row;
    Array.blit row 0 all_pairs (src * n) n
  done;
  { backend = Dense { nodes = n; all_pairs }; count = 0 }

let topology t =
  match t.backend with Hierarchical h -> Some h.topo | Dense _ -> None

let node_count t =
  match t.backend with
  | Hierarchical h -> Graph.node_count h.topo.Transit_stub.graph
  | Dense d -> d.nodes

let hierarchical_dist h u v =
  let su = h.stub_of.(u) and sv = h.stub_of.(v) in
  if su = sv then
    if su < 0 then h.core_dist.((u * h.n_transit) + v)
    else h.stub_dist.(h.stub_off.(su) + (h.local_idx.(u) * h.stub_sz.(su)) + h.local_idx.(v))
  else if sv < 0 then
    (* u in a stub, v transit: the seed's grouping for this case puts the
       core leg first. *)
    h.core_dist.((v * h.n_transit) + h.tr.(u)) +. h.aw.(u) +. h.gw.(u)
  else
    (* Both in (different) stubs, or u transit (gw/aw collapse to exact
       +. 0.0 and tr.(u) = u). *)
    h.gw.(u) +. h.aw.(u)
    +. h.core_dist.((h.tr.(u) * h.n_transit) + h.tr.(v))
    +. h.aw.(v) +. h.gw.(v)

let dist t u v =
  if u = v then 0.0
  else begin
    match t.backend with
    | Hierarchical h -> hierarchical_dist h u v
    | Dense d -> d.all_pairs.((u * d.nodes) + v)
  end

let measure t u v =
  t.count <- t.count + 1;
  dist t u v

let measurements t = t.count
let reset_measurements t = t.count <- 0

let nearest t u candidates =
  let best = ref None in
  Array.iter
    (fun c ->
      if c <> u then begin
        let d = dist t u c in
        match !best with
        | Some (bc, bd) when bd < d || (bd = d && bc <= c) -> ()
        | _ -> best := Some (c, d)
      end)
    candidates;
  !best
