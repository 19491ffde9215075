module Oracle = Topology.Oracle
module Builder = Core.Builder
module Store = Softstate.Store
module Can_overlay = Can.Overlay
module Ring = Chord.Ring
module Mesh = Pastry.Mesh
module Dbj = Koorde.Debruijn

type pick = node:int -> candidates:int array -> int option

type t = {
  name : string;
  mem : int -> bool;
  node_ids : unit -> int array;
  add : int -> unit;
  remove : int -> unit;
  rebuild : pick:pick -> unit;
  route : src:int -> key:int -> int list option;
  owner : int -> int;
  key_space : int;
  key_of : int -> int;
  invariants : unit -> (unit, string) result;
}

type kind = Chord | Pastry | Koorde of int

(* ------------------------------------------------------------------ *)
(* Table completeness: what a clean rebuild from the membership fills  *)
(* ------------------------------------------------------------------ *)

let fingers_complete ring =
  let bits = Ring.key_bits ring in
  let space = 1 lsl bits in
  let missing = ref 0 in
  Array.iter
    (fun id ->
      let key = Ring.key_of ring id in
      let filled = Ring.fingers ring id in
      for i = 0 to bits - 1 do
        let lo = (key + (1 lsl i)) land (space - 1) in
        let members = Ring.arc_members ring ~lo ~span:(1 lsl i) in
        if Array.exists (fun m -> m <> id) members && not (List.mem_assoc i filled) then
          incr missing
      done)
    (Ring.node_ids ring);
  if !missing > 0 then Error (Printf.sprintf "%d fingers unset for inhabited arcs" !missing)
  else Ok ()

let slots_complete mesh =
  let ids = Mesh.node_ids mesh in
  let nd = Mesh.num_digits mesh and db = Mesh.digit_bits mesh in
  (* Count members under every prefix once, so the per-slot inhabitation
     test is O(1). *)
  let counts = Hashtbl.create 4096 in
  Array.iter
    (fun id ->
      let pid = Mesh.pastry_id mesh id in
      for r = 1 to nd do
        let key = (r, pid lsr (db * (nd - r))) in
        Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
      done)
    ids;
  let missing = ref 0 in
  Array.iter
    (fun id ->
      let pid = Mesh.pastry_id mesh id in
      let filled = Mesh.table_entries mesh id in
      for r = 0 to nd - 1 do
        let own = Mesh.digit mesh pid r in
        for c = 0 to (1 lsl db) - 1 do
          if c <> own then begin
            let p = (pid lsr (db * (nd - r - 1))) land lnot ((1 lsl db) - 1) lor c in
            let inhabited = Hashtbl.mem counts (r + 1, p) in
            let have = List.exists (fun (rr, cc, _) -> rr = r && cc = c) filled in
            if inhabited && not have then incr missing
          end
        done
      done)
    ids;
  if !missing > 0 then
    Error (Printf.sprintf "%d routing slots unfilled for inhabited prefixes" !missing)
  else Ok ()

(* Every cover list must match what a clean rebuild would compute from
   the current membership: the charge of the image-arc start plus every
   member inside the arc. *)
let covers_complete dbj =
  let stale = ref 0 in
  Array.iter
    (fun id ->
      if Dbj.size dbj > 1 then begin
        let lo, span = Dbj.image_arc dbj id in
        let expected = Hashtbl.create 8 in
        Hashtbl.replace expected (Dbj.charge_node dbj lo) ();
        Array.iter (fun m -> Hashtbl.replace expected m ()) (Dbj.arc_members dbj ~lo ~span);
        let cover = Dbj.cover dbj id in
        if
          Array.length cover <> Hashtbl.length expected
          || not (Array.for_all (fun c -> Hashtbl.mem expected c) cover)
        then incr stale
      end)
    (Dbj.node_ids dbj);
  if !stale > 0 then Error (Printf.sprintf "%d cover lists diverge from the membership" !stale)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* The three adapters                                                  *)
(* ------------------------------------------------------------------ *)

let chord rng =
  let ring = Ring.create () in
  {
    name = "chord";
    mem = Ring.mem ring;
    node_ids = (fun () -> Ring.node_ids ring);
    add = Ring.add_node ring ~rng;
    remove = Ring.remove_node ring;
    rebuild =
      (fun ~pick ->
        Ring.build_fingers ring ~selector:(fun ~node ~arc:_ ~candidates -> pick ~node ~candidates));
    route = Ring.route ring;
    owner = Ring.successor_node ring;
    key_space = 1 lsl Ring.key_bits ring;
    key_of = Ring.key_of ring;
    invariants =
      (fun () -> Result.bind (Ring.check_invariants ring) (fun () -> fingers_complete ring));
  }

let pastry rng =
  let mesh = Mesh.create () in
  {
    name = "pastry";
    mem = Mesh.mem mesh;
    node_ids = (fun () -> Mesh.node_ids mesh);
    add = Mesh.add_node mesh ~rng;
    remove = Mesh.remove_node mesh;
    rebuild =
      (fun ~pick ->
        Mesh.build_tables mesh ~selector:(fun ~node ~prefix:_ ~candidates -> pick ~node ~candidates));
    route = Mesh.route mesh;
    owner = Mesh.owner_of mesh;
    key_space = 1 lsl (Mesh.digit_bits mesh * Mesh.num_digits mesh);
    key_of = Mesh.pastry_id mesh;
    invariants =
      (fun () -> Result.bind (Mesh.check_invariants mesh) (fun () -> slots_complete mesh));
  }

let koorde ~degree rng =
  let dbj = Dbj.create ~degree () in
  {
    name = "koorde";
    mem = Dbj.mem dbj;
    node_ids = (fun () -> Dbj.node_ids dbj);
    add = Dbj.add_node dbj ~rng;
    remove = Dbj.remove_node dbj;
    rebuild =
      (fun ~pick ->
        Dbj.build_fingers dbj ~selector:(fun ~node ~arc:_ ~candidates -> pick ~node ~candidates));
    route = Dbj.route dbj;
    owner = Dbj.successor_node dbj;
    key_space = 1 lsl Dbj.key_bits dbj;
    key_of = Dbj.key_of dbj;
    invariants =
      (fun () -> Result.bind (Dbj.check_invariants dbj) (fun () -> covers_complete dbj));
  }

let create kind rng =
  match kind with
  | Chord -> chord rng
  | Pastry -> pastry rng
  | Koorde degree -> koorde ~degree rng

(* ------------------------------------------------------------------ *)
(* Selection and placement                                             *)
(* ------------------------------------------------------------------ *)

let hybrid_pick prober ~vector_of ~budget ~node ~candidates =
  let curve = Proximity.Search.hybrid_curve prober ~vector_of ~candidates ~query:node ~budget in
  let probes = Array.length curve.Proximity.Search.found in
  ((if probes = 0 then None else Some curve.Proximity.Search.found.(probes - 1)), probes)

let nearest oracle ids ~node ~exclude =
  Array.to_list ids
  |> List.filter (fun c -> c <> node && not (List.mem c exclude))
  |> List.map (fun c -> (Oracle.dist oracle node c, c))
  |> List.sort compare
  |> List.map snd

let map_candidates b ~node ~exclude =
  let can = Ecan.Expressway.can b.Builder.ecan in
  Store.lookup b.Builder.store ~region:[||] ~vector:(Builder.vector_of b node) ~max_results:12
    ~ttl:2 ~max_load:0.99 ()
  |> List.filter_map (fun (e : Store.Entry.t) ->
         let c = e.Store.Entry.node in
         if c <> node && (not (List.mem c exclude)) && Can_overlay.mem can c then Some c else None)

let publish_load b ~node ~load =
  let store = b.Builder.store in
  List.iter
    (fun region -> Store.update_stats store ~region ~node ~load ~capacity:1.0)
    (Store.regions_of store node)

(* ------------------------------------------------------------------ *)
(* Service adapters: the cache and multicast rows                      *)
(* ------------------------------------------------------------------ *)

type service = {
  name : string;
  member : int -> bool;
  home_of : int -> int;
  route_to : src:int -> dst:int -> int list option;
  candidates : node:int -> exclude:int list -> int list;
  publish_load : node:int -> load:float -> unit;
  on_remove : int -> unit;
  on_join : int -> unit;
}

let service_rtt ~metrics ~labels ~clock oracle =
  let prober =
    Engine.Probe.create ~metrics ~labels ~clock
      ~config:{ Engine.Probe.default_config with Engine.Probe.cache_ttl = 600_000.0 }
      ~measure:(Oracle.measure oracle) ()
  in
  fun ~src ~dst ->
    match Engine.Probe.rtt prober ~src ~dst with Ok r -> Some r | Error _ -> None

let mix62 k = Int64.to_int (Int64.shift_right_logical (Prelude.Rng.splitmix64 (Int64.of_int k)) 2)

(* Placement skips hosts whose published load crossed 0.99: the §6
   load/capacity fields doing service-layer work. *)
let builder_service ~name ~route b =
  let can = Ecan.Expressway.can b.Builder.ecan in
  let point_of_key key =
    let h = mix62 key in
    let x = float_of_int (h land 0x3FFFFFFF) /. 1073741824.0 in
    let y = float_of_int ((h lsr 30) land 0x3FFFFFFF) /. 1073741824.0 in
    [| x; y |]
  in
  {
    name;
    member = Can_overlay.mem can;
    home_of = (fun key -> Can_overlay.owner_of can (point_of_key key));
    route_to =
      (fun ~src ~dst ->
        if Can_overlay.mem can dst then Core.Measure.to_member can route ~src dst else None);
    candidates = map_candidates b;
    publish_load = publish_load b;
    on_remove = ignore;
    on_join = ignore;
  }

(* Koorde applies the shared selection to image-arc cover sets of only
   ~k candidates per node.  Placement is the optimum a map lookup
   approximates. *)
let ring_service ~seed b kind =
  let oracle = b.Builder.oracle in
  let index = match kind with Chord -> 0 | Pastry -> 1 | Koorde _ -> 2 in
  let be = create kind (Prelude.Rng.create ((seed * 6007) + index + 1)) in
  Array.iter be.add b.Builder.members;
  let prober = Engine.Probe.create ~measure:(Oracle.measure oracle) () in
  let pick ~node ~candidates =
    fst (hybrid_pick prober ~vector_of:(Builder.vector_of b) ~budget:5 ~node ~candidates)
  in
  be.rebuild ~pick;
  {
    name = be.name;
    member = be.mem;
    home_of = (fun key -> be.owner (mix62 key mod be.key_space));
    route_to =
      (fun ~src ~dst -> if not (be.mem dst) then None else be.route ~src ~key:(be.key_of dst));
    candidates =
      (fun ~node ~exclude ->
        nearest oracle (be.node_ids ()) ~node ~exclude |> List.filteri (fun i _ -> i < 12));
    publish_load = (fun ~node:_ ~load:_ -> ());
    on_remove =
      (fun v ->
        be.remove v;
        be.rebuild ~pick);
    on_join =
      (fun n ->
        be.add n;
        be.rebuild ~pick);
  }
