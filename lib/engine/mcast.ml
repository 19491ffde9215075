module Rng = Prelude.Rng

type policy = Aware | Random

type backend = {
  name : string;
  member : int -> bool;
  route_to : src:int -> dst:int -> int list option;
  candidates : node:int -> exclude:int list -> int list;
  publish_load : node:int -> load:float -> unit;
}

type config = { degree : int; policy : policy; seed : int }

let default_config = { degree = 4; policy = Aware; seed = 42 }

type delivery = {
  publish_seq : int;
  delivered : (int * float * float) list;
  missed : int list;
  max_stress : int;
  link_count : int;
  traversals : int;
  cost_ms : float;
}

type observer = {
  o_subscribes : Metrics.counter;
  o_relays : Metrics.counter;
  o_publishes : Metrics.counter;
  o_delivered : Metrics.counter;
  o_missed : Metrics.counter;
  o_orphaned : Metrics.counter;
  o_regrafts : Metrics.counter;
  o_delivery : Metrics.histogram;
  o_stretch : Metrics.histogram;
  o_stress : Metrics.histogram;
  o_regraft_ms : Metrics.histogram;
  o_depth : Metrics.histogram;
}

type vertex = {
  mutable parent : int;  (* -1 for the root and for orphans *)
  mutable children : int list;  (* attach order *)
  mutable subscriber : bool;  (* false for the root and pure relays *)
  mutable orphaned_at : float;  (* nan while attached *)
  mutable lost_parent : int;  (* parent that died, -1 while attached *)
}

type t = {
  backend : backend;
  config : config;
  link : int -> int -> float;
  rtt : src:int -> dst:int -> float option;
  clock : unit -> float;
  obs : observer option;
  trace : Trace.t option;
  rng : Rng.t;
  root : int;
  nodes : (int, vertex) Hashtbl.t;
  stress : (int * int, int) Hashtbl.t;  (* per-publish scratch *)
  mutable publish_seq : int;
  mutable regraft_count : int;
  mutable relay_count : int;
}

let create ?metrics ?(labels = []) ?trace ?(clock = fun () -> 0.0) ?rtt
    ?(config = default_config) ~link ~root backend =
  if config.degree < 1 then invalid_arg "Mcast.create: degree must be >= 1";
  if not (backend.member root) then invalid_arg "Mcast.create: root is not a member";
  let obs =
    Option.map
      (fun m ->
        {
          o_subscribes = Metrics.counter m ~labels "mcast_subscribes";
          o_relays = Metrics.counter m ~labels "mcast_relays";
          o_publishes = Metrics.counter m ~labels "mcast_publishes";
          o_delivered = Metrics.counter m ~labels "mcast_delivered";
          o_missed = Metrics.counter m ~labels "mcast_missed";
          o_orphaned = Metrics.counter m ~labels "mcast_orphaned";
          o_regrafts = Metrics.counter m ~labels "mcast_regrafts";
          o_delivery = Metrics.histogram m ~labels "mcast_delivery_ms";
          o_stretch = Metrics.histogram m ~labels "mcast_stretch";
          o_stress = Metrics.histogram m ~labels "mcast_link_stress";
          o_regraft_ms = Metrics.histogram m ~labels "mcast_regraft_ms";
          o_depth = Metrics.histogram m ~labels "mcast_tree_depth";
        })
      metrics
  in
  let rtt = match rtt with Some f -> f | None -> fun ~src ~dst -> Some (link src dst) in
  let t =
    {
      backend;
      config;
      link;
      rtt;
      clock;
      obs;
      trace;
      rng = Rng.create config.seed;
      root;
      nodes = Hashtbl.create 256;
      stress = Hashtbl.create 256;
      publish_seq = 0;
      regraft_count = 0;
      relay_count = 0;
    }
  in
  Hashtbl.replace t.nodes root
    { parent = -1; children = []; subscriber = false; orphaned_at = Float.nan; lost_parent = -1 };
  t

let config t = t.config
let size t = Hashtbl.length t.nodes
let regrafts t = t.regraft_count
let relays_recruited t = t.relay_count

let vertex t node = Hashtbl.find_opt t.nodes node
let in_tree t node = Hashtbl.mem t.nodes node
let is_orphan v = not (Float.is_nan v.orphaned_at)

let sorted_members t pred =
  Hashtbl.fold (fun n v acc -> if pred n v then n :: acc else acc) t.nodes []
  |> List.sort compare

let members t = sorted_members t (fun _ _ -> true)
let subscribers t = sorted_members t (fun _ v -> v.subscriber)
let relays t = sorted_members t (fun n v -> (not v.subscriber) && n <> t.root)
let orphans t = sorted_members t (fun _ v -> is_orphan v)

let parent_of t node =
  match vertex t node with Some v when v.parent >= 0 -> Some v.parent | _ -> None

let children t node = match vertex t node with Some v -> v.children | None -> []

let depth_of t node =
  let rec go node steps =
    if steps > Hashtbl.length t.nodes then -1 (* corrupted: cycle *)
    else if node = t.root then steps
    else
      match vertex t node with
      | Some v when v.parent >= 0 -> go v.parent (steps + 1)
      | _ -> -1
  in
  if in_tree t node then go node 0 else -1

(* The nodes of the subtree rooted at [node] (node included). *)
let subtree t node =
  let seen = Hashtbl.create 16 in
  let rec go n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      List.iter go (children t n)
    end
  in
  go node;
  seen

let rtt_to t ~parent ~child =
  match t.rtt ~src:parent ~dst:child with Some r -> r | None -> infinity

(* In-tree nodes that can take one more child, excluding [forbidden]
   (the orphan's own subtree during a regraft) and every current orphan
   subtree (an orphan is disconnected — attaching under it would leave
   the newcomer unreachable).  Ascending node order: the scan, and hence
   every ranking tie-break, is deterministic. *)
let spare_parents t ~forbidden =
  let disconnected = Hashtbl.create 16 in
  Hashtbl.iter
    (fun n v ->
      if is_orphan v then
        Hashtbl.iter (fun m () -> Hashtbl.replace disconnected m ()) (subtree t n))
    t.nodes;
  sorted_members t (fun n v ->
      List.length v.children < t.config.degree
      && (not (Hashtbl.mem forbidden n))
      && not (Hashtbl.mem disconnected n))

let fresh_vertex ~parent ~subscriber =
  { parent; children = []; subscriber; orphaned_at = Float.nan; lost_parent = -1 }

let observe_depth t node =
  Option.iter
    (fun o ->
      let d = depth_of t node in
      if d >= 0 then Metrics.observe o.o_depth (float_of_int d))
    t.obs

(* Put [child] under [parent] (vertex created if absent, re-linked if
   present — the regraft path) and refresh the parent's fanout load in
   the backend's maps. *)
let link_under t ~parent ~child ~subscriber =
  let pv = Hashtbl.find t.nodes parent in
  pv.children <- pv.children @ [ child ];
  (match vertex t child with
  | Some cv ->
    cv.parent <- parent;
    cv.orphaned_at <- Float.nan;
    cv.lost_parent <- -1
  | None -> Hashtbl.replace t.nodes child (fresh_vertex ~parent ~subscriber));
  t.backend.publish_load ~node:parent
    ~load:(float_of_int (List.length pv.children) /. float_of_int t.config.degree)

(* Best spare by (RTT to the child, node id).  The spare set is never
   empty: the tree always has root capacity or a freed slot (a dropped
   node's parent just lost a child). *)
let best_spare t ~child spares =
  List.fold_left
    (fun best p ->
      let score = (rtt_to t ~parent:p ~child, p) in
      match best with Some (bs, _) when bs <= score -> best | _ -> Some (score, p))
    None spares
  |> Option.map snd

(* Policy placement of [child] (not currently attached).  Aware: best
   in-tree spare by RTT — upgraded to a freshly recruited map-proposed
   relay when one is strictly closer.  Random: seeded uniform spare. *)
let place t ~forbidden ~child ~subscriber =
  let spares = spare_parents t ~forbidden in
  match spares with
  | [] -> invalid_arg "Mcast: no spare tree capacity (degree too small?)"
  | _ -> (
    match t.config.policy with
    | Random ->
      let parent = Rng.pick t.rng (Array.of_list spares) in
      link_under t ~parent ~child ~subscriber
    | Aware -> (
      let parent = Option.get (best_spare t ~child spares) in
      let best_rtt = rtt_to t ~parent ~child in
      let proposal =
        t.backend.candidates ~node:child ~exclude:(members t)
        |> List.find_opt (fun c ->
               c <> child && (not (in_tree t c)) && t.backend.member c
               && rtt_to t ~parent:c ~child < best_rtt)
      in
      match proposal with
      | Some relay ->
        (* The relay itself lands under its own best spare; the child
           then attaches beneath it. *)
        let relay_parent = Option.get (best_spare t ~child:relay spares) in
        link_under t ~parent:relay_parent ~child:relay ~subscriber:false;
        t.relay_count <- t.relay_count + 1;
        Option.iter (fun o -> Metrics.incr o.o_relays) t.obs;
        observe_depth t relay;
        link_under t ~parent:relay ~child ~subscriber
      | None -> link_under t ~parent ~child ~subscriber))

let no_forbidden = Hashtbl.create 1

let subscribe t node =
  if not (t.backend.member node) then invalid_arg "Mcast.subscribe: not a member";
  (match vertex t node with
  | Some v when v.subscriber -> invalid_arg "Mcast.subscribe: already subscribed"
  | Some v ->
    (* a previously recruited relay joins the group: promote in place *)
    v.subscriber <- true
  | None -> place t ~forbidden:no_forbidden ~child:node ~subscriber:true);
  Option.iter (fun o -> Metrics.incr o.o_subscribes) t.obs;
  observe_depth t node

let drop_member t node =
  if node = t.root then invalid_arg "Mcast.drop_member: cannot drop the root";
  match vertex t node with
  | None -> false
  | Some v ->
    let now = t.clock () in
    (* detach from the (live) parent *)
    (if v.parent >= 0 then
       match vertex t v.parent with
       | Some pv -> pv.children <- List.filter (fun c -> c <> node) pv.children
       | None -> ());
    (* children become orphans, stamped at the fault instant *)
    List.iter
      (fun c ->
        match vertex t c with
        | Some cv ->
          cv.parent <- -1;
          cv.orphaned_at <- now;
          cv.lost_parent <- node;
          Option.iter (fun o -> Metrics.incr o.o_orphaned) t.obs
        | None -> ())
      v.children;
    Hashtbl.remove t.nodes node;
    true

let regraft t node =
  match vertex t node with
  | Some v when is_orphan v ->
    let lost = v.lost_parent and since = v.orphaned_at in
    (* the orphan's own subtree must not adopt it: that is a cycle *)
    place t ~forbidden:(subtree t node) ~child:node ~subscriber:v.subscriber;
    t.regraft_count <- t.regraft_count + 1;
    let latency = t.clock () -. since in
    Option.iter
      (fun o ->
        Metrics.incr o.o_regrafts;
        Metrics.observe o.o_regraft_ms latency)
      t.obs;
    Option.iter
      (fun tr ->
        Trace.emit tr ~dur:latency ~peer:v.parent (Trace.Mcast_regraft { lost_parent = lost })
          ~node)
      t.trace;
    observe_depth t node
  | Some _ | None -> invalid_arg "Mcast.regraft: not an orphan"

let count_stress t hops =
  let rec go = function
    | a :: (b :: _ as rest) ->
      let key = (min a b, max a b) in
      Hashtbl.replace t.stress key (1 + Option.value ~default:0 (Hashtbl.find_opt t.stress key));
      go rest
    | [ _ ] | [] -> ()
  in
  go hops

let publish t =
  let seq = t.publish_seq in
  t.publish_seq <- t.publish_seq + 1;
  Hashtbl.reset t.stress;
  Option.iter (fun o -> Metrics.incr o.o_publishes) t.obs;
  let delivered = ref [] and missed = ref [] in
  (* A node below a failed edge (or inside an orphaned subtree) is
     missed along with every subscriber beneath it. *)
  let rec miss_subtree node =
    (match vertex t node with
    | Some v when v.subscriber -> missed := node :: !missed
    | _ -> ());
    List.iter miss_subtree (children t node)
  in
  let rec walk node latency =
    (match vertex t node with
    | Some v when v.subscriber ->
      let uni =
        match t.backend.route_to ~src:t.root ~dst:node with
        | Some hops -> Route_obs.latency t.link hops
        | None -> 0.0
      in
      let stretch = if uni > 0.0 then latency /. uni else 1.0 in
      delivered := (node, latency, stretch) :: !delivered;
      Option.iter
        (fun o ->
          Metrics.incr o.o_delivered;
          Metrics.observe o.o_delivery latency;
          Metrics.observe o.o_stretch stretch)
        t.obs;
      Option.iter
        (fun tr ->
          Trace.emit tr ~dur:latency ~peer:v.parent (Trace.Mcast_deliver { publish = seq }) ~node)
        t.trace
    | _ -> ());
    List.iter
      (fun child ->
        match t.backend.route_to ~src:node ~dst:child with
        | Some hops ->
          count_stress t hops;
          walk child (latency +. Route_obs.latency t.link hops)
        | None -> miss_subtree child)
      (children t node)
  in
  walk t.root 0.0;
  List.iter (fun o -> miss_subtree o) (orphans t);
  let missed = List.sort compare !missed in
  Option.iter (fun o -> Metrics.add o.o_missed (List.length missed)) t.obs;
  (* stress samples in sorted link order: deterministic histogram fill *)
  let links =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.stress [] |> List.sort compare
  in
  let max_stress = List.fold_left (fun m (_, c) -> max m c) 0 links in
  let traversals = List.fold_left (fun s (_, c) -> s + c) 0 links in
  (* resource usage a la end-system multicast: stress-weighted physical
     latency over every link the publish traversed *)
  let cost_ms =
    List.fold_left (fun s ((a, b), c) -> s +. (float_of_int c *. t.link a b)) 0.0 links
  in
  Option.iter
    (fun o -> List.iter (fun (_, c) -> Metrics.observe o.o_stress (float_of_int c)) links)
    t.obs;
  {
    publish_seq = seq;
    delivered = List.sort compare !delivered;
    missed;
    max_stress;
    link_count = List.length links;
    traversals;
    cost_ms;
  }

let check_invariants t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_node node v acc =
    match acc with
    | Error _ -> acc
    | Ok () ->
      if List.length v.children > t.config.degree then
        err "node %d has %d children, degree %d" node (List.length v.children) t.config.degree
      else if List.length (List.sort_uniq compare v.children) <> List.length v.children then
        err "node %d has duplicate children" node
      else if
        List.exists
          (fun c -> match vertex t c with Some cv -> cv.parent <> node | None -> true)
          v.children
      then err "node %d has a child whose parent link disagrees" node
      else if node = t.root && (v.parent >= 0 || is_orphan v) then
        err "root %d has a parent or is orphaned" node
      else if node <> t.root && v.parent < 0 && not (is_orphan v) then
        err "node %d is detached but not orphaned" node
      else if
        v.parent >= 0
        && (match vertex t v.parent with
           | Some pv -> not (List.mem node pv.children)
           | None -> true)
      then err "node %d's parent %d does not list it" node v.parent
      else Ok ()
  in
  match Hashtbl.fold check_node t.nodes (Ok ()) with
  | Error _ as e -> e
  | Ok () ->
    (* Root + orphan roots must cover every vertex exactly once:
       connected (up to orphanhood) and acyclic. *)
    let seen = Hashtbl.create 64 in
    let dup = ref None in
    let rec visit n =
      if Hashtbl.mem seen n then dup := Some n
      else begin
        Hashtbl.replace seen n ();
        List.iter visit (children t n)
      end
    in
    visit t.root;
    List.iter visit (orphans t);
    (match !dup with
    | Some n -> err "node %d reached twice (cycle or shared child)" n
    | None ->
      if Hashtbl.length seen <> Hashtbl.length t.nodes then
        err "forest covers %d of %d nodes (disconnected)" (Hashtbl.length seen)
          (Hashtbl.length t.nodes)
      else Ok ())
