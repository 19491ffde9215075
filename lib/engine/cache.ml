type backend = {
  name : string;
  member : int -> bool;
  home_of : int -> int;
  route_to : src:int -> dst:int -> int list option;
  near : node:int -> exclude:int list -> int option;
  publish_load : node:int -> load:float -> unit;
}

type config = { replicas : int; load_threshold : int; origin_ms : float; hot_keys : int }

let default_config = { replicas = 1; load_threshold = 64; origin_ms = 150.0; hot_keys = 4 }

type outcome = {
  key : int;
  client : int;
  served_by : int;
  hit : bool;
  shed : bool;
  hops : int;
  latency : float;
}

type observer = {
  o_requests : Metrics.counter;
  o_hits : Metrics.counter;
  o_misses : Metrics.counter;
  o_sheds : Metrics.counter;
  o_failovers : Metrics.counter;
  o_replications : Metrics.counter;
  o_latency : Metrics.histogram;
  o_load_max : Metrics.gauge;
}

(* Int keys are their own hash: a probe pays no [caml_hash] and no
   polymorphic compare.  No table below is read in bucket order: keys
   are sorted before they are returned. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (k : int) = k
end)

(* A node's load: requests served in all, and per key. *)
type load = { mutable served : int; per_key : int ref Int_tbl.t }

type t = {
  backend : backend;
  config : config;
  link : int -> int -> float;
  rtt : src:int -> dst:int -> float option;
  obs : observer option;
  trace : Trace.t option;
  copies : int list Int_tbl.t;  (* key -> holders, placement order *)
  loads : load Int_tbl.t;  (* node -> its load, once it has served *)
  mutable max_load : int;
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  mutable sheds : int;
  mutable failovers : int;
  mutable replications : int;
}

let create ?metrics ?(labels = []) ?trace ?clock:_ ?rtt ?(config = default_config) ~link
    backend =
  if config.replicas < 1 then invalid_arg "Cache.create: replicas must be >= 1";
  if config.load_threshold < 1 then invalid_arg "Cache.create: load_threshold must be >= 1";
  if config.origin_ms < 0.0 then invalid_arg "Cache.create: origin_ms must be >= 0";
  if config.hot_keys < 1 then invalid_arg "Cache.create: hot_keys must be >= 1";
  let obs =
    Option.map
      (fun m ->
        {
          o_requests = Metrics.counter m ~labels "cache_requests";
          o_hits = Metrics.counter m ~labels "cache_hits";
          o_misses = Metrics.counter m ~labels "cache_misses";
          o_sheds = Metrics.counter m ~labels "cache_sheds";
          o_failovers = Metrics.counter m ~labels "cache_failovers";
          o_replications = Metrics.counter m ~labels "cache_replications";
          o_latency = Metrics.histogram m ~labels "cache_request_ms";
          o_load_max = Metrics.gauge m ~labels "cache_load_max";
        })
      metrics
  in
  let rtt = match rtt with Some f -> f | None -> fun ~src ~dst -> Some (link src dst) in
  {
    backend;
    config;
    link;
    rtt;
    obs;
    trace;
    copies = Int_tbl.create 1024;
    loads = Int_tbl.create 256;
    max_load = 0;
    requests = 0;
    hits = 0;
    misses = 0;
    sheds = 0;
    failovers = 0;
    replications = 0;
  }

let config t = t.config
let requests t = t.requests
let hits t = t.hits
let misses t = t.misses
let sheds t = t.sheds
let failovers t = t.failovers
let replications t = t.replications
let max_load t = t.max_load

let replicas_of t key = try Int_tbl.find t.copies key with Not_found -> []

let stored_keys t = List.sort compare (Int_tbl.fold (fun k _ acc -> k :: acc) t.copies [])

let load_of t node = try (Int_tbl.find t.loads node).served with Not_found -> 0

let bump_load t node key =
  let load =
    match Int_tbl.find t.loads node with
    | load -> load
    | exception Not_found ->
      let load = { served = 0; per_key = Int_tbl.create 64 } in
      Int_tbl.add t.loads node load;
      load
  in
  let served = load.served + 1 in
  load.served <- served;
  (match Int_tbl.find load.per_key key with
  | count -> incr count
  | exception Not_found -> Int_tbl.add load.per_key key (ref 1));
  if served > t.max_load then begin
    t.max_load <- served;
    match t.obs with Some o -> Metrics.set o.o_load_max (float_of_int served) | None -> ()
  end;
  served

(* Hottest keys of a node: count descending, key ascending —
   a total order, so the scan is deterministic. *)
let hottest_keys t node limit =
  match Int_tbl.find t.loads node with
  | exception Not_found -> []
  | load ->
    Int_tbl.fold (fun k c acc -> (- !c, k) :: acc) load.per_key []
    |> List.sort compare
    |> List.filteri (fun i _ -> i < limit)
    |> List.map snd

(* Copy the node's hottest under-replicated keys to a near host.  The
   node's fresh load goes to the backend first so a soft-state-backed
   [near] ranks against current load/capacity fields. *)
let replicate_hot t node served =
  t.backend.publish_load ~node
    ~load:(float_of_int served /. float_of_int t.config.load_threshold);
  List.iter
    (fun key ->
      let holders = replicas_of t key in
      if List.length holders < t.config.replicas && List.mem node holders then
        match t.backend.near ~node ~exclude:holders with
        | Some target when t.backend.member target && not (List.mem target holders) ->
          Int_tbl.replace t.copies key (holders @ [ target ]);
          t.replications <- t.replications + 1;
          (match t.obs with Some o -> Metrics.incr o.o_replications | None -> ());
          (match t.trace with
          | Some tr -> Trace.emit tr ~peer:target (Trace.Cache_replicate { key }) ~node
          | None -> ())
        | Some _ | None -> ())
    (hottest_keys t node t.config.hot_keys)

type score = { over : bool; ms : float; id : int }  (* over: at or past the threshold *)

let score t ~client node =
  let ms = match t.rtt ~src:client ~dst:node with Some r -> r | None -> infinity in
  { over = load_of t node >= t.config.load_threshold; ms; id = node }

let by_rtt a b =
  let c = Float.compare a.ms b.ms in
  if c <> 0 then c else Int.compare a.id b.id

let by_pref a b =
  let c = Bool.compare a.over b.over in
  if c <> 0 then c else by_rtt a b

let rec nearer_after first = function
  | [] -> false
  | s :: rest -> by_rtt s first < 0 || nearer_after first rest

(* The holders that are still members, calling [member] once per holder
   in order; the list itself when none has gone. *)
let rec live_holders member = function
  | [] -> []
  | node :: rest as holders ->
    let alive = member node in
    let rest' = live_holders member rest in
    if not alive then rest' else if rest' == rest then holders else node :: rest'

let finish t ~client ~key ~served_by ~hit ~shed ~hops ~latency =
  t.requests <- t.requests + 1;
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  if shed then t.sheds <- t.sheds + 1;
  (match t.obs with
  | Some o ->
    Metrics.incr o.o_requests;
    Metrics.incr (if hit then o.o_hits else o.o_misses);
    if shed then Metrics.incr o.o_sheds;
    Metrics.observe o.o_latency latency
  | None -> ());
  (match t.trace with
  | Some tr ->
    let outcome = if not hit then Trace.Miss else if shed then Trace.Shed else Trace.Hit in
    Trace.emit tr ~dur:latency ~peer:served_by (Trace.Cache_request { outcome; key }) ~node:client
  | None -> ());
  let served = bump_load t served_by key in
  if t.config.replicas > 1 && served mod t.config.load_threshold = 0 then
    replicate_hot t served_by served;
  { key; client; served_by; hit; shed; hops; latency }

let miss t ~client ~key =
  let home = t.backend.home_of key in
  match t.backend.route_to ~src:client ~dst:home with
  | None -> failwith "Cache.request: key home unroutable"
  | Some hops_list ->
    let latency = Route_obs.latency t.link hops_list +. t.config.origin_ms in
    Int_tbl.replace t.copies key [ home ];
    finish t ~client ~key ~served_by:home ~hit:false ~shed:false
      ~hops:(List.length hops_list - 1) ~latency

let count_failover t =
  t.failovers <- t.failovers + 1;
  match t.obs with Some o -> Metrics.incr o.o_failovers | None -> ()

(* Serve from the first routable copy of [order]; [failed] once a copy
   was skipped. *)
let rec serve t ~client ~key ~shed ~failed = function
  | [] ->
    (* every copy unroutable: drop them all and refetch from origin *)
    Int_tbl.remove t.copies key;
    if failed then count_failover t;
    miss t ~client ~key
  | copy :: rest -> (
    match t.backend.route_to ~src:client ~dst:copy with
    | Some hops_list ->
      if failed then count_failover t;
      finish t ~client ~key ~served_by:copy ~hit:true ~shed
        ~hops:(List.length hops_list - 1)
        ~latency:(Route_obs.latency t.link hops_list)
    | None ->
      (* unreachable copy: prune it and fail over to the next *)
      Int_tbl.replace t.copies key (List.filter (fun n -> n <> copy) (replicas_of t key));
      serve t ~client ~key ~shed ~failed:true rest)

(* Rank the key's copies for [client] — cool (below-threshold) copies
   before hot ones, then by client->copy RTT (unknown RTT last), ties to
   the lower id — and pass [k] the ids in that order and whether serving
   the first is a shed: some later copy is RTT-nearer.  [t.rtt] is
   called once per holder, in holder order; a single copy is its own
   order and no shed, so it is not scored.  [k] is handed [t], [client]
   and [key] back, so [request] passes [serve] without a closure. *)
let rank t ~client ~key holders k =
  match holders with
  | [ node ] ->
    ignore (t.rtt ~src:client ~dst:node);
    k t ~client ~key ~shed:false holders
  | _ -> (
    match List.sort by_pref (List.map (score t ~client) holders) with
    | [] -> k t ~client ~key ~shed:false []
    | first :: rest as order ->
      k t ~client ~key ~shed:(nearer_after first rest) (List.map (fun s -> s.id) order))

let rank_copies t ~client holders =
  rank t ~client ~key:0 holders (fun _ ~client:_ ~key:_ ~shed order -> (order, shed))

let request t ~client ~key =
  if not (t.backend.member client) then invalid_arg "Cache.request: client is not a member";
  let stored = replicas_of t key in
  let holders = live_holders t.backend.member stored in
  if holders != stored && holders <> [] then Int_tbl.replace t.copies key holders;
  match holders with
  | [] -> miss t ~client ~key
  | _ :: _ ->
    rank t ~client ~key holders (fun t ~client ~key ~shed order ->
        serve t ~client ~key ~shed ~failed:false order)

let check_invariants t =
  let result = ref (Ok ()) in
  List.iter
    (fun key ->
      match !result with
      | Error _ -> ()
      | Ok () ->
        let holders = replicas_of t key in
        if List.length holders > t.config.replicas then
          result :=
            Error
              (Printf.sprintf "key %d has %d copies, max %d" key (List.length holders)
                 t.config.replicas)
        else if List.length (List.sort_uniq compare holders) <> List.length holders then
          result := Error (Printf.sprintf "key %d has duplicate copy holders" key))
    (stored_keys t);
  !result
