module Number = Landmark.Number
module Landmarks = Landmark.Landmarks

type entry = {
  node : int;
  vector : float array;
  number : int;
  store_key : int;
}

type t = {
  ring : Keyring.t;
  scheme : Number.scheme;
  by_host : (int, entry list ref) Hashtbl.t;
  by_node : (int, entry) Hashtbl.t;
}

let create ~scheme ring = { ring; scheme; by_host = Hashtbl.create 64; by_node = Hashtbl.create 64 }

let store_key_of t vector =
  let u = Number.to_unit t.scheme (Number.number t.scheme vector) in
  let ring_size = Keyring.ring_size t.ring in
  let k = int_of_float (u *. float_of_int ring_size) in
  if k >= ring_size then ring_size - 1 else k

let host_of t key = Keyring.successor_node t.ring key

let host_add t host entry =
  match Hashtbl.find_opt t.by_host host with
  | Some l -> l := entry :: !l
  | None -> Hashtbl.replace t.by_host host (ref [ entry ])

let host_remove t host entry =
  match Hashtbl.find_opt t.by_host host with
  | Some l ->
    l := List.filter (fun e -> e.node <> entry.node) !l;
    if !l = [] then Hashtbl.remove t.by_host host
  | None -> ()

let unpublish t node =
  match Hashtbl.find_opt t.by_node node with
  | Some e ->
    Hashtbl.remove t.by_node node;
    host_remove t (host_of t e.store_key) e
  | None -> ()

let publish t ~node ~vector =
  if Keyring.size t.ring = 0 then invalid_arg "Softmap.publish: empty ring";
  unpublish t node;
  let store_key = store_key_of t vector in
  let e = { node; vector = Array.copy vector; number = Number.number t.scheme vector; store_key } in
  Hashtbl.replace t.by_node node e;
  host_add t (host_of t store_key) e

let rehome t =
  Hashtbl.reset t.by_host;
  Hashtbl.iter (fun _ e -> host_add t (host_of t e.store_key) e) t.by_node

let entries_at t host =
  match Hashtbl.find_opt t.by_host host with Some l -> !l | None -> []

let lookup t ~vector ?in_arc:arc ?(max_results = 16) ?(ttl = 32) () =
  if Keyring.size t.ring = 0 then []
  else begin
    let accepts e =
      match arc with
      | None -> true
      | Some (lo, span) -> Keyring.clockwise t.ring lo (Keyring.key_of t.ring e.node) < span
    in
    let collected = ref [] in
    let count = ref 0 in
    let start = host_of t (store_key_of t vector) in
    let host = ref start in
    let hops = ref 0 in
    let continue = ref true in
    while !continue && !count < max_results && !hops < ttl do
      List.iter
        (fun e ->
          if accepts e then begin
            collected := e :: !collected;
            incr count
          end)
        (entries_at t !host);
      incr hops;
      let next = Keyring.successor_node t.ring (Keyring.key_of t.ring !host + 1) in
      if next = start then continue := false else host := next
    done;
    !collected
    |> List.map (fun e -> (Landmarks.vector_dist vector e.vector, e.node, e))
    |> List.sort compare
    |> List.filteri (fun i _ -> i < max_results)
    |> List.map (fun (_, _, e) -> e)
  end
