type t = {
  keys : Keyring.t;
  fingers : (int, int option array) Hashtbl.t;  (* node -> level -> finger *)
  obs : Engine.Route_obs.t;
}

type selector = node:int -> arc:int * int -> candidates:int array -> int option

let create ?metrics ?(labels = []) ?trace ?(key_bits = 30) () =
  if key_bits < 4 || key_bits > 50 then invalid_arg "Chord.create: key_bits out of [4,50]";
  let obs = Engine.Route_obs.create metrics ~labels ~trace ~overlay:"chord" in
  { keys = Keyring.create ~key_bits; fingers = Hashtbl.create 64; obs }

let keyring t = t.keys
let key_bits t = Keyring.key_bits t.keys
let size t = Keyring.size t.keys
let mem t id = Keyring.mem t.keys id
let node_ids t = Keyring.node_ids t.keys
let key_of t id = Keyring.key_of t.keys id
let successor_node t key = Keyring.successor_node t.keys key
let arc_members t ~lo ~span = Keyring.arc_members t.keys ~lo ~span

let fingers_of t id =
  match Hashtbl.find_opt t.fingers id with
  | Some f -> f
  | None -> invalid_arg "Chord: not a member"

let add_node t ~rng id =
  if mem t id then invalid_arg "Chord.add_node: already a member";
  Keyring.add t.keys id ~key:(Keyring.fresh_key t.keys rng);
  Hashtbl.replace t.fingers id (Array.make (key_bits t) None)

let remove_node t id =
  if not (mem t id) then invalid_arg "Chord: not a member";
  Keyring.remove t.keys id;
  Hashtbl.remove t.fingers id;
  Hashtbl.iter
    (fun _ fingers ->
      Array.iteri (fun i -> function Some f when f = id -> fingers.(i) <- None | _ -> ()) fingers)
    t.fingers

let build_fingers t ~selector =
  let bits = key_bits t and ring = Keyring.ring_size t.keys in
  Keyring.iter
    (fun id key ->
      let fingers = Array.make bits None in
      Hashtbl.replace t.fingers id fingers;
      for i = 0 to bits - 1 do
        let span = 1 lsl i in
        let lo = (key + span) mod ring in
        let candidates = arc_members t ~lo ~span in
        let candidates = Array.of_seq (Seq.filter (fun c -> c <> id) (Array.to_seq candidates)) in
        if Array.length candidates > 0 then
          fingers.(i) <- selector ~node:id ~arc:(lo, span) ~candidates
      done)
    t.keys

let fingers t id =
  let acc = ref [] in
  Array.iteri (fun i -> function Some f -> acc := (i, f) :: !acc | None -> ()) (fingers_of t id);
  List.rev !acc

let route t ~src ~key =
  if not (mem t src) then invalid_arg "Chord.route: source not a member";
  let ring = t.keys in
  let owner = Keyring.successor_node ring key in
  let rec go u acc guard =
    if u = owner then Some (List.rev (u :: acc))
    else if guard <= 0 then None
    else begin
      let ukey = Keyring.key_of ring u in
      let succ = Keyring.successor_node ring (ukey + 1) in
      if Keyring.between_oc ring ukey (Keyring.key_of ring succ) key then
        go succ (u :: acc) (guard - 1)
      else begin
        (* closest preceding finger: minimises remaining clockwise distance
           while staying strictly between u and the key *)
        let best = ref None in
        let consider v =
          let vkey = Keyring.key_of ring v in
          if v <> u && Keyring.between_oc ring ukey (key - 1) vkey then begin
            let d = Keyring.clockwise ring vkey key in
            match !best with
            | Some (bd, _) when bd <= d -> ()
            | _ -> best := Some (d, v)
          end
        in
        Array.iter (function Some v -> consider v | None -> ()) (fingers_of t u);
        consider succ;
        match !best with
        | Some (_, v) -> go v (u :: acc) (guard - 1)
        | None -> go succ (u :: acc) (guard - 1)
      end
    end
  in
  Engine.Route_obs.observe t.obs (go src [] (4 * size t))

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let ring = t.keys in
  Array.fold_left
    (fun acc id ->
      let* () = acc in
      let key = key_of t id in
      let* () =
        if successor_node t key = id then Ok ()
        else err "node %d is not the successor of its own key" id
      in
      let fingers = fingers_of t id in
      let rec check_fingers i =
        if i >= Array.length fingers then Ok ()
        else begin
          match fingers.(i) with
          | None -> check_fingers (i + 1)
          | Some f ->
            if not (mem t f) then err "node %d finger %d points at dead node %d" id i f
            else begin
              let span = 1 lsl i in
              let lo = (key + span) mod Keyring.ring_size ring in
              if Keyring.clockwise ring lo (key_of t f) < span then check_fingers (i + 1)
              else err "node %d finger %d outside its arc" id i
            end
        end
      in
      check_fingers 0)
    (Ok ()) (node_ids t)
