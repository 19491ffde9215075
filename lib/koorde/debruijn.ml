module Keyring = Chord.Keyring

type node_state = {
  mutable cover : int array;
      (* de Bruijn entry fingers: charge of the image-arc start first,
         then the members whose keys fall inside the image arc *)
  mutable preferred : int option;  (* policy-chosen entry among [cover] *)
}

type t = {
  keys : Keyring.t;
  degree : int;
  digit_bits : int;  (* log2 degree *)
  digits : int;  (* key_bits / digit_bits *)
  states : (int, node_state) Hashtbl.t;
  obs : Engine.Route_obs.t;
}

type selector = node:int -> arc:int * int -> candidates:int array -> int option

let is_pow2 v = v > 0 && v land (v - 1) = 0

let log2i v =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let create ?metrics ?(labels = []) ?trace ?(key_bits = 24) ?(degree = 2) () =
  if key_bits < 3 || key_bits > 48 then invalid_arg "Koorde.create: key_bits out of [3,48]";
  if degree < 2 || degree > 64 || not (is_pow2 degree) then
    invalid_arg "Koorde.create: degree must be a power of two in [2,64]";
  let digit_bits = log2i degree in
  if key_bits mod digit_bits <> 0 then
    invalid_arg "Koorde.create: key_bits must be a multiple of log2 degree";
  {
    keys = Keyring.create ~key_bits;
    degree;
    digit_bits;
    digits = key_bits / digit_bits;
    states = Hashtbl.create 64;
    obs = Engine.Route_obs.create metrics ~labels ~trace ~overlay:"koorde";
  }

let keyring t = t.keys
let key_bits t = Keyring.key_bits t.keys
let degree t = t.degree
let size t = Keyring.size t.keys
let mem t id = Keyring.mem t.keys id
let node_ids t = Keyring.node_ids t.keys
let key_of t id = Keyring.key_of t.keys id
let successor_node t key = Keyring.successor_node t.keys key
let charge_node t pos = Keyring.charge_node t.keys pos
let arc_members t ~lo ~span = Keyring.arc_members t.keys ~lo ~span

let state t id =
  match Hashtbl.find_opt t.states id with
  | Some st -> st
  | None -> invalid_arg "Koorde: not a member"

let add_node_at t id ~key =
  if mem t id then invalid_arg "Koorde.add_node_at: already a member";
  if key < 0 || key >= Keyring.ring_size t.keys then
    invalid_arg "Koorde.add_node_at: key out of range";
  if Keyring.key_taken t.keys key then invalid_arg "Koorde.add_node_at: key taken";
  Keyring.add t.keys id ~key;
  Hashtbl.replace t.states id { cover = [||]; preferred = None }

let add_node t ~rng id =
  if mem t id then invalid_arg "Koorde.add_node: already a member";
  add_node_at t id ~key:(Keyring.fresh_key t.keys rng)

let remove_node t id =
  if not (mem t id) then invalid_arg "Koorde: not a member";
  Keyring.remove t.keys id;
  Hashtbl.remove t.states id;
  Hashtbl.iter
    (fun _ other ->
      if Array.exists (fun c -> c = id) other.cover then
        other.cover <- Array.of_seq (Seq.filter (fun c -> c <> id) (Array.to_seq other.cover));
      match other.preferred with Some p when p = id -> other.preferred <- None | _ -> ())
    t.states

(* Length of the domain (key, successor key] of the member at [key]; the
   whole ring for a singleton. *)
let domain_span t key =
  let ring = Keyring.ring_size t.keys in
  if size t = 1 then ring
  else begin
    let succ = successor_node t (key + 1) in
    let l = Keyring.clockwise t.keys key (key_of t succ) in
    if l = 0 then ring else l
  end

let image_arc t id =
  let key = key_of t id and ring = Keyring.ring_size t.keys in
  let lo = t.degree * ((key + 1) mod ring) mod ring in
  let span = min ring (t.degree * domain_span t key) in
  (lo, span)

let build_fingers t ~selector =
  Keyring.iter
    (fun id _ ->
      let n = state t id in
      if size t = 1 then begin
        n.cover <- [||];
        n.preferred <- None
      end
      else begin
        let lo, span = image_arc t id in
        let anchor = charge_node t lo in
        let members = arc_members t ~lo ~span in
        let cover =
          if Array.exists (fun m -> m = anchor) members then begin
            (* keep the anchor first: routing treats cover.(0) as the
               entry that may legitimately sit before the arc start *)
            let rest = Seq.filter (fun m -> m <> anchor) (Array.to_seq members) in
            Array.append [| anchor |] (Array.of_seq rest)
          end
          else Array.append [| anchor |] members
        in
        n.cover <- cover;
        let candidates =
          Array.of_seq (Seq.filter (fun c -> c <> id) (Array.to_seq cover))
        in
        n.preferred <-
          (if Array.length candidates > 0 then selector ~node:id ~arc:(lo, span) ~candidates
           else None)
      end)
    t.keys

let cover t id = Array.copy (state t id).cover
let preferred t id = (state t id).preferred

(* The node to contact for imaginary position [pos] from member [id]: its
   policy-chosen preferred entry when that does not overshoot [pos] along
   the image arc, the exact charge node otherwise. *)
let entry_for t id pos =
  let exact = charge_node t pos in
  if exact = id then exact
  else begin
    let n = state t id in
    match n.preferred with
    | Some p when p <> id && mem t p ->
      if p = exact then p
      else if Array.length n.cover > 0 && n.cover.(0) = p then p
      else begin
        let ring = Keyring.ring_size t.keys in
        let lo = t.degree * ((key_of t id + 1) mod ring) mod ring in
        if Keyring.clockwise t.keys lo (key_of t p) < Keyring.clockwise t.keys lo pos then p
        else exact
      end
    | _ -> exact
  end

let route t ~src ~key =
  if not (mem t src) then invalid_arg "Koorde.route: source not a member";
  let ring = Keyring.ring_size t.keys in
  let key = ((key mod ring) + ring) mod ring in
  let owner = successor_node t key in
  let g = t.digit_bits in
  (* Best imaginary start: the fewest digits j such that some position in
     the source's domain agrees with the key's top (digits - j) digits,
     i.e. i0 = key >> (j*g)  (mod degree^(digits-j)) for an i0 we own. *)
  let start_state m =
    let mkey = key_of t m in
    let l = domain_span t mkey in
    let a = (mkey + 1) mod ring in
    let rec find j =
      let s = 1 lsl ((t.digits - j) * g) in
      let r = key lsr (j * g) in
      let offset = ((r - a) mod s + s) mod s in
      if offset < l then ((a + offset) mod ring, j) else find (j + 1)
    in
    find 0
  in
  let rec go m i rem acc guard =
    if m = owner then Some (List.rev (m :: acc))
    else if guard <= 0 then None
    else begin
      let mkey = key_of t m in
      let succ = successor_node t (mkey + 1) in
      let succ_key = key_of t succ in
      if Keyring.between_oc t.keys mkey succ_key key then go succ i rem (m :: acc) (guard - 1)
      else if rem > 0 && Keyring.between_oc t.keys mkey succ_key i then begin
        (* consume the next digit of the key, top-first *)
        let digit = (key lsr ((rem - 1) * g)) land (t.degree - 1) in
        let i' = ((i * t.degree) land (ring - 1)) lor digit in
        let next = entry_for t m i' in
        if next = m then go m i' (rem - 1) acc guard
        else go next i' (rem - 1) (m :: acc) (guard - 1)
      end
      else go succ i rem (m :: acc) (guard - 1)
    end
  in
  Engine.Route_obs.observe t.obs
    (if size t = 1 then Some [ src ]
     else begin
       let i0, j = start_state src in
       go src i0 j [] ((4 * size t) + (2 * t.digits))
     end)

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  Array.fold_left
    (fun acc id ->
      let* () = acc in
      let n = state t id in
      let* () =
        if successor_node t (key_of t id) = id then Ok ()
        else err "node %d is not the successor of its own key" id
      in
      let* () =
        match n.preferred with
        | None -> Ok ()
        | Some p ->
          if not (mem t p) then err "node %d prefers dead node %d" id p
          else if not (Array.exists (fun c -> c = p) n.cover) then
            err "node %d prefers %d outside its cover" id p
          else Ok ()
      in
      let lo, span = image_arc t id in
      let rec check_cover i =
        if i >= Array.length n.cover then Ok ()
        else begin
          let c = n.cover.(i) in
          if not (mem t c) then err "node %d cover entry %d is dead" id c
          else if i > 0 && Keyring.clockwise t.keys lo (key_of t c) >= span then
            err "node %d cover entry %d outside its image arc" id c
          else check_cover (i + 1)
        end
      in
      check_cover 0)
    (Ok ()) (node_ids t)
