module Rng = Prelude.Rng

type t = {
  key_bits : int;
  ring_size : int;  (* 2^key_bits *)
  key_of_id : (int, int) Hashtbl.t;  (* member id -> ring key; member order *)
  id_of_key : (int, int) Hashtbl.t;  (* ring key -> member id *)
  mutable sorted : (int * int) array;  (* (key, id), sorted by key *)
  mutable dirty : bool;
}

let create ~key_bits =
  {
    key_bits;
    ring_size = 1 lsl key_bits;
    key_of_id = Hashtbl.create 64;
    id_of_key = Hashtbl.create 64;
    sorted = [||];
    dirty = false;
  }

let key_bits t = t.key_bits
let ring_size t = t.ring_size
let size t = Hashtbl.length t.key_of_id
let mem t id = Hashtbl.mem t.key_of_id id
let key_taken t key = Hashtbl.mem t.id_of_key key

let key_of t id =
  match Hashtbl.find_opt t.key_of_id id with
  | Some key -> key
  | None -> invalid_arg "Keyring.key_of: not a member"

let rec fresh_key t rng =
  let k = Rng.int rng t.ring_size in
  if key_taken t k then fresh_key t rng else k

let add t id ~key =
  Hashtbl.replace t.key_of_id id key;
  Hashtbl.replace t.id_of_key key id;
  t.dirty <- true

let remove t id =
  match Hashtbl.find_opt t.key_of_id id with
  | Some key ->
    Hashtbl.remove t.key_of_id id;
    Hashtbl.remove t.id_of_key key;
    t.dirty <- true
  | None -> ()

let iter f t = Hashtbl.iter f t.key_of_id

let node_ids t =
  let arr = Array.make (size t) 0 in
  let i = ref 0 in
  iter
    (fun id _ ->
      arr.(!i) <- id;
      incr i)
    t;
  arr

let index t =
  if t.dirty then begin
    let arr = Array.make (size t) (0, 0) in
    let i = ref 0 in
    iter
      (fun id key ->
        arr.(!i) <- (key, id);
        incr i)
      t;
    Array.sort compare arr;
    t.sorted <- arr;
    t.dirty <- false
  end;
  t.sorted

let norm t v = ((v mod t.ring_size) + t.ring_size) mod t.ring_size

(* Index of the first entry with key >= [key]; [Array.length arr] if none. *)
let first_geq arr key =
  let a = ref 0 and b = ref (Array.length arr) in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if fst arr.(mid) >= key then b := mid else a := mid + 1
  done;
  !a

let successor_node t key =
  let arr = index t in
  let n = Array.length arr in
  if n = 0 then failwith "Keyring.successor_node: empty ring";
  let i = first_geq arr (norm t key) in
  snd arr.(if i = n then 0 else i)

let charge_node t pos =
  let arr = index t in
  let n = Array.length arr in
  if n = 0 then failwith "Keyring.charge_node: empty ring";
  let i = first_geq arr (norm t pos) in
  snd arr.((i - 1 + n) mod n)

let arc_members t ~lo ~span =
  let arr = index t in
  if span <= 0 || Array.length arr = 0 then [||]
  else begin
    let lo = norm t lo in
    (* ids with key in [lo, hi), lo <= hi, no wrap *)
    let collect lo hi =
      let start = first_geq arr lo in
      Array.init (first_geq arr hi - start) (fun i -> snd arr.(start + i))
    in
    if lo + span <= t.ring_size then collect lo (lo + span)
    else Array.append (collect lo t.ring_size) (collect 0 (lo + span - t.ring_size))
  end

let between_oc t a b x =
  let a = norm t a and b = norm t b and x = norm t x in
  if a = b then true else if a < b then a < x && x <= b else x > a || x <= b

let clockwise t from target = norm t (target - from)
