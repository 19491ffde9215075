module Rng = Prelude.Rng

type node_state = {
  id : int;
  pid : int;
  mutable table : int option array array;  (* row -> digit -> node id *)
  mutable leaves : int array;
}

type t = {
  digit_bits : int;
  num_digits : int;
  id_bits : int;
  id_space : int;
  nodes : (int, node_state) Hashtbl.t;
  by_pid : (int, int) Hashtbl.t;
  prefix_members : (int, int list ref) Hashtbl.t;  (* (len, prefix) key -> ids *)
  mutable sorted : (int * int) array;  (* (pid, id) *)
  mutable dirty : bool;
  obs : Engine.Route_obs.t;
}

type selector = node:int -> prefix:int array -> candidates:int array -> int option

let create ?metrics ?(labels = []) ?trace ?(digit_bits = 2) ?(num_digits = 15) () =
  if digit_bits < 1 || digit_bits > 4 then invalid_arg "Pastry.create: digit_bits out of [1,4]";
  if num_digits < 2 then invalid_arg "Pastry.create: num_digits must be >= 2";
  if digit_bits * num_digits > 50 then invalid_arg "Pastry.create: id space too large";
  let id_bits = digit_bits * num_digits in
  {
    digit_bits;
    num_digits;
    id_bits;
    id_space = 1 lsl id_bits;
    nodes = Hashtbl.create 64;
    by_pid = Hashtbl.create 64;
    prefix_members = Hashtbl.create 64;
    sorted = [||];
    dirty = false;
    obs = Engine.Route_obs.create metrics ~labels ~trace ~overlay:"pastry";
  }

let digit_bits t = t.digit_bits
let num_digits t = t.num_digits
let size t = Hashtbl.length t.nodes
let mem t id = Hashtbl.mem t.nodes id
let fan t = 1 lsl t.digit_bits

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> invalid_arg "Pastry: not a member"

let pastry_id t id = (node t id).pid

let node_ids t =
  let arr = Array.make (size t) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun id _ ->
      arr.(!i) <- id;
      incr i)
    t.nodes;
  arr

let digit t pid r = (pid lsr ((t.num_digits - 1 - r) * t.digit_bits)) land (fan t - 1)

let shared_prefix_len t a b =
  let rec go r = if r >= t.num_digits then r else if digit t a r = digit t b r then go (r + 1) else r in
  go 0

let prefix_key len value = (len lsl 52) lor value

let prefix_value t pid len = if len = 0 then 0 else pid lsr ((t.num_digits - len) * t.digit_bits)

let index_add t n =
  for len = 0 to t.num_digits do
    let key = prefix_key len (prefix_value t n.pid len) in
    match Hashtbl.find_opt t.prefix_members key with
    | Some l -> l := n.id :: !l
    | None -> Hashtbl.replace t.prefix_members key (ref [ n.id ])
  done

let index_remove t n =
  for len = 0 to t.num_digits do
    let key = prefix_key len (prefix_value t n.pid len) in
    match Hashtbl.find_opt t.prefix_members key with
    | Some l ->
      l := List.filter (fun id -> id <> n.id) !l;
      if !l = [] then Hashtbl.remove t.prefix_members key
    | None -> ()
  done

let add_node t ~rng id =
  if mem t id then invalid_arg "Pastry.add_node: already a member";
  let rec fresh () =
    let pid = Rng.int rng t.id_space in
    if Hashtbl.mem t.by_pid pid then fresh () else pid
  in
  let pid = fresh () in
  let n = { id; pid; table = [||]; leaves = [||] } in
  Hashtbl.replace t.nodes id n;
  Hashtbl.replace t.by_pid pid id;
  index_add t n;
  t.dirty <- true

let remove_node t id =
  let n = node t id in
  Hashtbl.remove t.nodes id;
  Hashtbl.remove t.by_pid n.pid;
  index_remove t n;
  t.dirty <- true;
  Hashtbl.iter
    (fun _ other ->
      Array.iter
        (fun row ->
          Array.iteri (fun i -> function Some v when v = id -> row.(i) <- None | _ -> ()) row)
        other.table;
      other.leaves <- Array.of_seq (Seq.filter (fun l -> l <> id) (Array.to_seq other.leaves)))
    t.nodes

let index t =
  if t.dirty then begin
    let arr = Array.make (size t) (0, 0) in
    let i = ref 0 in
    Hashtbl.iter
      (fun id n ->
        arr.(!i) <- (n.pid, id);
        incr i)
      t.nodes;
    Array.sort compare arr;
    t.sorted <- arr;
    t.dirty <- false
  end;
  t.sorted

let circular_dist t a b =
  let d = abs (a - b) in
  min d (t.id_space - d)

(* The numerically closest node is the key's ring successor or its
   predecessor in the sorted index; on a tie the smaller Pastry id wins. *)
let owner_of t key =
  let arr = index t in
  let n = Array.length arr in
  if n = 0 then failwith "Pastry.owner_of: empty mesh";
  let key = ((key mod t.id_space) + t.id_space) mod t.id_space in
  (* First index whose id is >= key; n wraps to the lowest id. *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if fst arr.(mid) < key then lo := mid + 1 else hi := mid
  done;
  let s_pid, s_id = arr.(!lo mod n) and p_pid, p_id = arr.((!lo + n - 1) mod n) in
  let ds = circular_dist t s_pid key and dp = circular_dist t p_pid key in
  if ds < dp || (ds = dp && s_pid < p_pid) then s_id else p_id

let members_with_prefix t digits =
  let len = Array.length digits in
  if len > t.num_digits then invalid_arg "Pastry.members_with_prefix: prefix too long";
  let value = Array.fold_left (fun acc d -> (acc lsl t.digit_bits) lor d) 0 digits in
  match Hashtbl.find_opt t.prefix_members (prefix_key len value) with
  | Some l -> Array.of_list !l
  | None -> [||]

(* Leaves on each side of a node in id order: 8 leaves in all. *)
let leaf_radius = 4

let rebuild_leaves t =
  let arr = index t in
  let n = Array.length arr in
  Array.iteri
    (fun i (_, id) ->
      let node = node t id in
      let radius = min leaf_radius ((n - 1) / 2) in
      let acc = ref [] in
      for k = 1 to radius do
        acc := snd arr.((i + k) mod n) :: snd arr.(((i - k) mod n + n) mod n) :: !acc
      done;
      node.leaves <- Array.of_list (List.sort_uniq compare (List.filter (fun l -> l <> id) !acc)))
    arr

let digits_of_prefix t pid len = Array.init len (fun r -> digit t pid r)

let build_tables t ~selector =
  rebuild_leaves t;
  Hashtbl.iter
    (fun id n ->
      n.table <- Array.init t.num_digits (fun _ -> Array.make (fan t) None);
      (try
         for row = 0 to t.num_digits - 1 do
           let own = digit t n.pid row in
           let base = digits_of_prefix t n.pid row in
           let row_has_candidates = ref false in
           for c = 0 to fan t - 1 do
             if c <> own then begin
               let prefix = Array.append base [| c |] in
               let candidates = members_with_prefix t prefix in
               if Array.length candidates > 0 then begin
                 row_has_candidates := true;
                 n.table.(row).(c) <- selector ~node:id ~prefix ~candidates
               end
             end
           done;
           (* Beyond the row where this node is alone in its prefix there
              are no candidates anywhere; stop early. *)
           if (not !row_has_candidates) && Array.length (members_with_prefix t base) <= 1 then
             raise Exit
         done
       with Exit -> ()))
    t.nodes

let table_entries t id =
  let n = node t id in
  let acc = ref [] in
  Array.iteri
    (fun row slots ->
      Array.iteri (fun c -> function Some v -> acc := (row, c, v) :: !acc | None -> ()) slots)
    n.table;
  List.rev !acc

let leaves t id = Array.copy (node t id).leaves

let route t ~src ~key =
  if not (mem t src) then invalid_arg "Pastry.route: source not a member";
  let key = ((key mod t.id_space) + t.id_space) mod t.id_space in
  let owner = owner_of t key in
  let visited = Hashtbl.create 16 in
  let rec go u acc guard =
    if u.id = owner then Some (List.rev (u.id :: acc))
    else if guard <= 0 then None
    else begin
      Hashtbl.replace visited u.id ();
      let r = shared_prefix_len t u.pid key in
      let next =
        if Array.exists (fun l -> l = owner) u.leaves then
          (* The numerically closest node is already in the leaf set.  It
             may share a *shorter* prefix with the key than we do (the key
             sits just across a digit boundary), so this check must come
             before prefix routing. *)
          Some owner
        else begin
          (* Routing-table entry extending the shared prefix. *)
          let c = digit t key r in
          match if r < t.num_digits then u.table.(r).(c) else None with
          | Some v when not (Hashtbl.mem visited v) -> Some v
          | _ ->
            (* Rare case: any known node strictly closer numerically. *)
            let best = ref None in
            let du = circular_dist t u.pid key in
            let consider v =
              if (not (Hashtbl.mem visited v)) && mem t v then begin
                let d = circular_dist t (pastry_id t v) key in
                if d < du then begin
                  match !best with
                  | Some (bd, _) when bd <= d -> ()
                  | _ -> best := Some (d, v)
                end
              end
            in
            Array.iter consider u.leaves;
            Array.iter
              (fun row -> Array.iter (function Some v -> consider v | None -> ()) row)
              u.table;
            (match !best with Some (_, v) -> Some v | None -> None)
        end
      in
      match next with
      | Some v -> go (node t v) (u.id :: acc) (guard - 1)
      | None -> None
    end
  in
  Engine.Route_obs.observe t.obs (go (node t src) [] (4 * size t))

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let ids = node_ids t in
  Array.fold_left
    (fun acc id ->
      let* () = acc in
      let n = node t id in
      let* () =
        List.fold_left
          (fun acc (row, c, target) ->
            let* () = acc in
            if not (mem t target) then err "node %d row %d points at dead node" id row
            else begin
              let tp = pastry_id t target in
              if shared_prefix_len t tp n.pid >= row && digit t tp row = c then Ok ()
              else err "node %d row %d digit %d entry does not match its region" id row c
            end)
          (Ok ()) (table_entries t id)
      in
      Array.fold_left
        (fun acc l ->
          let* () = acc in
          if mem t l then Ok () else err "node %d has dead leaf" id)
        (Ok ()) n.leaves)
    (Ok ()) ids
