module Can_overlay = Can.Overlay
module Zone = Geometry.Zone

type t = {
  can : Can_overlay.t;
  span_bits : int;
  tables : (int, int option array array) Hashtbl.t;  (* node -> row -> digit -> entry *)
  cursor : Can_overlay.Cursor.t;
  target : int array;
      (* The route cursor: visit stamps, hop buffer and the target's
         [max_depth] split bits, reused by every [route] of this
         expressway (routing is coordinator-only, see the .mli). *)
  obs : Engine.Route_obs.t;
}

type selector = node:int -> region:int array -> candidates:int array -> int option

let create ?metrics ?(labels = []) ?trace ?(span_bits = 2) can =
  if span_bits < 1 || span_bits > 8 then invalid_arg "Ecan.create: span_bits out of [1,8]";
  let obs = Engine.Route_obs.create metrics ~labels ~trace ~overlay:"ecan" in
  {
    can;
    span_bits;
    tables = Hashtbl.create 256;
    cursor = Can_overlay.Cursor.create ();
    target = Array.make Can_overlay.max_depth 0;
    obs;
  }

let can t = t.can
let span_bits t = t.span_bits
let fan t = 1 lsl t.span_bits

let rows t id = Array.length (Can_overlay.node t.can id).Can_overlay.path / t.span_bits

let digit_of_bits t bits row =
  let acc = ref 0 in
  for i = row * t.span_bits to ((row + 1) * t.span_bits) - 1 do
    acc := (!acc lsl 1) lor bits.(i)
  done;
  !acc

let own_digit t id ~row =
  if row < 0 || row >= rows t id then invalid_arg "Ecan.own_digit: row out of range";
  digit_of_bits t (Can_overlay.node t.can id).Can_overlay.path row

let region_prefix t id ~row ~digit =
  if row < 0 || row >= rows t id then invalid_arg "Ecan.region_prefix: row out of range";
  if digit < 0 || digit >= fan t then invalid_arg "Ecan.region_prefix: digit out of range";
  let path = (Can_overlay.node t.can id).Can_overlay.path in
  let prefix = Array.make ((row + 1) * t.span_bits) 0 in
  Array.blit path 0 prefix 0 (row * t.span_bits);
  for i = 0 to t.span_bits - 1 do
    prefix.((row * t.span_bits) + i) <- (digit lsr (t.span_bits - 1 - i)) land 1
  done;
  prefix

let iter_slots t id f =
  let path = (Can_overlay.node t.can id).Can_overlay.path in
  for row = 0 to (Array.length path / t.span_bits) - 1 do
    let own = digit_of_bits t path row in
    for digit = 0 to fan t - 1 do
      if digit <> own then f ~row ~digit
    done
  done

let in_region t ~region target =
  Can_overlay.mem t.can target
  &&
  let path = (Can_overlay.node t.can target).Can_overlay.path in
  let len = Array.length region in
  let rec agrees i = i >= len || (path.(i) = region.(i) && agrees (i + 1)) in
  Array.length path >= len && agrees 0

let table t id =
  match Hashtbl.find_opt t.tables id with
  | Some tbl -> tbl
  | None ->
    let tbl = Array.init (rows t id) (fun _ -> Array.make (fan t) None) in
    Hashtbl.replace t.tables id tbl;
    tbl

let entry t id ~row ~digit =
  match Hashtbl.find_opt t.tables id with
  | None -> None
  | Some tbl -> if row < Array.length tbl then tbl.(row).(digit) else None

let set_entry t id ~row ~digit value =
  let tbl = table t id in
  if row < 0 || row >= Array.length tbl then invalid_arg "Ecan.set_entry: row out of range";
  if digit < 0 || digit >= fan t then invalid_arg "Ecan.set_entry: digit out of range";
  tbl.(row).(digit) <- value

let entries t id =
  match Hashtbl.find_opt t.tables id with
  | None -> []
  | Some tbl ->
    (* Zone merges can shorten a node's path after its table was built;
       rows beyond the current path are dead state and are not reported. *)
    let live_rows = min (Array.length tbl) (rows t id) in
    let acc = ref [] in
    for row = 0 to live_rows - 1 do
      Array.iteri
        (fun digit -> function Some v -> acc := (row, digit, v) :: !acc | None -> ())
        tbl.(row)
    done;
    !acc

let build_table_for t ~selector id =
  Hashtbl.remove t.tables id;
  let tbl = table t id in
  iter_slots t id (fun ~row ~digit ->
      let region = region_prefix t id ~row ~digit in
      let candidates = Can_overlay.members_with_prefix t.can region in
      if Array.length candidates > 0 then
        tbl.(row).(digit) <- selector ~node:id ~region ~candidates)

let build_tables t ~selector =
  Array.iter (build_table_for t ~selector) (Can_overlay.node_ids t.can)

let table_size t id =
  match Hashtbl.find_opt t.tables id with
  | None -> 0
  | Some tbl ->
    Array.fold_left
      (fun acc slots ->
        Array.fold_left (fun acc -> function Some _ -> acc + 1 | None -> acc) acc slots)
      0 tbl

(* The expressway hop from [u]: at the first row where [u]'s digit
   differs from the target's, the table entry into the target's sibling
   region, if it is a live, unvisited node other than [u]; -1 otherwise.
   Entries can dangle briefly after a departure (repair is asynchronous),
   so dead targets count as missing. *)
let express_step t (u : Can_overlay.node) =
  let path = u.Can_overlay.path in
  let nrows = Array.length path / t.span_bits in
  let row = ref 0 in
  while !row < nrows && digit_of_bits t path !row = digit_of_bits t t.target !row do
    incr row
  done;
  if !row >= nrows then -1
  else
    match Hashtbl.find t.tables u.Can_overlay.id with
    | exception Not_found -> -1
    | tbl -> (
      if !row >= Array.length tbl then -1
      else
        match tbl.(!row).(digit_of_bits t t.target !row) with
        | Some v
          when (not (Can_overlay.Cursor.visited t.cursor v))
               && v <> u.Can_overlay.id
               && Can_overlay.mem t.can v ->
          v
        | _ -> -1)

(* Express hop when one helps, else a greedy CAN hop that may revisit
   when an expressway hop has landed amid visited zones; [guard] bounds
   the walk. *)
let rec walk t point (u : Can_overlay.node) guard =
  Can_overlay.Cursor.push t.cursor u.Can_overlay.id;
  Zone.contains u.Can_overlay.zone point
  || guard > 0
     &&
     let next =
       match express_step t u with
       | -1 -> Can_overlay.greedy_step t.can t.cursor ~revisit:true u point
       | v -> v
     in
     next >= 0 && walk t point (Can_overlay.node t.can next) (guard - 1)

let route t ~src point =
  if Array.length point <> Can_overlay.dims t.can then
    invalid_arg "Ecan.route: dimension mismatch";
  Can_overlay.path_of_point_into t.can point t.target;
  Can_overlay.Cursor.start t.cursor;
  let reached = walk t point (Can_overlay.node t.can src) (4 * Can_overlay.size t.can) in
  Engine.Route_obs.observe t.obs
    (if reached then Some (Can_overlay.Cursor.hops t.cursor) else None)
