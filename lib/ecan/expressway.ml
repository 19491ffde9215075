module Can_overlay = Can.Overlay
module Zone = Geometry.Zone

(* A node's record: its routing table, flat — slot [row * fan + digit]
   keeps three ints, at [3 * slot] the entry (-1 for none) and after it
   the reverse-entry index's links — and [head], the newest slot that
   points at the node.  The index threads every filled slot onto its
   target's referrer list; the links and [head] are slot codes (see
   [slot_code]), -1 at either end.  A node that so far is only a target
   has a record without a table ([nrows] = -1). *)
type record = {
  holder : int;
  mutable nrows : int;
  mutable slots : int array;
  mutable head : int;
}

type t = {
  can : Can_overlay.t;
  span_bits : int;
  mutable records : record array;
      (* id -> its record, [no_record] for an id without one; grown like
         [Can.Overlay]'s id array.  [set_entry] is the only writer of
         entries, so the referrer lists always hold exactly the filled
         slots. *)
  cursor : Can_overlay.Cursor.t;
  target : int array;
      (* The route cursor: visit stamps, hop buffer and the target's
         split bits, reused by every [route] of this expressway (routing
         is coordinator-only, see the .mli).  A route fills the bits down
         to the CAN's depth mark only: [express_step] reads a bit only
         above a member's path length. *)
  obs : Engine.Route_obs.t;
}

(* Read-only stand-in for a node without a record. *)
let no_record = { holder = -1; nrows = -1; slots = [||]; head = -1 }

type selector = node:int -> region:int array -> candidates:int array -> int option

let create ?metrics ?(labels = []) ?trace ?(span_bits = 2) can =
  if span_bits < 1 || span_bits > 8 then invalid_arg "Ecan.create: span_bits out of [1,8]";
  let obs = Engine.Route_obs.create metrics ~labels ~trace ~overlay:"ecan" in
  {
    can;
    span_bits;
    records = [||];
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

(* A slot's code: its holder and its slot number [row * fan + digit]
   (below 2^16: at most [max_depth] rows of at most 256 digits). *)
let slot_code holder slot = (holder lsl 16) lor slot
let code_holder code = code lsr 16
let code_slot code = code land 0xffff

let record_of t id =
  if id >= 0 && id < Array.length t.records then Array.unsafe_get t.records id else no_record

(* [id]'s record, made without a table if it has none. *)
let record t id =
  let r = record_of t id in
  if r != no_record then r
  else begin
    let r = { holder = id; nrows = -1; slots = [||]; head = -1 } in
    if id >= Array.length t.records then begin
      let records = Array.make (max (id + 1) (2 * Array.length t.records)) no_record in
      Array.blit t.records 0 records 0 (Array.length t.records);
      t.records <- records
    end;
    t.records.(id) <- r;
    r
  end

let entry_at slot = 3 * slot
let next_at slot = (3 * slot) + 1
let prev_at slot = (3 * slot) + 2

let link t r slot target =
  let tr = record t target in
  let code = slot_code r.holder slot and head = tr.head in
  r.slots.(next_at slot) <- head;
  r.slots.(prev_at slot) <- -1;
  if head >= 0 then (record_of t (code_holder head)).slots.(prev_at (code_slot head)) <- code;
  tr.head <- code

let unlink t r slot target =
  let p = r.slots.(prev_at slot) and n = r.slots.(next_at slot) in
  if p >= 0 then (record_of t (code_holder p)).slots.(next_at (code_slot p)) <- n
  else (record_of t target).head <- n;
  if n >= 0 then (record_of t (code_holder n)).slots.(prev_at (code_slot n)) <- p

(* Unlink every filled slot of [id]'s table and forget the table; the
   record stays, with the referrer list it heads. *)
let drop_table t id =
  let r = record_of t id in
  if r.nrows >= 0 then begin
    for slot = 0 to (Array.length r.slots / 3) - 1 do
      let v = r.slots.(entry_at slot) in
      if v >= 0 then unlink t r slot v
    done;
    r.nrows <- -1;
    r.slots <- [||]
  end

(* [id]'s record with a table, sized for its current rows if new. *)
let table t id =
  let r = record t id in
  if r.nrows < 0 then begin
    let nrows = rows t id in
    r.slots <- Array.make (3 * nrows * fan t) (-1);
    r.nrows <- nrows
  end;
  r

(* The entry of a slot, -1 for none or for a row the table lacks. *)
let raw_entry t r ~row ~digit =
  if row < r.nrows then r.slots.(entry_at ((row lsl t.span_bits) lor digit)) else -1

let entry t id ~row ~digit =
  if digit < 0 || digit >= fan t then invalid_arg "Ecan.entry: digit out of range";
  match raw_entry t (record_of t id) ~row ~digit with -1 -> None | v -> Some v

let set_entry t id ~row ~digit value =
  let r = table t id in
  if row < 0 || row >= r.nrows then invalid_arg "Ecan.set_entry: row out of range";
  if digit < 0 || digit >= fan t then invalid_arg "Ecan.set_entry: digit out of range";
  let v =
    match value with
    | Some v when v < 0 -> invalid_arg "Ecan.set_entry: negative target"
    | Some v -> v
    | None -> -1
  in
  let slot = (row lsl t.span_bits) lor digit in
  let old = r.slots.(entry_at slot) in
  if old >= 0 then unlink t r slot old;
  if v >= 0 then link t r slot v;
  r.slots.(entry_at slot) <- v

let referrers t target =
  let rec walk code acc =
    if code < 0 then acc
    else
      let holder = code_holder code and slot = code_slot code in
      let row = slot lsr t.span_bits in
      let acc =
        if Can_overlay.mem t.can holder && row < rows t holder then
          (holder, row, slot land (fan t - 1)) :: acc
        else acc
      in
      walk (record_of t holder).slots.(next_at slot) acc
  in
  walk (record_of t target).head []

let entries t id =
  let r = record_of t id in
  (* Zone merges can shorten a node's path after its table was built;
     rows beyond the current path are dead state and are not reported. *)
  let live_rows = if r.nrows <= 0 then 0 else min r.nrows (rows t id) in
  let acc = ref [] in
  for row = 0 to live_rows - 1 do
    for digit = 0 to fan t - 1 do
      match raw_entry t r ~row ~digit with -1 -> () | v -> acc := (row, digit, v) :: !acc
    done
  done;
  !acc

let iter_selections t id f =
  iter_slots t id (fun ~row ~digit ->
      let region = region_prefix t id ~row ~digit in
      let candidates = Can_overlay.members_with_prefix t.can region in
      if Array.length candidates > 0 then f ~row ~digit ~region ~candidates)

let build_table_for t ~selector id =
  drop_table t id;
  ignore (table t id);
  iter_selections t id (fun ~row ~digit ~region ~candidates ->
      set_entry t id ~row ~digit (selector ~node:id ~region ~candidates))

let build_tables t ~selector =
  Array.iter (build_table_for t ~selector) (Can_overlay.node_ids t.can)

let table_size t id =
  let r = record_of t id and n = ref 0 in
  for slot = 0 to (Array.length r.slots / 3) - 1 do
    if r.slots.(entry_at slot) >= 0 then incr n
  done;
  !n

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
    let digit = digit_of_bits t t.target !row in
    match raw_entry t (record_of t u.Can_overlay.id) ~row:!row ~digit with
    | v
      when v >= 0
           && (not (Can_overlay.Cursor.visited t.cursor v))
           && v <> u.Can_overlay.id
           && Can_overlay.mem t.can v ->
      v
    | _ -> -1

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
  Can_overlay.path_of_point_into t.can ~depth:(Can_overlay.depth_mark t.can) point t.target;
  Can_overlay.Cursor.start t.cursor;
  let reached = walk t point (Can_overlay.node t.can src) (4 * Can_overlay.size t.can) in
  Engine.Route_obs.observe t.obs
    (if reached then Some (Can_overlay.Cursor.hops t.cursor) else None)
