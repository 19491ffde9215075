module Can_overlay = Can.Overlay

(* A node's routing table is an int array of its entries (-1 for
   none), slot [row * fan + digit], kept in [t.tables] by id.  Its record
   keeps the reverse-entry index: two links per slot, at [2 * slot] and
   after it, and [head], the newest slot that points at the node.  The
   index threads every filled slot onto its target's referrer list; the
   links and [head] are slot codes (see [slot_code]), -1 at either end.
   A node that so far is only a target has a record without a table
   ([nrows] = -1). *)
type record = {
  holder : int;
  mutable nrows : int;
  mutable links : int array;
  mutable head : int;
}

type t = {
  can : Can_overlay.t;
  span_bits : int;
  mutable records : record array;
      (* id -> its record, [no_record] for an id without one; grown like
         [Can.Overlay]'s id array. *)
  mutable tables : int array array;
      (* id -> its table's entries, [[||]] without a table; grown with
         [records].  [set_entry] and [clear_table] are the only writers
         of entries and [new_table] the only maker of the arrays, so the
         referrer lists always hold exactly the filled slots. *)
  cursor : Can_overlay.Cursor.t;
      (* visit stamps and hop buffer, reused by every [route] of this
         expressway (routing is coordinator-only, see the .mli) *)
  obs : Engine.Route_obs.t;
}

(* Read-only stand-in for a node without a record. *)
let no_record = { holder = -1; nrows = -1; links = [||]; head = -1 }

type selector = node:int -> region:int array -> candidates:int array -> int option

let create ?metrics ?(labels = []) ?trace ?(span_bits = 2) can =
  if span_bits < 1 || span_bits > 8 then invalid_arg "Ecan.create: span_bits out of [1,8]";
  let obs = Engine.Route_obs.create metrics ~labels ~trace ~overlay:"ecan" in
  {
    can;
    span_bits;
    records = [||];
    tables = [||];
    cursor = Can_overlay.Cursor.create ();
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
    let r = { holder = id; nrows = -1; links = [||]; head = -1 } in
    if id >= Array.length t.records then begin
      let cap = max (id + 1) (2 * Array.length t.records) in
      let records = Array.make cap no_record and tables = Array.make cap [||] in
      Array.blit t.records 0 records 0 (Array.length t.records);
      Array.blit t.tables 0 tables 0 (Array.length t.tables);
      t.records <- records;
      t.tables <- tables
    end;
    t.records.(id) <- r;
    r
  end

let next_at slot = 2 * slot
let prev_at slot = (2 * slot) + 1

let link t r slot target =
  let tr = record t target in
  let code = slot_code r.holder slot and head = tr.head in
  r.links.(next_at slot) <- head;
  r.links.(prev_at slot) <- -1;
  if head >= 0 then (record_of t (code_holder head)).links.(prev_at (code_slot head)) <- code;
  tr.head <- code

let unlink t r slot target =
  let p = r.links.(prev_at slot) and n = r.links.(next_at slot) in
  if p >= 0 then (record_of t (code_holder p)).links.(next_at (code_slot p)) <- n
  else (record_of t target).head <- n;
  if n >= 0 then (record_of t (code_holder n)).links.(prev_at (code_slot n)) <- p

(* [id]'s table entries, [[||]] when it has none. *)
let row_array t id =
  if id >= 0 && id < Array.length t.tables then Array.unsafe_get t.tables id else [||]

let new_table t r id nrows =
  t.tables.(id) <- Array.make (nrows * fan t) (-1);
  r.links <- Array.make (2 * nrows * fan t) (-1);
  r.nrows <- nrows

(* [id]'s record with a table, sized for its current rows if new. *)
let table t id =
  let r = record t id in
  if r.nrows < 0 then new_table t r id (rows t id);
  r

(* Give [id] an empty table for its current rows: unlink and clear
   every filled slot, and keep the arrays when the row count is
   unchanged (a slot's links are read only while it is filled). *)
let clear_table t id =
  let r = record t id and nrows = rows t id in
  let entries = row_array t id in
  for slot = 0 to Array.length entries - 1 do
    let v = entries.(slot) in
    if v >= 0 then begin
      unlink t r slot v;
      entries.(slot) <- -1
    end
  done;
  if r.nrows <> nrows then new_table t r id nrows

(* The entry of a slot, -1 for none or for a row the table lacks. *)
let raw_entry t id ~row ~digit =
  let entries = row_array t id and slot = (row lsl t.span_bits) lor digit in
  if slot < Array.length entries then entries.(slot) else -1

let entry t id ~row ~digit =
  if digit < 0 || digit >= fan t then invalid_arg "Ecan.entry: digit out of range";
  match raw_entry t id ~row ~digit with -1 -> None | v -> Some v

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
  let entries = t.tables.(id) and slot = (row lsl t.span_bits) lor digit in
  let old = entries.(slot) in
  if old >= 0 then unlink t r slot old;
  if v >= 0 then link t r slot v;
  entries.(slot) <- v

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
      walk (record_of t holder).links.(next_at slot) acc
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
      match raw_entry t id ~row ~digit with -1 -> () | v -> acc := (row, digit, v) :: !acc
    done
  done;
  !acc

let iter_selections t id f =
  iter_slots t id (fun ~row ~digit ->
      let region = region_prefix t id ~row ~digit in
      let candidates = Can_overlay.members_with_prefix t.can region in
      if Array.length candidates > 0 then f ~row ~digit ~region ~candidates)

let build_table_for t ~selector id =
  clear_table t id;
  iter_selections t id (fun ~row ~digit ~region ~candidates ->
      set_entry t id ~row ~digit (selector ~node:id ~region ~candidates))

let build_tables t ~selector =
  Array.iter (build_table_for t ~selector) (Can_overlay.node_ids t.can)

let table_size t id = Array.fold_left (fun n v -> if v >= 0 then n + 1 else n) 0 (row_array t id)

let check_invariants t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let fan = fan t and result = ref (Ok ()) in
  let fail r = if !result = Ok () then result := r in
  let filled = ref 0 in
  Array.iteri
    (fun id r ->
      let entries = row_array t id in
      let slots = max 0 r.nrows * fan in
      if r == no_record then begin
        if Array.length entries > 0 then fail (err "id %d: entries without a record" id)
      end
      else if r.holder <> id then fail (err "id %d: record of %d" id r.holder)
      else if Array.length entries <> slots || Array.length r.links <> 2 * slots then
        fail
          (err "id %d: %d entries and %d links for %d rows" id (Array.length entries)
             (Array.length r.links) r.nrows);
      Array.iter (fun v -> if v >= 0 then incr filled) entries)
    t.records;
  (* Each referrer of a node is a filled slot whose entry is the node,
     linked back to its predecessor; no more links than filled slots, so
     a cycle stops the walk. *)
  let linked = ref 0 in
  Array.iteri
    (fun id r ->
      let rec walk prev code =
        if code >= 0 && !result = Ok () then begin
          incr linked;
          let holder = code_holder code and slot = code_slot code in
          let hr = record_of t holder in
          if !linked > !filled then fail (err "more referrer links than %d filled slots" !filled)
          else if raw_entry t holder ~row:(slot lsr t.span_bits) ~digit:(slot land (fan - 1)) <> id
          then fail (err "id %d: referrer %d slot %d holds another entry" id holder slot)
          else if hr.links.(prev_at slot) <> prev then
            fail (err "id %d: referrer %d slot %d has a stale back link" id holder slot)
          else walk code hr.links.(next_at slot)
        end
      in
      walk (-1) r.head)
    t.records;
  if !result = Ok () && !filled <> !linked then
    err "%d filled slots but %d referrer links" !filled !linked
  else !result

(* The expressway hop from member [u] toward the target whose split
   bits [target] packs to [depth], at least [u]'s path length: at the
   first row where [u]'s digit differs from the target's, the table
   entry into the target's sibling region, if it is a live, unvisited
   node other than [u]; -1 otherwise.  The digits are compared by one
   XOR of [u]'s packed path with the target's prefix of equal length
   (the sentinel bit cancels), read row by row from the top.  Entries
   can dangle briefly after a departure (repair is asynchronous), so
   dead targets count as missing. *)
let express_step t ~target ~depth u =
  let len = Can_overlay.path_length t.can u and span = t.span_bits in
  let nrows = len / span in
  let used = nrows * span in
  let diff =
    (Can_overlay.path_key_of t.can u lsr (len - used))
    lxor ((target lsr (depth - used)) lor (1 lsl used))
  in
  let row = ref 0 in
  while !row < nrows && diff lsr (used - ((!row + 1) * span)) = 0 do
    incr row
  done;
  if !row >= nrows then -1
  else begin
    let digit = (target lsr (depth - ((!row + 1) * span))) land ((1 lsl span) - 1) in
    let v = raw_entry t u ~row:!row ~digit in
    if v >= 0 && (not (Can_overlay.Cursor.visited t.cursor v)) && v <> u && Can_overlay.mem t.can v
    then v
    else -1
  end

(* Express hop when one helps, else a greedy CAN hop that may revisit
   when an expressway hop has landed amid visited zones; [guard] bounds
   the walk.  Only the greedy fallback reads a node record. *)
let rec walk t point ~target ~depth u guard =
  Can_overlay.Cursor.push t.cursor u;
  Can_overlay.contains t.can u point
  || guard > 0
     &&
     let next =
       match express_step t ~target ~depth u with
       | -1 ->
         Can_overlay.greedy_step t.can t.cursor ~revisit:true (Can_overlay.node t.can u) point
       | v -> v
     in
     next >= 0 && walk t point ~target ~depth next (guard - 1)

let route t ~src point =
  if Array.length point <> Can_overlay.dims t.can then
    invalid_arg "Ecan.route: dimension mismatch";
  if not (Can_overlay.mem t.can src) then raise Not_found;
  let depth = Can_overlay.depth_mark t.can in
  let target = Can_overlay.path_bits_of_point t.can ~depth point in
  Can_overlay.Cursor.start t.cursor;
  let reached = walk t point ~target ~depth src (4 * Can_overlay.size t.can) in
  Engine.Route_obs.observe t.obs
    (if reached then Some (Can_overlay.Cursor.hops t.cursor) else None)
