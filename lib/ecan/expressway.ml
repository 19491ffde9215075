module Can_overlay = Can.Overlay
module Zone = Geometry.Zone

type t = {
  can : Can_overlay.t;
  span_bits : int;
  tables : (int, int option array array) Hashtbl.t;  (* node -> row -> digit -> entry *)
  scratch_visited : (int, unit) Hashtbl.t;
      (* per-route visited set, cleared at the top of every [route] call.
         Routing is a coordinator-side operation (no caller routes from a
         pool worker), so one scratch table per expressway is safe and
         saves a fresh table per routed message. *)
  obs : Engine.Route_obs.t;
}

type selector = node:int -> region:int array -> candidates:int array -> int option

let create ?metrics ?(labels = []) ?trace ?(span_bits = 2) can =
  if span_bits < 1 || span_bits > 8 then invalid_arg "Ecan.create: span_bits out of [1,8]";
  let obs = Engine.Route_obs.create metrics ~labels ~trace ~overlay:"ecan" in
  { can; span_bits; tables = Hashtbl.create 256; scratch_visited = Hashtbl.create 64; obs }

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
  for row = 0 to Array.length tbl - 1 do
    let own = own_digit t id ~row in
    for digit = 0 to fan t - 1 do
      if digit <> own then begin
        let region = region_prefix t id ~row ~digit in
        let candidates = Can_overlay.members_with_prefix t.can region in
        if Array.length candidates > 0 then
          tbl.(row).(digit) <- selector ~node:id ~region ~candidates
      end
    done
  done

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

let route t ~src point =
  let canvas = t.can in
  if Array.length point <> Can_overlay.dims canvas then
    invalid_arg "Ecan.route: dimension mismatch";
  let target_bits = Can_overlay.path_of_point canvas ~depth:Can_overlay.max_depth point in
  let target_digit row = digit_of_bits t target_bits row in
  let visited = t.scratch_visited in
  Hashtbl.clear visited;
  let greedy_step u =
    (* One CAN hop toward the target: nearest unvisited neighbor zone
       (ties to the lowest id); when an expressway hop has landed amid
       already-visited zones, permit revisits (the hop guard bounds the
       walk).  Written as a while-loop over the neighbor list with
       sentinel int/float locals — no closure captures the refs, so they
       compile to unboxed mutable locals and the scan allocates
       nothing. *)
    let ns = ref u.Can_overlay.neighbors in
    let best_d = ref infinity and best_id = ref (-1) in
    let any_d = ref infinity and any_id = ref (-1) in
    while !ns <> [] do
      match !ns with
      | [] -> ()
      | vid :: rest ->
        ns := rest;
        let v = Can_overlay.node canvas vid in
        let d = Zone.min_torus_dist v.Can_overlay.zone point in
        if
          (not (Hashtbl.mem visited vid))
          && (!best_id < 0 || d < !best_d || (d = !best_d && vid < !best_id))
        then begin
          best_d := d;
          best_id := vid
        end;
        if !any_id < 0 || d < !any_d || (d = !any_d && vid < !any_id) then begin
          any_d := d;
          any_id := vid
        end
    done;
    if !best_id >= 0 then !best_id else !any_id
  in
  let express_step u =
    (* First row where our digit differs from the target's: take the
       table entry into the target's sibling region if we have one.
       Returns the next node id, or -1 for none. *)
    let nrows = Array.length (Can_overlay.node canvas u.Can_overlay.id).Can_overlay.path / t.span_bits in
    let rec scan row =
      if row >= nrows then -1
      else begin
        let own = digit_of_bits t u.Can_overlay.path row in
        let tgt = target_digit row in
        if own = tgt then scan (row + 1)
        else begin
          (* Entries can dangle briefly after a departure (repair is
             asynchronous); treat dead targets as missing. *)
          match entry t u.Can_overlay.id ~row ~digit:tgt with
          | Some v
            when (not (Hashtbl.mem visited v))
                 && v <> u.Can_overlay.id
                 && Can_overlay.mem canvas v ->
            v
          | _ -> -1
        end
      end
    in
    scan 0
  in
  let rec go u acc guard =
    if Zone.contains u.Can_overlay.zone point then Some (List.rev (u.Can_overlay.id :: acc))
    else if guard <= 0 then None
    else begin
      Hashtbl.replace visited u.Can_overlay.id ();
      let next = match express_step u with -1 -> greedy_step u | v -> v in
      if next < 0 then None
      else go (Can_overlay.node canvas next) (u.Can_overlay.id :: acc) (guard - 1)
    end
  in
  Engine.Route_obs.observe t.obs (go (Can_overlay.node canvas src) [] (4 * Can_overlay.size canvas))
