(* Reference-model checks for the CAN and eCAN route walks.  The
   references below are the list-and-hashtable walks the overlays used
   before routes ran on a reused cursor (a visited table per route, the
   greedy choice by polymorphic tuple compare, the target bits from a
   fresh bounds array), written against the public API only.  Every
   route, the walk inside [join] and [path_of_point] must agree with them
   hop for hop. *)

module Can_overlay = Can.Overlay
module Ecan = Ecan.Expressway
module Point = Geometry.Point
module Zone = Geometry.Zone
module Rng = Prelude.Rng

let ref_path_of_point ~dims ~depth point =
  let lo = Array.make dims 0.0 and hi = Array.make dims 1.0 in
  Array.init depth (fun d ->
      let dim = Zone.split_dim_at_depth dims d in
      let mid = (lo.(dim) +. hi.(dim)) /. 2.0 in
      if point.(dim) >= mid then begin
        lo.(dim) <- mid;
        1
      end
      else begin
        hi.(dim) <- mid;
        0
      end)

let ref_can_route t ~src point =
  let visited = Hashtbl.create 32 in
  let rec go (u : Can_overlay.node) acc =
    if Zone.contains u.zone point then Some (List.rev (u.id :: acc))
    else begin
      Hashtbl.replace visited u.id ();
      let best = ref None in
      let consider id =
        if not (Hashtbl.mem visited id) then begin
          let v = Can_overlay.node t id in
          let d = Zone.min_torus_dist v.zone point in
          match !best with
          | Some (bd, bid, _) when (bd, bid) <= (d, id) -> ()
          | _ -> best := Some (d, id, v)
        end
      in
      List.iter consider u.neighbors;
      match !best with None -> None | Some (_, _, v) -> go v (u.id :: acc)
    end
  in
  go (Can_overlay.node t src) []

let ref_route_proximity t ~dist ~src point =
  let visited = Hashtbl.create 32 in
  let rec go (u : Can_overlay.node) acc =
    if Zone.contains u.zone point then Some (List.rev (u.id :: acc))
    else begin
      Hashtbl.replace visited u.id ();
      let here = Zone.min_torus_dist u.zone point in
      let best_proximal = ref None and best_greedy = ref None in
      List.iter
        (fun id ->
          if not (Hashtbl.mem visited id) then begin
            let v = Can_overlay.node t id in
            let zd = Zone.min_torus_dist v.zone point in
            (if zd < here then begin
               let pd = Float.max 1e-9 (dist u.id id) in
               let ratio = (here -. zd) /. pd in
               match !best_proximal with
               | Some (br, bid, _) when (br, -bid) >= (ratio, -id) -> ()
               | _ -> best_proximal := Some (ratio, id, v)
             end);
            match !best_greedy with
            | Some (bd, bid, _) when (bd, bid) <= (zd, id) -> ()
            | _ -> best_greedy := Some (zd, id, v)
          end)
        u.neighbors;
      match (!best_proximal, !best_greedy) with
      | Some (_, _, v), _ -> go v (u.id :: acc)
      | None, Some (_, _, v) -> go v (u.id :: acc)
      | None, None -> None
    end
  in
  go (Can_overlay.node t src) []

let ref_ecan_route e ~src point =
  let canvas = Ecan.can e in
  let span = Ecan.span_bits e in
  let digit bits row =
    let acc = ref 0 in
    for i = row * span to ((row + 1) * span) - 1 do
      acc := (!acc lsl 1) lor bits.(i)
    done;
    !acc
  in
  let target =
    ref_path_of_point ~dims:(Can_overlay.dims canvas) ~depth:Can_overlay.max_depth point
  in
  let visited = Hashtbl.create 64 in
  let greedy_step (u : Can_overlay.node) =
    let ns = ref u.neighbors in
    let best_d = ref infinity and best_id = ref (-1) in
    let any_d = ref infinity and any_id = ref (-1) in
    while !ns <> [] do
      match !ns with
      | [] -> ()
      | vid :: rest ->
        ns := rest;
        let v = Can_overlay.node canvas vid in
        let d = Zone.min_torus_dist v.zone point in
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
  let express_step (u : Can_overlay.node) =
    let nrows = Array.length u.path / span in
    let rec scan row =
      if row >= nrows then -1
      else if digit u.path row = digit target row then scan (row + 1)
      else
        match Ecan.entry e u.id ~row ~digit:(digit target row) with
        | Some v when (not (Hashtbl.mem visited v)) && v <> u.id && Can_overlay.mem canvas v -> v
        | _ -> -1
    in
    scan 0
  in
  let rec go (u : Can_overlay.node) acc guard =
    if Zone.contains u.zone point then Some (List.rev (u.id :: acc))
    else if guard <= 0 then None
    else begin
      Hashtbl.replace visited u.id ();
      let next = match express_step u with -1 -> greedy_step u | v -> v in
      if next < 0 then None
      else go (Can_overlay.node canvas next) (u.id :: acc) (guard - 1)
    end
  in
  go (Can_overlay.node canvas src) [] (4 * Can_overlay.size canvas)

(* Route targets: uniform points; dyadic points on zone corners and
   edges, where several neighbors are at distance 0 and the id
   tie-break picks the hop; and points outside the unit box, which no
   zone contains, so eCAN walks revisit until the [4 * size] guard and
   CAN walks run out of unvisited neighbors. *)
let target rng =
  match Rng.int rng 4 with
  | 0 | 1 -> Point.random rng 2
  | 2 -> Array.init 2 (fun _ -> float_of_int (Rng.int rng 16) /. 16.0)
  | _ -> Array.init 2 (fun _ -> 1.0 +. Rng.float rng 0.5)

let random_selector rng ~node:_ ~region:_ ~candidates = Some (Rng.pick rng candidates)

(* A CAN of [n] members grown at random points (a quarter of them
   dyadic).  Returns the overlay, the next free id and a function that
   joins one more member. *)
let grown_can rng ~n =
  let t = Can_overlay.create ~dims:2 0 in
  let next = ref 1 in
  let join () =
    let p =
      if Rng.chance rng 0.25 then Array.init 2 (fun _ -> float_of_int (Rng.int rng 64) /. 64.0)
      else Point.random rng 2
    in
    (match Can_overlay.join t !next p with
    | _ -> ()
    | exception Failure _ -> ());
    incr next
  in
  for _ = 2 to n do
    join ()
  done;
  (t, next, join)

let leave_some rng t ~count =
  let gone = ref [] in
  for _ = 1 to count do
    if Can_overlay.size t > 2 then begin
      let victim = Rng.pick rng (Can_overlay.node_ids t) in
      ignore (Can_overlay.leave t victim);
      gone := victim :: !gone
    end
  done;
  !gone

(* Dangling and misplaced entries: point random slots at departed nodes,
   at the slot's owner itself, or at members of the wrong region. *)
let scramble_entries rng e ~gone ~count =
  let canvas = Ecan.can e in
  let ids = Can_overlay.node_ids canvas in
  for _ = 1 to count do
    let id = Rng.pick rng ids in
    let rows = Ecan.rows e id in
    if rows > 0 then begin
      let value =
        match Rng.int rng 4 with
        | 0 when gone <> [] -> Some (List.nth gone (Rng.int rng (List.length gone)))
        | 1 -> Some id
        | 2 -> None
        | _ -> Some (Rng.pick rng ids)
      in
      try Ecan.set_entry e id ~row:(Rng.int rng rows) ~digit:(Rng.int rng (1 lsl Ecan.span_bits e)) value
      with Invalid_argument _ -> ()
    end
  done

let qcheck_can_routes_match_reference =
  QCheck.Test.make ~name:"CAN route and route_proximity = visited-table reference" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 80))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let t, _, join = grown_can rng ~n in
      ignore (leave_some rng t ~count:(n / 4));
      for _ = 1 to n / 8 do
        join ()
      done;
      let dist a b = float_of_int (((a * 37) + (b * 11)) mod 13) in
      let ids = Can_overlay.node_ids t in
      List.for_all
        (fun _ ->
          let src = Rng.pick rng ids and p = target rng in
          Can_overlay.route t ~src p = ref_can_route t ~src p
          && Can_overlay.route_proximity t ~dist ~src p = ref_route_proximity t ~dist ~src p)
        (List.init 40 Fun.id))

let qcheck_join_routes_match_reference =
  QCheck.Test.make ~name:"join walks = visited-table reference" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 60))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let t, next, _ = grown_can rng ~n in
      List.for_all
        (fun _ ->
          if Rng.chance rng 0.3 && Can_overlay.size t > 2 then begin
            ignore (Can_overlay.leave t (Rng.pick rng (Can_overlay.node_ids t)));
            true
          end
          else begin
            let start = Rng.pick rng (Can_overlay.node_ids t) in
            let p =
              if Rng.chance rng 0.3 then
                Array.init 2 (fun _ -> float_of_int (Rng.int rng 32) /. 32.0)
              else Point.random rng 2
            in
            let expected = ref_can_route t ~src:start p in
            let id = !next in
            incr next;
            match Can_overlay.join t ~start id p with
            | hops -> expected = Some hops
            | exception Failure msg -> expected = None || msg <> "Can.join: routing failed"
          end)
        (List.init 30 Fun.id))

(* Churn on sparse ids up to 2^14, from [first] up: joiners get tables
   and entries get targets that never joined, so the expressway's record
   array grows between routes.  Members leave one at a time (sibling
   merges and takeovers, whose survivors get their tables rebuilt) and
   half of them at one point, so the overlay can get shallower than its
   depth mark.  Entries are pointed at members, at ids that never joined
   and at nothing.  Every step checks the mark, both invariant checks
   and every member's slots against [model], a table of the entries
   each write left, then routes against the reference, which always
   fills all [max_depth] target bits. *)
let sparse_churn rng e ~first =
  let t = Ecan.can e in
  let span = Ecan.span_bits e in
  let fan = 1 lsl span in
  let used = Hashtbl.create 64 in
  let rec fresh_id () =
    let id = first + Rng.int rng ((1 lsl 14) - first) in
    if Hashtbl.mem used id then fresh_id ()
    else begin
      Hashtbl.replace used id ();
      id
    end
  in
  let deepest () =
    Array.fold_left
      (fun m id -> max m (Array.length (Can_overlay.node t id).Can_overlay.path))
      0 (Can_overlay.node_ids t)
  in
  let each_slot f =
    for row = 0 to (Can_overlay.depth_mark t / span) + 1 do
      for digit = 0 to fan - 1 do
        f row digit
      done
    done
  in
  let model = Hashtbl.create 256 in
  Array.iter
    (fun id ->
      each_slot (fun row digit ->
          Option.iter (Hashtbl.replace model (id, row, digit)) (Ecan.entry e id ~row ~digit)))
    (Can_overlay.node_ids t);
  let write id row digit = function
    | Some v -> Hashtbl.replace model (id, row, digit) v
    | None -> Hashtbl.remove model (id, row, digit)
  in
  let rebuild id =
    each_slot (fun row digit -> Hashtbl.remove model (id, row, digit));
    Ecan.build_table_for e id ~selector:(fun ~node ~region ~candidates ->
        let len = Array.length region in
        let digit = ref 0 in
        for i = len - span to len - 1 do
          digit := (!digit lsl 1) lor region.(i)
        done;
        let v = random_selector rng ~node ~region ~candidates in
        write id ((len / span) - 1) !digit v;
        v)
  in
  let set_random value =
    let id = Rng.pick rng (Can_overlay.node_ids t) in
    (* A table built before its node's path grew is short: slots past it
       do not exist. *)
    let row = Rng.int rng (max 1 (Ecan.rows e id)) and digit = Rng.int rng fan in
    match Ecan.set_entry e id ~row ~digit value with
    | () -> write id row digit value
    | exception Invalid_argument _ -> ()
  in
  let model_agrees () =
    Array.for_all
      (fun id ->
        let ok = ref true in
        each_slot (fun row digit ->
            if Ecan.entry e id ~row ~digit <> Hashtbl.find_opt model (id, row, digit) then
              ok := false);
        !ok)
      (Can_overlay.node_ids t)
  in
  List.for_all
    (fun step ->
      (match Rng.int rng 7 with
      | 0 -> (
        let id = fresh_id () in
        match Can_overlay.join t id (Point.random rng 2) with
        | hops ->
          rebuild id;
          (* the split owner's path grew: a rebuilt table gets a row *)
          if Rng.bool rng then rebuild (List.nth hops (List.length hops - 1))
        | exception Failure _ -> ())
      | 1 -> set_random (Some (fresh_id ()))
      | 2 -> set_random None
      | 3 -> set_random (Some (Rng.pick rng (Can_overlay.node_ids t)))
      | 4 when Can_overlay.size t > 2 ->
        let { Can_overlay.survivor; backfilled } =
          Can_overlay.leave t (Rng.pick rng (Can_overlay.node_ids t))
        in
        rebuild survivor;
        Option.iter rebuild backfilled
      | 5 -> rebuild (Rng.pick rng (Can_overlay.node_ids t))
      | _ -> ());
      if step = 10 then ignore (leave_some rng t ~count:(Can_overlay.size t / 2));
      let ids = Can_overlay.node_ids t in
      deepest () <= Can_overlay.depth_mark t
      && Can_overlay.check_invariants t = Ok ()
      && Ecan.check_invariants e = Ok ()
      && model_agrees ()
      && List.for_all
           (fun _ ->
             let src = Rng.pick rng ids and p = target rng in
             Ecan.route e ~src p = ref_ecan_route e ~src p)
           (List.init 8 Fun.id))
    (List.init 30 Fun.id)

let qcheck_ecan_routes_match_reference =
  QCheck.Test.make
    ~name:"eCAN route = visited-table reference, dangling entries and guard hits" ~count:40
    QCheck.(triple (int_range 0 10_000) (int_range 2 90) (int_range 1 3))
    (fun (seed, n, span_bits) ->
      let rng = Rng.create seed in
      let t, next, join = grown_can rng ~n in
      let e = Ecan.create ~span_bits t in
      Ecan.build_tables e ~selector:(random_selector (Rng.create (seed + 1)));
      (* Departures and joins after the fill leave entries dangling and
         tables short or long; a few rebuilt tables mix in fresh ones. *)
      let gone = leave_some rng t ~count:(n / 5) in
      for _ = 1 to n / 10 do
        join ()
      done;
      let ids = Can_overlay.node_ids t in
      for _ = 1 to 3 do
        Ecan.build_table_for e ~selector:(random_selector rng) (Rng.pick rng ids)
      done;
      scramble_entries rng e ~gone ~count:n;
      List.for_all
        (fun _ ->
          let src = Rng.pick rng ids and p = target rng in
          Ecan.route e ~src p = ref_ecan_route e ~src p)
        (List.init 60 Fun.id)
      && sparse_churn rng e ~first:!next)

(* Two expressways over one CAN, each with its own cursor, interleaved
   with the CAN's own routes and joins: no route may see another's
   visited marks. *)
let qcheck_interleaved_cursors =
  QCheck.Test.make ~name:"interleaved routes on two expressways over one CAN" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 4 70))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let t, _, join = grown_can rng ~n in
      let e1 = Ecan.create ~span_bits:2 t and e2 = Ecan.create ~span_bits:1 t in
      Ecan.build_tables e1 ~selector:(random_selector (Rng.create (seed + 1)));
      Ecan.build_tables e2 ~selector:(random_selector (Rng.create (seed + 2)));
      List.for_all
        (fun step ->
          if step mod 25 = 24 then begin
            join ();
            true
          end
          else begin
            let ids = Can_overlay.node_ids t in
            let src = Rng.pick rng ids and p = target rng in
            match Rng.int rng 3 with
            | 0 -> Ecan.route e1 ~src p = ref_ecan_route e1 ~src p
            | 1 -> Ecan.route e2 ~src p = ref_ecan_route e2 ~src p
            | _ -> Can_overlay.route t ~src p = ref_can_route t ~src p
          end)
        (List.init 150 Fun.id))

let qcheck_path_of_point_matches_reference =
  QCheck.Test.make ~name:"path_of_point = bounds-array reference" ~count:200
    QCheck.(triple (int_range 0 10_000) (int_range 1 4) (int_range 0 Can_overlay.max_depth))
    (fun (seed, dims, depth) ->
      let rng = Rng.create seed in
      let t = Can_overlay.create ~dims 0 in
      let p = Point.random rng dims in
      let expected = ref_path_of_point ~dims ~depth p in
      Can_overlay.path_of_point t ~depth p = expected
      && Can_overlay.path_bits_of_point t ~depth p
         = Array.fold_left (fun acc b -> (acc lsl 1) lor b) 0 expected)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_can_routes_match_reference;
      qcheck_join_routes_match_reference;
      qcheck_ecan_routes_match_reference;
      qcheck_interleaved_cursors;
      qcheck_path_of_point_matches_reference;
    ]
