(* Tests for eCAN expressway routing. *)

module Can_overlay = Can.Overlay
module Ecan = Ecan.Expressway
module Point = Geometry.Point
module Rng = Prelude.Rng

let random_selector rng ~node:_ ~region:_ ~candidates =
  Some (Rng.pick rng candidates)

let build ?(span_bits = 2) ~n ~seed () =
  let rng = Rng.create seed in
  let t = Can_overlay.create ~dims:2 0 in
  for id = 1 to n - 1 do
    ignore (Can_overlay.join t id (Point.random rng 2))
  done;
  let e = Ecan.create ~span_bits t in
  let sel_rng = Rng.create (seed + 1) in
  Ecan.build_tables e ~selector:(random_selector sel_rng);
  (e, Rng.create (seed + 2))

let test_digits () =
  let e, _ = build ~n:64 ~seed:1 () in
  let t = Ecan.can e in
  Array.iter
    (fun id ->
      let n = Can_overlay.node t id in
      let len = Array.length n.Can_overlay.path in
      Alcotest.(check int) "rows = len/span" (len / 2) (Ecan.rows e id);
      for row = 0 to Ecan.rows e id - 1 do
        let d = Ecan.own_digit e id ~row in
        let expect = (n.Can_overlay.path.(2 * row) * 2) + n.Can_overlay.path.((2 * row) + 1) in
        Alcotest.(check int) "digit packs two bits" expect d
      done)
    (Can_overlay.node_ids t)

let test_region_prefix () =
  let e, _ = build ~n:32 ~seed:2 () in
  let t = Ecan.can e in
  let id = (Can_overlay.node_ids t).(0) in
  if Ecan.rows e id > 0 then begin
    let prefix = Ecan.region_prefix e id ~row:0 ~digit:3 in
    Alcotest.(check int) "prefix length" 2 (Array.length prefix);
    Alcotest.(check (array int)) "digit 3 = bits 1 1" [| 1; 1 |] prefix
  end

let test_entries_point_into_region () =
  let e, _ = build ~n:100 ~seed:3 () in
  let t = Ecan.can e in
  Array.iter
    (fun id ->
      List.iter
        (fun (row, digit, target) ->
          let region = Ecan.region_prefix e id ~row ~digit in
          let target_path = (Can_overlay.node t target).Can_overlay.path in
          Alcotest.(check bool) "entry member of its region" true
            (Array.length target_path >= Array.length region
            && Array.for_all2 ( = ) region (Array.sub target_path 0 (Array.length region))))
        (Ecan.entries e id))
    (Can_overlay.node_ids t)

let avg_hops route_fn t rng ~count =
  let ids = Can_overlay.node_ids t in
  let total = ref 0 in
  for _ = 1 to count do
    let src = Rng.pick rng ids in
    let p = Point.random rng 2 in
    match route_fn ~src p with
    | Some hops -> total := !total + List.length hops - 1
    | None -> Alcotest.fail "routing failed"
  done;
  float_of_int !total /. float_of_int count

let test_expressway_beats_plain_can () =
  let e, rng = build ~n:500 ~seed:5 () in
  let t = Ecan.can e in
  let ecan_hops = avg_hops (fun ~src p -> Ecan.route e ~src p) t rng ~count:200 in
  let can_hops = avg_hops (fun ~src p -> Can_overlay.route t ~src p) t rng ~count:200 in
  Alcotest.(check bool)
    (Printf.sprintf "ecan %.2f hops well under CAN %.2f" ecan_hops can_hops)
    true
    (ecan_hops < can_hops /. 2.0)

let test_route_without_tables_falls_back () =
  (* With no tables built, eCAN degenerates to greedy CAN and must still
     reach the owner. *)
  let rng = Rng.create 6 in
  let t = Can_overlay.create ~dims:2 0 in
  for id = 1 to 63 do
    ignore (Can_overlay.join t id (Point.random rng 2))
  done;
  let e = Ecan.create t in
  for _ = 1 to 50 do
    let p = Point.random rng 2 in
    match Ecan.route e ~src:0 p with
    | None -> Alcotest.fail "fallback routing failed"
    | Some hops ->
      Alcotest.(check int) "owner reached" (Can_overlay.owner_of t p)
        (List.nth hops (List.length hops - 1))
  done

let test_set_entry_and_table_size () =
  let e, _ = build ~n:64 ~seed:7 () in
  let t = Ecan.can e in
  let id = (Can_overlay.node_ids t).(0) in
  let before = Ecan.table_size e id in
  Alcotest.(check bool) "some entries filled" true (before > 0);
  (match Ecan.entries e id with
  | (row, digit, _) :: _ ->
    Ecan.set_entry e id ~row ~digit None;
    Alcotest.(check int) "entry cleared" (before - 1) (Ecan.table_size e id);
    Alcotest.(check (option int)) "reads back" None (Ecan.entry e id ~row ~digit)
  | [] -> Alcotest.fail "expected entries");
  Alcotest.check_raises "bad row" (Invalid_argument "Ecan.set_entry: row out of range")
    (fun () -> Ecan.set_entry e id ~row:999 ~digit:0 None)

let test_span_bits_3 () =
  let e, rng = build ~span_bits:3 ~n:300 ~seed:8 () in
  let t = Ecan.can e in
  for _ = 1 to 100 do
    let p = Point.random rng 2 in
    match Ecan.route e ~src:(Prelude.Rng.pick rng (Can_overlay.node_ids t)) p with
    | None -> Alcotest.fail "span=3 routing failed"
    | Some hops ->
      Alcotest.(check int) "owner reached" (Can_overlay.owner_of t p)
        (List.nth hops (List.length hops - 1))
  done

(* Generic routing/owner properties live in the shared
   backend-conformance suite (test_conformance.ml). *)
(* The reverse-entry index against a scan of every table, through
   states the builder never reaches: tables left stale while the CAN
   churns (rows beyond a shrunk path, departed holders), overwrites, and
   entries naming departed nodes.  [referrers] must return exactly the
   live slots (member holder, row under the current path) that point at
   each target. *)
let qcheck_referrers_match_scan =
  QCheck.Test.make ~name:"referrers = scan of every table, through churn" ~count:60
    QCheck.(triple (int_range 1 3) (int_range 4 40) (int_bound 10_000))
    (fun (span_bits, n, seed) ->
      let e, rng = build ~span_bits ~n ~seed () in
      let can = Ecan.can e in
      let next = ref n and ok = ref true in
      let check () =
        let scanned = Array.make (!next + 1) [] in
        Array.iter
          (fun id ->
            List.iter
              (fun (row, digit, target) ->
                scanned.(target) <- (id, row, digit) :: scanned.(target))
              (Ecan.entries e id))
          (Can_overlay.node_ids can);
        for target = 0 to !next do
          if List.sort compare (Ecan.referrers e target) <> List.sort compare scanned.(target)
          then ok := false
        done
      in
      for _ = 1 to 40 do
        let ids = Can_overlay.node_ids can in
        (match Rng.int rng 4 with
        | 0 ->
          ignore (Can_overlay.join can !next (Point.random rng 2));
          incr next
        | 1 when Array.length ids > 2 -> ignore (Can_overlay.leave can (Rng.pick rng ids))
        | 2 -> Ecan.build_table_for e ~selector:(random_selector rng) (Rng.pick rng ids)
        | _ ->
          let id = Rng.pick rng ids in
          let rows = Ecan.rows e id in
          if rows > 0 then begin
            let value = if Rng.chance rng 0.2 then None else Some (Rng.int rng !next) in
            try
              Ecan.set_entry e id ~row:(Rng.int rng rows)
                ~digit:(Rng.int rng (1 lsl span_bits)) value
            with Invalid_argument _ -> ()
          end);
        check ()
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "digit extraction" `Quick test_digits;
    Alcotest.test_case "region prefixes" `Quick test_region_prefix;
    Alcotest.test_case "entries live in their regions" `Quick test_entries_point_into_region;
    Alcotest.test_case "expressways beat plain CAN" `Quick test_expressway_beats_plain_can;
    Alcotest.test_case "fallback without tables" `Quick test_route_without_tables_falls_back;
    Alcotest.test_case "set_entry / table_size" `Quick test_set_entry_and_table_size;
    Alcotest.test_case "span_bits = 3" `Quick test_span_bits_3;
    QCheck_alcotest.to_alcotest qcheck_referrers_match_scan;
  ]
