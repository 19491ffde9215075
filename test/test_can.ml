(* Tests for the CAN overlay: joins, zone invariants, routing, leaves. *)

module Can_overlay = Can.Overlay
module Point = Geometry.Point
module Zone = Geometry.Zone
module Rng = Prelude.Rng

let check_ok = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let build ~dims ~n ~seed =
  let rng = Rng.create seed in
  let t = Can_overlay.create ~dims 0 in
  for id = 1 to n - 1 do
    ignore (Can_overlay.join t id (Point.random rng dims))
  done;
  (t, rng)

let test_single_node () =
  let t = Can_overlay.create ~dims:2 7 in
  Alcotest.(check int) "size" 1 (Can_overlay.size t);
  Alcotest.(check bool) "owns everything" true
    (Zone.equal (Can_overlay.node t 7).Can_overlay.zone (Zone.full 2));
  Alcotest.(check int) "owner of any point" 7 (Can_overlay.owner_of t [| 0.9; 0.1 |]);
  check_ok (Can_overlay.check_invariants t)

let test_first_split () =
  let t = Can_overlay.create ~dims:2 0 in
  ignore (Can_overlay.join t 1 [| 0.75; 0.5 |]);
  (* Split along dim 0: node 1 (point in upper half) takes [0.5,1). *)
  let z1 = (Can_overlay.node t 1).Can_overlay.zone in
  Alcotest.(check bool) "newcomer owns its point" true (Zone.contains z1 [| 0.75; 0.5 |]);
  Alcotest.(check (float 1e-12)) "half volume" 0.5 (Zone.volume z1);
  Alcotest.(check (list int)) "neighbors" [ 1 ] (Can_overlay.node t 0).Can_overlay.neighbors;
  check_ok (Can_overlay.check_invariants t)

let test_join_invariants_many () =
  let t, _ = build ~dims:2 ~n:120 ~seed:42 in
  Alcotest.(check int) "size" 120 (Can_overlay.size t);
  check_ok (Can_overlay.check_invariants t)

let test_join_invariants_3d () =
  let t, _ = build ~dims:3 ~n:80 ~seed:43 in
  check_ok (Can_overlay.check_invariants t)

let test_join_rejects_duplicate () =
  let t, _ = build ~dims:2 ~n:5 ~seed:1 in
  Alcotest.check_raises "duplicate id" (Invalid_argument "Can.join: node already a member")
    (fun () -> ignore (Can_overlay.join t 3 [| 0.5; 0.5 |]))

let test_owner_of_agrees_with_zones () =
  let t, rng = build ~dims:2 ~n:100 ~seed:44 in
  for _ = 1 to 300 do
    let p = Point.random rng 2 in
    let owner = Can_overlay.owner_of t p in
    Alcotest.(check bool) "owner zone contains point" true
      (Zone.contains (Can_overlay.node t owner).Can_overlay.zone p)
  done

let test_route_reaches_owner () =
  let t, rng = build ~dims:2 ~n:150 ~seed:45 in
  let ids = Can_overlay.node_ids t in
  for _ = 1 to 200 do
    let src = Rng.pick rng ids in
    let p = Point.random rng 2 in
    match Can_overlay.route t ~src p with
    | None -> Alcotest.fail "routing failed"
    | Some hops ->
      Alcotest.(check int) "starts at src" src (List.hd hops);
      let dst = List.nth hops (List.length hops - 1) in
      Alcotest.(check int) "ends at owner" (Can_overlay.owner_of t p) dst;
      (* consecutive hops are CAN neighbors *)
      let rec check_links = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool) "hop uses a link" true
            (List.mem b (Can_overlay.node t a).Can_overlay.neighbors);
          check_links rest
        | _ -> ()
      in
      check_links hops
  done

let test_route_from_owner_is_trivial () =
  let t, _ = build ~dims:2 ~n:50 ~seed:46 in
  let p = [| 0.3; 0.3 |] in
  let owner = Can_overlay.owner_of t p in
  Alcotest.(check (option (list int))) "single hop" (Some [ owner ])
    (Can_overlay.route t ~src:owner p)

let test_path_of_point () =
  let t = Can_overlay.create ~dims:2 0 in
  let bits = Can_overlay.path_of_point t ~depth:4 [| 0.8; 0.2 |] in
  (* dim0: 0.8 -> upper (1); dim1: 0.2 -> lower (0);
     dim0 within [0.5,1): 0.8 -> [0.75..): upper (1); dim1 within [0,0.5): 0.2 lower (0). *)
  Alcotest.(check (array int)) "bits" [| 1; 0; 1; 0 |] bits

let test_zone_of_path_roundtrip () =
  let rng = Rng.create 48 in
  let t = Can_overlay.create ~dims:2 0 in
  for _ = 1 to 100 do
    let p = Point.random rng 2 in
    let bits = Can_overlay.path_of_point t ~depth:10 p in
    let z = Can_overlay.zone_of_path ~dims:2 bits in
    Alcotest.(check bool) "zone of path contains point" true (Zone.contains z p)
  done

let test_members_with_prefix () =
  let t, _ = build ~dims:2 ~n:64 ~seed:49 in
  let all = Can_overlay.members_with_prefix t [||] in
  Alcotest.(check int) "root prefix has everyone" 64 (Array.length all);
  let left = Can_overlay.members_with_prefix t [| 0 |] in
  let right = Can_overlay.members_with_prefix t [| 1 |] in
  Alcotest.(check int) "halves partition the membership" 64
    (Array.length left + Array.length right);
  Array.iter
    (fun id ->
      let n = Can_overlay.node t id in
      Alcotest.(check int) "left members have bit 0" 0 n.Can_overlay.path.(0))
    left

(* [members_with_prefix] hands out one shared snapshot per prefix until
   a join or leave changes that prefix's members; a replaced snapshot
   keeps the contents it was handed out with. *)
let test_prefix_snapshot_sharing () =
  (* the set itself: every change that alters it replaces the snapshot *)
  let module M = Can_overlay.Members in
  let m = M.singleton 5 in
  M.add m 6;
  M.add m 7;
  let s1 = M.newest_first m in
  Alcotest.(check (array int)) "newest first" [| 7; 6; 5 |] s1;
  Alcotest.(check bool) "set snapshot shared" true (s1 == M.newest_first m);
  M.remove m 6;
  let s2 = M.newest_first m in
  Alcotest.(check bool) "fresh set snapshot after a remove" true (s2 != s1);
  Alcotest.(check (array int)) "remove keeps the order" [| 7; 5 |] s2;
  Alcotest.(check (array int)) "replaced set snapshot unchanged" [| 7; 6; 5 |] s1;
  M.remove m 42;
  Alcotest.(check bool) "removing an absent id keeps the snapshot" true (s2 == M.newest_first m);
  M.add m 8;
  Alcotest.(check (array int)) "fresh set snapshot after an add" [| 8; 7; 5 |] (M.newest_first m);
  (* the overlay's prefixes, through joins and leaves *)
  let t, _ = build ~dims:2 ~n:32 ~seed:53 in
  let left () = Can_overlay.members_with_prefix t [| 0 |] in
  let a = left () in
  Alcotest.(check bool) "same array while membership holds" true (a == left ());
  let a_contents = Array.copy a in
  (* the first split is along dimension 0, so x < 0.5 lies under prefix 0 *)
  ignore (Can_overlay.join t 32 [| 0.25; 0.625 |]);
  let b = left () in
  Alcotest.(check bool) "fresh array after a join" true (b != a);
  Alcotest.(check (array int)) "earlier snapshot unchanged by the join" a_contents a;
  Alcotest.(check bool) "the joiner is listed" true (Array.mem 32 b);
  Alcotest.(check bool) "same array again" true (b == left ());
  let b_contents = Array.copy b in
  ignore (Can_overlay.leave t 32);
  let c = left () in
  Alcotest.(check bool) "fresh array after a leave" true (c != b);
  Alcotest.(check (array int)) "earlier snapshot unchanged by the leave" b_contents b;
  Alcotest.(check bool) "the leaver is gone" false (Array.mem 32 c);
  Alcotest.(check bool) "same array after the leave" true (c == left ())

(* The prefix index's order is observable: random selectors [Rng.pick]
   from [members_with_prefix], so the order fixes which member they draw.
   These arrays were captured from the list-backed index (newest-indexed
   first) on a seeded 64-node CAN after joins and leaves, six of them
   backfilling; the array-backed index must return them unchanged. *)
let prefix_order_golden =
  [
    ( "",
      [| 12; 55; 60; 71; 58; 65; 70; 8; 69; 54; 68; 35; 67; 11; 41; 64; 38; 57; 27; 61; 50; 10;
         40; 63; 1; 62; 23; 22; 59; 3; 31; 56; 7; 53; 52; 2; 51; 49; 47; 24; 46; 45; 44; 25;
         43; 42; 30; 39; 37; 15; 36; 14; 34; 13; 32; 29; 9; 28; 26; 20; 6; 19; 18; 4; 16 |] );
    ( "0",
      [| 12; 55; 71; 65; 68; 35; 41; 50; 63; 1; 62; 23; 22; 59; 3; 31; 56; 7; 52; 2; 46; 34;
         13; 29; 9; 28; 20; 6; 19; 4 |] );
    ( "1",
      [| 60; 58; 70; 8; 69; 54; 67; 11; 64; 38; 57; 27; 61; 10; 40; 53; 51; 49; 47; 24; 45; 44;
         25; 43; 42; 30; 39; 37; 15; 36; 14; 32; 26; 18; 16 |] );
    ("00", [| 55; 71; 68; 35; 50; 63; 1; 22; 59; 3; 56; 7; 46; 28; 20; 6; 4 |]);
    ("01", [| 12; 65; 41; 62; 23; 31; 52; 2; 34; 13; 29; 9; 19 |]);
    ("10", [| 60; 58; 40; 45; 44; 25; 43; 42; 30; 37; 15; 36; 14; 32; 26; 18 |]);
    ("11", [| 70; 8; 69; 54; 67; 11; 64; 38; 57; 27; 61; 10; 53; 51; 49; 47; 24; 39; 16 |]);
    ("000", [| 55; 59; 3; 56; 7; 20; 6; 4 |]);
    ("001", [| 71; 68; 35; 50; 63; 1; 22; 46; 28 |]);
    ("010", [| 65; 31; 34; 13; 29; 9; 19 |]);
    ("011", [| 12; 41; 62; 23; 52; 2 |]);
    ("100", [| 60; 40; 44; 25; 43; 37; 15; 26 |]);
    ("101", [| 58; 45; 42; 30; 36; 14; 32; 18 |]);
    ("110", [| 64; 38; 57; 27; 61; 10; 51; 49; 47; 24; 39 |]);
    ("111", [| 70; 8; 69; 54; 67; 11; 53; 16 |]);
    ("0000", [| 59; 3; 20; 6 |]);
    ("0001", [| 55; 56; 7; 4 |]);
    ("0010", [| 71; 68; 35; 50; 22; 46; 28 |]);
    ("0011", [| 63; 1 |]);
    ("0100", [| 34; 13; 19 |]);
    ("0101", [| 65; 31; 29; 9 |]);
    ("0110", [| 12; 41; 52; 2 |]);
    ("0111", [| 62; 23 |]);
    ("1000", [| 60; 40; 44; 25; 43; 26 |]);
    ("1001", [| 37; 15 |]);
    ("1010", [| 42; 30; 36; 14; 32 |]);
    ("1011", [| 58; 45; 18 |]);
    ("1100", [| 57; 27; 61; 10; 49 |]);
    ("1101", [| 64; 38; 51; 47; 24; 39 |]);
    ("1110", [| 67; 11; 16 |]);
    ("1111", [| 70; 8; 69; 54; 53 |]);
    ("00000", [| 59; 3 |]);
    ("00001", [| 20; 6 |]);
    ("00010", [| 56; 7 |]);
    ("00011", [| 55; 4 |]);
    ("00100", [| 71; 68; 35; 22 |]);
    ("00101", [| 50; 46; 28 |]);
    ("00110", [| 63 |]);
    ("00111", [| 1 |]);
    ("01000", [| 19 |]);
    ("01001", [| 34; 13 |]);
    ("01010", [| 9 |]);
    ("01011", [| 65; 31; 29 |]);
    ("01100", [| 12; 41 |]);
    ("01101", [| 52; 2 |]);
    ("01110", [| 62 |]);
    ("01111", [| 23 |]);
    ("10000", [| 60; 43 |]);
    ("10001", [| 40; 44; 25; 26 |]);
    ("10010", [| 37 |]);
    ("10011", [| 15 |]);
    ("10100", [| 42; 30; 32 |]);
    ("10101", [| 36; 14 |]);
    ("10110", [| 58; 45 |]);
    ("10111", [| 18 |]);
    ("11000", [| 57; 10 |]);
    ("11001", [| 27; 61; 49 |]);
    ("11010", [| 64; 38; 51 |]);
    ("11011", [| 47; 24; 39 |]);
    ("11100", [| 67; 11 |]);
    ("11101", [| 16 |]);
    ("11110", [| 70; 8 |]);
    ("11111", [| 69; 54; 53 |]);
    ("000000", [| 3 |]);
    ("000001", [| 59 |]);
    ("000010", [| 20 |]);
    ("000011", [| 6 |]);
    ("000100", [| 56 |]);
    ("000101", [| 7 |]);
    ("000110", [| 55 |]);
    ("000111", [| 4 |]);
    ("001000", [| 68; 35 |]);
    ("001001", [| 71; 22 |]);
    ("001010", [| 28 |]);
    ("001011", [| 50; 46 |]);
    ("010010", [| 34 |]);
    ("010011", [| 13 |]);
    ("010110", [| 29 |]);
    ("010111", [| 65; 31 |]);
    ("011000", [| 12 |]);
    ("011001", [| 41 |]);
    ("011010", [| 2 |]);
    ("011011", [| 52 |]);
    ("100000", [| 60 |]);
    ("100001", [| 43 |]);
    ("100010", [| 40; 26 |]);
    ("100011", [| 44; 25 |]);
    ("101000", [| 42; 30 |]);
    ("101001", [| 32 |]);
    ("101010", [| 14 |]);
    ("101011", [| 36 |]);
    ("101100", [| 45 |]);
    ("101101", [| 58 |]);
    ("110000", [| 10 |]);
    ("110001", [| 57 |]);
    ("110010", [| 27 |]);
    ("110011", [| 61; 49 |]);
    ("110100", [| 51 |]);
    ("110101", [| 64; 38 |]);
    ("110110", [| 47; 24 |]);
    ("110111", [| 39 |]);
    ("111000", [| 67 |]);
    ("111001", [| 11 |]);
    ("111100", [| 70 |]);
    ("111101", [| 8 |]);
    ("111110", [| 69; 54 |]);
    ("111111", [| 53 |]);
    ("0010000", [| 68 |]);
    ("0010001", [| 35 |]);
    ("0010010", [| 71 |]);
    ("0010011", [| 22 |]);
    ("0010110", [| 50 |]);
    ("0010111", [| 46 |]);
    ("0101110", [| 65 |]);
    ("0101111", [| 31 |]);
    ("1000100", [| 26 |]);
    ("1000101", [| 40 |]);
    ("1000110", [| 25 |]);
    ("1000111", [| 44 |]);
    ("1010000", [| 42 |]);
    ("1010001", [| 30 |]);
    ("1100110", [| 61 |]);
    ("1100111", [| 49 |]);
    ("1101010", [| 38 |]);
    ("1101011", [| 64 |]);
    ("1101100", [| 24 |]);
    ("1101101", [| 47 |]);
    ("1111100", [| 54 |]);
    ("1111101", [| 69 |]);
  ]

let test_prefix_order_pinned () =
  let rng = Rng.create 64 in
  let t = Can_overlay.create ~dims:2 0 in
  for id = 1 to 63 do
    ignore (Can_overlay.join t id (Point.random rng 2))
  done;
  let backfills = ref 0 in
  let leave id =
    match (Can_overlay.leave t id).Can_overlay.backfilled with
    | Some _ -> incr backfills
    | None -> ()
  in
  List.iter leave [ 5; 17; 33; 48 ];
  for id = 64 to 71 do
    ignore (Can_overlay.join t id (Point.random rng 2))
  done;
  List.iter leave [ 0; 21; 66 ];
  Alcotest.(check int) "backfilling leaves in the sequence" 6 !backfills;
  let bits_of s = Array.init (String.length s) (fun i -> Char.code s.[i] - Char.code '0') in
  List.iter
    (fun (prefix, expect) ->
      Alcotest.(check (array int)) ("members of prefix \"" ^ prefix ^ "\"") expect
        (Can_overlay.members_with_prefix t (bits_of prefix)))
    prefix_order_golden;
  (* the golden list covers every prefix of every member's path *)
  Array.iter
    (fun id ->
      let path = (Can_overlay.node t id).Can_overlay.path in
      for len = 0 to Array.length path do
        let key =
          String.concat "" (List.map string_of_int (Array.to_list (Array.sub path 0 len)))
        in
        Alcotest.(check bool) ("prefix \"" ^ key ^ "\" pinned") true
          (List.mem_assoc key prefix_order_golden)
      done)
    (Can_overlay.node_ids t)

let test_leave_simple () =
  let t = Can_overlay.create ~dims:2 0 in
  ignore (Can_overlay.join t 1 [| 0.75; 0.5 |]);
  ignore (Can_overlay.leave t 1);
  Alcotest.(check int) "size" 1 (Can_overlay.size t);
  Alcotest.(check bool) "survivor owns everything" true
    (Zone.equal (Can_overlay.node t 0).Can_overlay.zone (Zone.full 2));
  check_ok (Can_overlay.check_invariants t)

let test_leave_many () =
  let t, rng = build ~dims:2 ~n:80 ~seed:50 in
  let ids = Array.to_list (Can_overlay.node_ids t) in
  let to_remove = Prelude.Rng.sample rng 40 (Array.of_list ids) in
  Array.iter
    (fun id ->
      ignore (Can_overlay.leave t id);
      Alcotest.(check bool) "membership dropped" false (Can_overlay.mem t id))
    to_remove;
  Alcotest.(check int) "size" 40 (Can_overlay.size t);
  check_ok (Can_overlay.check_invariants t)

let test_leave_everyone () =
  let t, _ = build ~dims:2 ~n:20 ~seed:51 in
  let ids = Can_overlay.node_ids t in
  Array.iteri
    (fun i id ->
      if i < Array.length ids - 1 then begin
        ignore (Can_overlay.leave t id);
        check_ok (Can_overlay.check_invariants t)
      end)
    ids;
  Alcotest.(check int) "one left" 1 (Can_overlay.size t)

let test_depth_mark () =
  Alcotest.(check int) "a lone member's path is empty" 0
    (Can_overlay.depth_mark (Can_overlay.create ~dims:2 0));
  let t, _ = build ~dims:2 ~n:40 ~seed:53 in
  let deepest () =
    Array.fold_left
      (fun m id -> max m (Array.length (Can_overlay.node t id).Can_overlay.path))
      0 (Can_overlay.node_ids t)
  in
  let mark = Can_overlay.depth_mark t in
  Alcotest.(check int) "joins raise it to the deepest path" (deepest ()) mark;
  Array.iteri
    (fun i id -> if i >= 2 then ignore (Can_overlay.leave t id))
    (Can_overlay.node_ids t);
  Alcotest.(check int) "leaves keep it" mark (Can_overlay.depth_mark t);
  Alcotest.(check bool) "the overlay is shallower than the mark" true (deepest () < mark);
  check_ok (Can_overlay.check_invariants t)

let test_churn_interleaved () =
  let rng = Rng.create 52 in
  let t = Can_overlay.create ~dims:2 0 in
  let next_id = ref 1 in
  let members = ref [ 0 ] in
  for _ = 1 to 300 do
    if List.length !members < 3 || Rng.chance rng 0.6 then begin
      let id = !next_id in
      incr next_id;
      ignore (Can_overlay.join t id (Point.random rng 2));
      members := id :: !members
    end
    else begin
      let arr = Array.of_list !members in
      let victim = Rng.pick rng arr in
      ignore (Can_overlay.leave t victim);
      members := List.filter (fun m -> m <> victim) !members
    end
  done;
  Alcotest.(check int) "tracked membership" (List.length !members) (Can_overlay.size t);
  check_ok (Can_overlay.check_invariants t)

let not_found f = match f () with _ -> false | exception Not_found -> true

(* [node], [mem] and the copies' readers read dense id-indexed arrays:
   every id outside the membership, in or beyond the arrays, must read
   as absent. *)
let test_node_mem_edges () =
  let t, rng = build ~dims:2 ~n:16 ~seed:9 in
  let absent id =
    Alcotest.(check bool) (Printf.sprintf "mem %d" id) false (Can_overlay.mem t id);
    Alcotest.(check bool) (Printf.sprintf "node %d raises" id) true
      (not_found (fun () -> Can_overlay.node t id));
    (* the copies' readers raise too, reading nothing outside the arrays *)
    let box = Zone.full 2 and p = [| 0.5; 0.5 |] in
    Alcotest.(check bool) (Printf.sprintf "copy readers of %d raise" id) true
      (not_found (fun () -> Can_overlay.contains t id p)
      && not_found (fun () -> Can_overlay.zone_meets t id box)
      && not_found (fun () -> Can_overlay.path_key_of t id)
      && not_found (fun () -> Can_overlay.path_length t id))
  in
  absent (-1);
  absent min_int;
  absent 16;
  absent 1_000_000;
  absent max_int;
  Alcotest.check_raises "negative join" (Invalid_argument "Can.join: negative node id") (fun () ->
      ignore (Can_overlay.join t (-3) (Point.random rng 2)));
  Alcotest.check_raises "negative create" (Invalid_argument "Can.create: negative node id")
    (fun () -> ignore (Can_overlay.create ~dims:2 (-1)));
  (* a departed id reads as absent, and a rejoin installs the new record *)
  ignore (Can_overlay.leave t 5);
  absent 5;
  let p = [| 0.3; 0.7 |] in
  ignore (Can_overlay.join t 5 p);
  Alcotest.(check bool) "rejoined mem" true (Can_overlay.mem t 5);
  let n = Can_overlay.node t 5 in
  Alcotest.(check int) "rejoined record" 5 n.Can_overlay.id;
  Alcotest.(check bool) "rejoined zone holds the join point" true (Zone.contains n.Can_overlay.zone p);
  (* ids far beyond the initial array grow it *)
  ignore (Can_overlay.join t 5000 [| 0.9; 0.1 |]);
  Alcotest.(check bool) "far id mem" true (Can_overlay.mem t 5000);
  absent 4999;
  absent 5001;
  Array.iter
    (fun id -> Alcotest.(check int) "node id" id (Can_overlay.node t id).Can_overlay.id)
    (Can_overlay.node_ids t);
  check_ok (Can_overlay.check_invariants t)

(* The region-depth descent against the root descent.  Prefixes are cut
   from a member's path (members below them), extended past a leaf's path
   (no members: a leaf owns their whole zone) or drawn at random; points
   lie in the prefix's zone, on its low and high faces included, where a
   point's own path may leave the prefix. *)
let qcheck_owner_within_matches_owner_of =
  QCheck.Test.make ~name:"owner_within = owner_of on points of the prefix's zone" ~count:100
    QCheck.(triple (int_range 0 10_000) (int_range 1 3) (int_range 1 80))
    (fun (seed, dims, n) ->
      let t, rng = build ~dims ~n ~seed in
      let next = ref n in
      for _ = 1 to Rng.int rng n do
        let ids = Can_overlay.node_ids t in
        if Rng.chance rng 0.5 && Array.length ids > 1 then
          ignore (Can_overlay.leave t (Rng.pick rng ids))
        else begin
          ignore (Can_overlay.join t !next (Point.random rng dims));
          incr next
        end
      done;
      let bits k = Array.init k (fun _ -> Rng.int rng 2) in
      let prefix () =
        let path = (Can_overlay.node t (Rng.pick rng (Can_overlay.node_ids t))).Can_overlay.path in
        match Rng.int rng 3 with
        | 0 -> Array.sub path 0 (Rng.int rng (Array.length path + 1))
        | 1 -> Array.append path (bits (1 + Rng.int rng 3))
        | _ -> bits (Rng.int rng 12)
      in
      let coord () = match Rng.int rng 4 with 0 -> 0.0 | 1 -> 1.0 | _ -> Rng.float rng 1.0 in
      List.for_all
        (fun _ ->
          let prefix = prefix () in
          let zone = Can_overlay.zone_of_path ~dims prefix in
          let point = Zone.subzone zone (Array.init dims (fun _ -> coord ())) in
          Can_overlay.owner_within t ~prefix point = Can_overlay.owner_of t point)
        (List.init 40 Fun.id))

(* Generic hop-bound and churn-invariant properties live in the shared
   backend-conformance suite (test_conformance.ml); the remaining route
   test here asserts the CAN-specific neighbor-link structure. *)
let suite =
  [
    Alcotest.test_case "single node" `Quick test_single_node;
    Alcotest.test_case "first split" `Quick test_first_split;
    Alcotest.test_case "many joins keep invariants" `Quick test_join_invariants_many;
    Alcotest.test_case "3-d joins keep invariants" `Quick test_join_invariants_3d;
    Alcotest.test_case "duplicate join rejected" `Quick test_join_rejects_duplicate;
    Alcotest.test_case "owner_of agrees with zones" `Quick test_owner_of_agrees_with_zones;
    Alcotest.test_case "routing reaches the owner" `Quick test_route_reaches_owner;
    Alcotest.test_case "routing from owner" `Quick test_route_from_owner_is_trivial;
    Alcotest.test_case "path of point" `Quick test_path_of_point;
    Alcotest.test_case "zone of path contains point" `Quick test_zone_of_path_roundtrip;
    Alcotest.test_case "prefix membership" `Quick test_members_with_prefix;
    Alcotest.test_case "prefix index order pinned" `Quick test_prefix_order_pinned;
    Alcotest.test_case "prefix snapshots shared until membership changes" `Quick
      test_prefix_snapshot_sharing;
    Alcotest.test_case "leave (pair)" `Quick test_leave_simple;
    Alcotest.test_case "leave (many)" `Quick test_leave_many;
    Alcotest.test_case "leave everyone" `Quick test_leave_everyone;
    Alcotest.test_case "interleaved churn" `Slow test_churn_interleaved;
    Alcotest.test_case "node and mem outside the membership" `Quick test_node_mem_edges;
    QCheck_alcotest.to_alcotest qcheck_owner_within_matches_owner_of;
    Alcotest.test_case "depth mark: joins raise it, leaves keep it" `Quick test_depth_mark;
  ]
