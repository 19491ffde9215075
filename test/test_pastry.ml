(* Tests for the Pastry mesh. *)

module Mesh = Pastry.Mesh
module Rng = Prelude.Rng

let random_selector rng ~node:_ ~prefix:_ ~candidates = Some (Rng.pick rng candidates)

let build ?(n = 100) ~seed () =
  let rng = Rng.create seed in
  let t = Mesh.create () in
  for id = 0 to n - 1 do
    Mesh.add_node t ~rng id
  done;
  let sel = Rng.create (seed + 1) in
  Mesh.build_tables t ~selector:(random_selector sel);
  (t, Rng.create (seed + 2))

let check_ok = function Ok () -> () | Error e -> Alcotest.fail e

let test_digits () =
  let t = Mesh.create ~digit_bits:2 ~num_digits:4 () in
  let rng = Rng.create 1 in
  Mesh.add_node t ~rng 0;
  let pid = Mesh.pastry_id t 0 in
  let reconstructed = ref 0 in
  for r = 0 to 3 do
    reconstructed := (!reconstructed lsl 2) lor Mesh.digit t pid r
  done;
  Alcotest.(check int) "digits reconstruct the id" pid !reconstructed

let test_shared_prefix () =
  let t = Mesh.create ~digit_bits:2 ~num_digits:4 () in
  Alcotest.(check int) "identical" 4 (Mesh.shared_prefix_len t 0b10110100 0b10110100);
  Alcotest.(check int) "first digit differs" 0 (Mesh.shared_prefix_len t 0b10110100 0b00110100);
  Alcotest.(check int) "two digits shared" 2 (Mesh.shared_prefix_len t 0b10110100 0b10111111)

let test_members_with_prefix_partition () =
  let t, _ = build ~n:80 ~seed:2 () in
  let all = Mesh.members_with_prefix t [||] in
  Alcotest.(check int) "root prefix" 80 (Array.length all);
  let total = ref 0 in
  for c = 0 to 3 do
    total := !total + Array.length (Mesh.members_with_prefix t [| c |])
  done;
  Alcotest.(check int) "first-digit classes partition" 80 !total

let test_owner_is_numerically_closest () =
  let t, rng = build ~n:60 ~seed:3 () in
  let space = 1 lsl (Mesh.digit_bits t * Mesh.num_digits t) in
  for _ = 1 to 100 do
    let key = Rng.int rng space in
    let owner = Mesh.owner_of t key in
    let dist pid =
      let d = abs (pid - key) in
      min d (space - d)
    in
    let od = dist (Mesh.pastry_id t owner) in
    Array.iter
      (fun id ->
        Alcotest.(check bool) "owner at least as close" true
          (dist (Mesh.pastry_id t id) >= od))
      (Mesh.node_ids t)
  done

let test_invariants () =
  let t, _ = build ~n:120 ~seed:4 () in
  check_ok (Mesh.check_invariants t)

let test_leaves () =
  let t, _ = build ~n:50 ~seed:7 () in
  Array.iter
    (fun id ->
      let l = Mesh.leaves t id in
      Alcotest.(check bool) "leaf count" true (Array.length l >= 1 && Array.length l <= 8);
      Array.iter
        (fun leaf -> Alcotest.(check bool) "leaf is member, not self" true (Mesh.mem t leaf && leaf <> id))
        l)
    (Mesh.node_ids t)

let test_remove_node () =
  let t, rng = build ~n:80 ~seed:8 () in
  let victims = Rng.sample rng 30 (Mesh.node_ids t) in
  Array.iter (fun id -> Mesh.remove_node t id) victims;
  Alcotest.(check int) "size" 50 (Mesh.size t);
  check_ok (Mesh.check_invariants t);
  (* rebuild and verify routing is intact *)
  let sel = Rng.create 9 in
  Mesh.build_tables t ~selector:(random_selector sel);
  let ids = Mesh.node_ids t in
  let space = 1 lsl (Mesh.digit_bits t * Mesh.num_digits t) in
  for _ = 1 to 50 do
    let key = Rng.int rng space in
    match Mesh.route t ~src:(Rng.pick rng ids) ~key with
    | None -> Alcotest.fail "routing failed after removals"
    | Some hops ->
      Alcotest.(check int) "owner reached" (Mesh.owner_of t key)
        (List.nth hops (List.length hops - 1))
  done

(* [owner_of] against a scan of every member: the smallest (circular
   distance, Pastry id).  A 16-id space makes equal distances on both
   sides of a key common, and keys outside [0, 16) wrap around. *)
let qcheck_owner_matches_scan =
  QCheck.Test.make ~name:"owner_of = closest-id scan (ties, wrap-around)" ~count:300
    QCheck.(pair (int_range 1 12) small_nat)
    (fun (n, seed) ->
      let t = Mesh.create ~digit_bits:1 ~num_digits:4 () in
      let rng = Rng.create seed in
      for id = 0 to n - 1 do
        Mesh.add_node t ~rng id
      done;
      let space = 16 in
      let scan key =
        let k = ((key mod space) + space) mod space in
        let rank id =
          let pid = Mesh.pastry_id t id in
          let d = abs (pid - k) in
          (min d (space - d), pid)
        in
        Array.fold_left
          (fun best id -> if rank id < rank best then id else best)
          0 (Mesh.node_ids t)
      in
      List.for_all
        (fun key -> Mesh.owner_of t key = scan key)
        (List.init (3 * space) (fun i -> i - space)))

(* Generic routing/owner/log-hop properties live in the shared
   backend-conformance suite (test_conformance.ml). *)
let suite =
  [
    Alcotest.test_case "digit extraction" `Quick test_digits;
    Alcotest.test_case "shared prefix length" `Quick test_shared_prefix;
    Alcotest.test_case "prefix membership partitions" `Quick test_members_with_prefix_partition;
    Alcotest.test_case "owner is closest id" `Quick test_owner_is_numerically_closest;
    Alcotest.test_case "table invariants" `Quick test_invariants;
    Alcotest.test_case "leaf sets" `Quick test_leaves;
    Alcotest.test_case "node removal" `Quick test_remove_node;
    QCheck_alcotest.to_alcotest qcheck_owner_matches_scan;
  ]
