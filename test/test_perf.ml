(* Raw-speed pass regressions: the CSR graph layout against an
   edge-list model, the workspace Dijkstra against a naive reference,
   and experiment-level byte-identity against checked-in metrics-JSON
   fixtures captured before the layout refactor. *)

module Graph = Topology.Graph
module Dijkstra = Topology.Dijkstra
module Waxman = Topology.Waxman
module Rng = Prelude.Rng
module Metrics = Engine.Metrics
module Json = Prelude.Json

(* ---- CSR vs edge-list model ---- *)

(* Random connected multigraph-free edge list, returned alongside the
   graph so properties can compare against the raw model. *)
let random_edges seed n extra =
  let rng = Rng.create seed in
  let edges = ref [] in
  for i = 1 to n - 1 do
    edges := (Rng.int rng i, i, Rng.float_in rng 1.0 20.0) :: !edges
  done;
  let seen = Hashtbl.create 16 in
  List.iter (fun (u, v, _) -> Hashtbl.replace seen (min u v, max u v) ()) !edges;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < extra * 10 do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Hashtbl.mem seen (min u v, max u v)) then begin
      Hashtbl.replace seen (min u v, max u v) ();
      edges := (u, v, Rng.float_in rng 1.0 20.0) :: !edges;
      incr added
    end
  done;
  !edges

let model_weight edges u v =
  List.find_map
    (fun (a, b, w) -> if (a = u && b = v) || (a = v && b = u) then Some w else None)
    edges

let qcheck_csr_weight_matches_model =
  QCheck.Test.make ~name:"CSR weight agrees with the edge-list model" ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 2 32))
    (fun (seed, n) ->
      let edges = random_edges seed n n in
      let g = Graph.make n edges in
      (* Every listed edge is found, in both directions. *)
      List.for_all
        (fun (u, v, w) -> Graph.weight g u v = Some w && Graph.weight g v u = Some w)
        edges
      (* And a sample of pairs agrees with the model either way. *)
      && begin
           let rng = Rng.create (seed + 1) in
           let ok = ref true in
           for _ = 1 to 50 do
             let u = Rng.int rng n and v = Rng.int rng n in
             if u <> v && Graph.weight g u v <> model_weight edges u v then ok := false
           done;
           !ok
         end)

let qcheck_csr_neighbors_sorted =
  QCheck.Test.make ~name:"CSR neighbor segments are strictly ascending" ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 2 32))
    (fun (seed, n) ->
      let g = Graph.make n (random_edges seed n (2 * n)) in
      let ok = ref true in
      for u = 0 to n - 1 do
        let ns = Graph.neighbors g u in
        for i = 1 to Array.length ns - 1 do
          if fst ns.(i - 1) >= fst ns.(i) then ok := false
        done
      done;
      !ok)

let qcheck_csr_edges_roundtrip =
  QCheck.Test.make ~name:"CSR edges round-trip the input edge set" ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 2 32))
    (fun (seed, n) ->
      let edges = random_edges seed n n in
      let g = Graph.make n edges in
      let norm (u, v, w) = (min u v, max u v, w) in
      List.sort compare (List.map norm (Graph.edges g))
      = List.sort compare (List.map norm edges))

(* ---- Dijkstra over CSR vs a naive reference ---- *)

(* O(n^2) textbook Dijkstra: no heap, no shared scratch.  Settling order
   can differ from the CSR implementation, but every final distance is
   the same minimum over the same [dist.(u) +. w] relaxation candidates,
   so the arrays must match bitwise. *)
let reference_distances g src =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let settled = Array.make n false in
  dist.(src) <- 0.0;
  for _ = 1 to n do
    let u = ref (-1) in
    for i = 0 to n - 1 do
      if (not settled.(i)) && (!u < 0 || dist.(i) < dist.(!u)) then u := i
    done;
    if !u >= 0 && dist.(!u) < infinity then begin
      settled.(!u) <- true;
      Array.iter
        (fun (v, w) ->
          let nd = dist.(!u) +. w in
          if nd < dist.(v) then dist.(v) <- nd)
        (Graph.neighbors g !u)
    end
  done;
  dist

let qcheck_dijkstra_matches_reference_waxman =
  QCheck.Test.make ~name:"Dijkstra over CSR = naive reference on Waxman graphs" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g =
        Waxman.generate (Rng.create seed)
          { Waxman.nodes = 60; alpha = 0.2; beta = 0.1; latency_per_unit = 100.0; min_latency = 0.5 }
      in
      let src = seed mod 60 in
      Dijkstra.distances g src = reference_distances g src)

let qcheck_workspace_reuse_is_pure =
  QCheck.Test.make ~name:"distances_into with a reused workspace = fresh distances" ~count:50
    QCheck.(pair (int_range 0 10_000) (int_range 2 32))
    (fun (seed, n) ->
      let ws = Dijkstra.Workspace.create 1 in
      (* Two different graphs through one workspace, interleaved sources:
         reuse must not leak state between runs. *)
      let g1 = Graph.make n (random_edges seed n n) in
      let g2 = Graph.make (n + 3) (random_edges (seed + 1) (n + 3) n) in
      let ok = ref true in
      let buf = Array.make (n + 3) nan in
      for src = 0 to 2 do
        Dijkstra.distances_into ws g1 (src mod n) buf;
        if Array.sub buf 0 n <> Dijkstra.distances g1 (src mod n) then ok := false;
        Dijkstra.distances_into ws g2 src buf;
        if Array.sub buf 0 (n + 3) <> Dijkstra.distances g2 src then ok := false
      done;
      !ok)

(* ---- experiment-level byte-identity vs pre-refactor fixtures ---- *)

(* The fixtures are `bench --only NAME --scale 16 --json` dumps captured
   before the CSR/flat-oracle/bucket-store refactor.  The raw-speed pass
   is gated on not changing a single metrics byte, so each experiment is
   replayed through the registry and compared byte-for-byte. *)
let experiment_json name =
  let run = Workload.Run.create ~scale:16 in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  (match Workload.Registry.find name with
  | Some e -> Workload.Registry.print e run ppf
  | None -> Alcotest.fail ("unknown experiment " ^ name));
  Format.pp_print_flush ppf ();
  Json.to_string (Metrics.to_json run.Workload.Run.metrics)

let read_fixture name =
  let path = Filename.concat "fixtures" ("identity_" ^ name ^ ".json") in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_fixture_identity name () =
  let expected = read_fixture name in
  let got = experiment_json name in
  (* bench/main.exe terminates the dump with a newline. *)
  Alcotest.(check string) (name ^ " metrics JSON is byte-identical") expected (got ^ "\n")

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_csr_weight_matches_model;
      qcheck_csr_neighbors_sorted;
      qcheck_csr_edges_roundtrip;
      qcheck_dijkstra_matches_reference_waxman;
      qcheck_workspace_reuse_is_pure;
    ]
  @ List.map
      (fun name ->
        Alcotest.test_case ("fixture identity: " ^ name) `Slow (test_fixture_identity name))
      [ "storm"; "churn"; "cache"; "repair"; "mcast"; "degree" ]
