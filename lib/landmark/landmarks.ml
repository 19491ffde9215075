type t = { nodes : int array }

let choose rng oracle l =
  let n = Topology.Oracle.node_count oracle in
  if l < 1 || l > n then invalid_arg "Landmarks.choose: bad landmark count";
  let all = Array.init n (fun i -> i) in
  { nodes = Prelude.Rng.sample rng l all }

let count t = Array.length t.nodes
let nodes t = Array.copy t.nodes

let vector_via t prober node =
  let batch = Engine.Probe.run_batch prober ~src:node ~dsts:t.nodes in
  Array.map
    (function Ok rtt -> rtt | Error _ -> Float.infinity)
    batch.Engine.Probe.results

let vector_memo t prober =
  let vectors = Hashtbl.create 256 in
  fun node ->
    match Hashtbl.find_opt vectors node with
    | Some v -> v
    | None ->
      let v = vector_via t prober node in
      Hashtbl.replace vectors node v;
      v

let ordering vec =
  let idx = Array.init (Array.length vec) (fun i -> i) in
  Array.sort (fun a b -> compare (vec.(a), a) (vec.(b), b)) idx;
  idx

let factorial k =
  let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
  go 1 k

let ordering_bin ?(k = 4) vec =
  if k < 1 then invalid_arg "Landmarks.ordering_bin: k must be >= 1";
  if Array.length vec < k then invalid_arg "Landmarks.ordering_bin: vector shorter than k";
  let order = ordering (Array.sub vec 0 k) in
  (* Lehmer code: for each position, count later entries smaller than it. *)
  let code = ref 0 in
  for i = 0 to k - 1 do
    let smaller_after = ref 0 in
    for j = i + 1 to k - 1 do
      if order.(j) < order.(i) then incr smaller_after
    done;
    code := (!code * (k - i)) + !smaller_after
  done;
  !code

let ordering_bin_count ?(k = 4) () = factorial k

let vector_dist a b =
  if Array.length a <> Array.length b then invalid_arg "Landmarks.vector_dist: length mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

(* The sum runs in [vector_dist]'s order.  It may stop once the partial
   sum [acc] has [sqrt acc > d]: the terms are non-negative or NaN, so
   the full sum is at least [acc] (rounding is monotone) or NaN, and
   either way [vector_dist a b <= d] is false.  [d *. d] only screens
   for that test, which decides. *)
let within a b d =
  if Array.length a <> Array.length b then invalid_arg "Landmarks.vector_dist: length mismatch";
  let dd = d *. d and n = Array.length a in
  let acc = ref 0.0 and i = ref 0 in
  while !i < n && not (!acc > dd && sqrt !acc > d) do
    let x = a.(!i) -. b.(!i) in
    acc := !acc +. (x *. x);
    incr i
  done;
  !i = n && sqrt !acc <= d
