module Rng = Prelude.Rng

type t = {
  dims : int;
  landmark_nodes : int array;
  landmark_coords : float array array;
}

let estimate a b =
  if Array.length a <> Array.length b then invalid_arg "Coordinates.estimate: dimension mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let relative_error ~actual ~estimated =
  if actual > 0.0 then Float.abs (estimated -. actual) /. actual
  else if estimated = 0.0 then 0.0
  else infinity

(* One gradient step of the squared-relative-error objective
     E(x) = sum_j ((|x - y_j| - m_j) / m_j)^2
   for a single movable point [x] against fixed anchors [y_j] with
   measurements [m_j].  The step length is clamped to [max_step] so short
   measured distances (large 1/m^2 factors) cannot make the fit
   diverge. *)
let descend ~rate ~max_step x anchors measured =
  let dims = Array.length x in
  let grad = Array.make dims 0.0 in
  Array.iteri
    (fun j y ->
      let m = measured.(j) in
      if m > 0.0 then begin
        let est = estimate x y in
        if est > 1e-9 then begin
          let coeff = 2.0 *. (est -. m) /. (m *. m) /. est in
          for i = 0 to dims - 1 do
            grad.(i) <- grad.(i) +. (coeff *. (x.(i) -. y.(i)))
          done
        end
      end)
    anchors;
  let norm = sqrt (Array.fold_left (fun acc g -> acc +. (g *. g)) 0.0 grad) in
  let step = rate *. norm in
  let scale = if step > max_step && norm > 0.0 then max_step /. norm else rate in
  for i = 0 to dims - 1 do
    x.(i) <- x.(i) -. (scale *. grad.(i))
  done

(* Coordinate-space dimensions and landmark-fit descent rounds. *)
let dims = 5
let iterations = 2000

let embed_landmarks rng prober landmark_nodes =
  let l = Array.length landmark_nodes in
  if l < 2 then invalid_arg "Coordinates.embed_landmarks: need at least two landmarks";
  let rtt a b =
    if a = b then 0.0
    else match Engine.Probe.rtt prober ~src:a ~dst:b with Ok d -> d | Error _ -> infinity
  in
  let measured = Array.map (fun a -> Array.map (rtt a) landmark_nodes) landmark_nodes in
  (* Initialise randomly at the scale of the measured distances. *)
  let scale =
    Array.fold_left (fun acc row -> Array.fold_left Float.max acc row) 1.0 measured
  in
  let coords =
    Array.init l (fun _ -> Array.init dims (fun _ -> Rng.float rng scale))
  in
  (* Coordinate descent: move each landmark against the others in turn. *)
  let rate = 0.05 *. scale in
  let max_step = 0.1 *. scale in
  for it = 1 to iterations do
    let rate = rate /. (1.0 +. (float_of_int it /. 200.0)) in
    for i = 0 to l - 1 do
      let anchors = Array.init (l - 1) (fun j -> coords.(if j < i then j else j + 1)) in
      let m = Array.init (l - 1) (fun j -> measured.(i).(if j < i then j else j + 1)) in
      descend ~rate ~max_step coords.(i) anchors m
    done
  done;
  { dims; landmark_nodes = Array.copy landmark_nodes; landmark_coords = coords }

let position ?(iterations = 500) t rng ~measured =
  if Array.length measured <> Array.length t.landmark_nodes then
    invalid_arg "Coordinates.position: wrong measurement count";
  let scale = Array.fold_left Float.max 1.0 measured in
  let x = Array.init t.dims (fun _ -> Rng.float rng scale) in
  let rate = 0.05 *. scale in
  let max_step = 0.1 *. scale in
  for it = 1 to iterations do
    let rate = rate /. (1.0 +. (float_of_int it /. 100.0)) in
    descend ~rate ~max_step x t.landmark_coords measured
  done;
  x
