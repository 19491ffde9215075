type curve = Hilbert_curve | Z_curve

type scheme = {
  max_latency : float;
  bits : int;
  index_dims : int;
  zone_bits : int;
  curve : curve;
}

let default_scheme ?(curve = Hilbert_curve) ~max_latency () =
  if max_latency <= 0.0 then invalid_arg "Number.default_scheme: max_latency must be positive";
  { max_latency; bits = 8; index_dims = 3; zone_bits = 8; curve }

let calibrate_max_latency oracle landmark_nodes =
  let worst = ref 0.0 in
  Array.iter
    (fun a ->
      Array.iter
        (fun b -> if a <> b then worst := Float.max !worst (Topology.Oracle.dist oracle a b))
        landmark_nodes)
    landmark_nodes;
  if !worst <= 0.0 then 1.0 else 1.5 *. !worst

let cell_count s = 1 lsl (s.bits * s.index_dims)

let clamp01 v = if v < 0.0 then 0.0 else if v >= 1.0 then Float.pred 1.0 else v

let normalize s vec =
  let d = min s.index_dims (Array.length vec) in
  if d < 1 then invalid_arg "Number.normalize: empty vector";
  Array.init d (fun i -> clamp01 (vec.(i) /. s.max_latency))

let index_of_point s ~bits p =
  match s.curve with
  | Hilbert_curve -> Geometry.Hilbert.index_of_point ~bits p
  | Z_curve -> Geometry.Zcurve.index_of_point ~bits p

let point_of_index s ~bits ~dims idx =
  match s.curve with
  | Hilbert_curve -> Geometry.Hilbert.point_of_index ~bits ~dims idx
  | Z_curve -> Geometry.Zcurve.point_of_index ~bits ~dims idx

let number s vec = index_of_point s ~bits:s.bits (normalize s vec)

let to_unit s n =
  if n < 0 || n >= cell_count s then invalid_arg "Number.to_unit: landmark number out of range";
  float_of_int n /. float_of_int (cell_count s)

let position_of_number s zone n =
  let dz = Geometry.Zone.dims zone in
  (* Landmark number -> scalar in [0,1) -> cell along the curve of the
     region's dimensionality -> affine position inside the region. *)
  let u = to_unit s n in
  let zone_cells = 1 lsl (dz * s.zone_bits) in
  let cell = int_of_float (u *. float_of_int zone_cells) in
  let cell = if cell >= zone_cells then zone_cells - 1 else cell in
  let unit_pos = point_of_index s ~bits:s.zone_bits ~dims:dz cell in
  Geometry.Zone.subzone zone unit_pos

let position_in_zone s zone vec = position_of_number s zone (number s vec)
