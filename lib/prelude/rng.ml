type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let splitmix64 x =
  let z = Int64.add x golden_gamma in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* SplitMix64 expands the seed into the 256-bit Xoshiro state (and so
   derives independent sub-generators): its k-th output is the one from
   state [seed + k * golden_gamma]. *)
let of_seed64 seed =
  let out k = splitmix64 (Int64.add seed (Int64.mul (Int64.of_int k) golden_gamma)) in
  { s0 = out 0; s1 = out 1; s2 = out 2; s3 = out 3 }

let create seed = of_seed64 (Int64.of_int seed)

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tt = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tt;
  t.s3 <- rotl t.s3 45;
  result

let split t = of_seed64 (bits64 t)

(* Non-negative 62-bit value, safe to store in a native OCaml int. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (max62 mod bound) in
  let rec draw () =
    let v = bits62 t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits mapped to [0,1), scaled. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v /. 9007199254740992.0 *. bound

let float_in t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p = float t 1.0 < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let sample t k arr =
  let n = Array.length arr in
  if k > n then invalid_arg "Rng.sample: k exceeds population";
  if k < 0 then invalid_arg "Rng.sample: negative k";
  (* Partial Fisher-Yates on a copy of the index space. *)
  let idx = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.init k (fun i -> arr.(idx.(i)))

let exponential t rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. float t 1.0 in
  -.log u /. rate
