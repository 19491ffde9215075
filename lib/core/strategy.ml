type t =
  | Random_pick
  | Hybrid of { rtts : int; lookup_results : int; lookup_ttl : int }
  | Load_aware of { rtts : int; lookup_results : int; lookup_ttl : int; load_weight : float }
  | Optimal

(* A lookup that returns nothing, or a negative TTL, would silently turn
   every slot into a blind random pick. *)
let check_lookup name ~lookup_results ~lookup_ttl =
  if lookup_results < 1 then invalid_arg (name ^ ": lookup_results must be >= 1");
  if lookup_ttl < 0 then invalid_arg (name ^ ": lookup_ttl must be >= 0")

let hybrid ?lookup_results ?(lookup_ttl = 2) ~rtts () =
  if rtts < 1 then invalid_arg "Strategy.hybrid: rtts must be >= 1";
  let lookup_results = match lookup_results with Some r -> r | None -> max 16 rtts in
  check_lookup "Strategy.hybrid" ~lookup_results ~lookup_ttl;
  Hybrid { rtts; lookup_results; lookup_ttl }

let load_aware ?lookup_results ?(lookup_ttl = 2) ?(load_weight = 1.0) ~rtts () =
  if rtts < 1 then invalid_arg "Strategy.load_aware: rtts must be >= 1";
  if load_weight < 0.0 then invalid_arg "Strategy.load_aware: negative load weight";
  let lookup_results = match lookup_results with Some r -> r | None -> max 16 rtts in
  check_lookup "Strategy.load_aware" ~lookup_results ~lookup_ttl;
  Load_aware { rtts; lookup_results; lookup_ttl; load_weight }

let to_string = function
  | Random_pick -> "random"
  | Hybrid { rtts; _ } -> Printf.sprintf "hybrid(rtts=%d)" rtts
  | Load_aware { rtts; load_weight; _ } ->
    Printf.sprintf "load-aware(rtts=%d,w=%.2f)" rtts load_weight
  | Optimal -> "optimal"
