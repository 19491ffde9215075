module Rng = Prelude.Rng
module Stats = Prelude.Stats
module Oracle = Topology.Oracle
module Can_overlay = Can.Overlay
module Ecan_exp = Ecan.Expressway
module Zone = Geometry.Zone

type sample = {
  src : int;
  dst : int;
  hops : int;
  latency : float;
  shortest : float;
}

type report = {
  samples : sample list;
  stretch : Stats.summary;
  hops : Stats.summary;
}

let path_latency oracle hops = Engine.Route_obs.latency (Oracle.dist oracle) hops

let sample_of_route oracle ~src ~dst hops =
  {
    src;
    dst;
    hops = List.length hops - 1;
    latency = path_latency oracle hops;
    shortest = Oracle.dist oracle src dst;
  }

let to_member can route ~src dst =
  route ~src (Zone.center (Can_overlay.node can dst).Can_overlay.zone)

type draw = Pairs | Keys of { key_space : int; owner : int -> int }

let sample_routes oracle rng ids ~count draw route =
  (match draw with
  | Pairs when Array.length ids < 2 -> invalid_arg "Measure: need at least two members"
  | Pairs | Keys _ -> ());
  let samples = ref [] and failed = ref 0 in
  for _ = 1 to count do
    let src = Rng.pick rng ids in
    let target =
      match draw with
      | Pairs ->
        let rec other () =
          let d = Rng.pick rng ids in
          if d = src then other () else d
        in
        other ()
      | Keys { key_space; _ } -> Rng.int rng key_space
    in
    match route ~src target with
    | Some hops ->
      let dst = match draw with Pairs -> target | Keys { owner; _ } -> owner target in
      samples := sample_of_route oracle ~src ~dst hops :: !samples
    | None -> incr failed
  done;
  (!samples, !failed)

let stretches samples =
  List.filter_map
    (fun s -> if s.shortest > 0.0 then Some (s.latency /. s.shortest) else None)
    samples

let report samples =
  {
    samples;
    stretch = Stats.summarize (Array.of_list (stretches samples));
    hops =
      Stats.summarize
        (Array.of_list (List.map (fun (s : sample) -> float_of_int s.hops) samples));
  }

(* [pairs] (default twice the overlay size) member pairs drawn from a
   copy of the builder's rng, so measuring never perturbs the build. *)
let sampled_report ?pairs builder route =
  let can = Ecan_exp.can builder.Builder.ecan in
  let ids = Can_overlay.node_ids can in
  let count = match pairs with Some p -> p | None -> 2 * Array.length ids in
  let samples, failed =
    sample_routes builder.Builder.oracle (Rng.copy builder.Builder.rng) ids ~count Pairs
      (to_member can route)
  in
  if failed > 0 then failwith "Measure: routing failed";
  report samples

let route_stretch ?pairs builder =
  sampled_report ?pairs builder (Ecan_exp.route builder.Builder.ecan)

let can_route_report ?pairs builder =
  sampled_report ?pairs builder (Can_overlay.route (Ecan_exp.can builder.Builder.ecan))

let neighbor_quality builder =
  let ecan = builder.Builder.ecan in
  let can = Ecan_exp.can ecan in
  let oracle = builder.Builder.oracle in
  let ratios = ref [] in
  Array.iter
    (fun id ->
      List.iter
        (fun (row, digit, target) ->
          let region = Ecan_exp.region_prefix ecan id ~row ~digit in
          let candidates = Can_overlay.members_with_prefix can region in
          match Oracle.nearest oracle id candidates with
          | Some (_, best) when best > 0.0 ->
            ratios := Oracle.dist oracle id target /. best :: !ratios
          | Some _ | None -> ())
        (Ecan_exp.entries ecan id))
    (Can_overlay.node_ids can);
  Stats.summarize (Array.of_list !ratios)
