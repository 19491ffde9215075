module Ts = Topology.Transit_stub
module Oracle = Topology.Oracle
module Rng = Prelude.Rng

type topology_variant = Tsk_large | Tsk_small

let variant_name = function Tsk_large -> "tsk-large" | Tsk_small -> "tsk-small"

let latency_name = function Ts.Gtitm_random -> "gt-itm" | Ts.Manual -> "manual"

let topo_seed = 20030519
(* Fixed: every experiment runs over the same physical networks. *)

(* Oracles by network and scale: each is a pure function of its key. *)
let cache : (string, Oracle.t) Hashtbl.t = Hashtbl.create 8

let memo network ~scale build =
  let key = Printf.sprintf "%s/%d" network scale in
  match Hashtbl.find_opt cache key with
  | Some o -> o
  | None ->
    let o = build () in
    Hashtbl.replace cache key o;
    o

let oracle ~scale variant latency =
  memo (variant_name variant ^ "/" ^ latency_name latency) ~scale (fun () ->
      let p =
        match variant with
        | Tsk_large -> Ts.tsk_large ~latency ~scale ()
        | Tsk_small -> Ts.tsk_small ~latency ~scale ()
      in
      Oracle.build (Ts.generate (Rng.create topo_seed) p))

let waxman ~scale =
  memo "waxman" ~scale (fun () ->
      let params = Topology.Waxman.default ~nodes:(max 200 (2000 / scale)) () in
      Oracle.of_graph (Topology.Waxman.generate (Rng.create 515) params))
