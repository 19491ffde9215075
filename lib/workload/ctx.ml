module Ts = Topology.Transit_stub
module Oracle = Topology.Oracle
module Rng = Prelude.Rng

type topology_variant = Tsk_large | Tsk_small

let variant_name = function Tsk_large -> "tsk-large" | Tsk_small -> "tsk-small"

let latency_name = function Ts.Gtitm_random -> "gt-itm" | Ts.Manual -> "manual"

let topo_seed = 20030519
(* Fixed: every experiment runs over the same physical networks. *)

let cache : (string, Oracle.t) Hashtbl.t = Hashtbl.create 8

let oracle ?(scale = 1) variant latency =
  let key = Printf.sprintf "%s/%s/%d" (variant_name variant) (latency_name latency) scale in
  match Hashtbl.find_opt cache key with
  | Some o -> o
  | None ->
    let p =
      match variant with
      | Tsk_large -> Ts.tsk_large ~latency ~scale ()
      | Tsk_small -> Ts.tsk_small ~latency ~scale ()
    in
    let o = Oracle.build (Ts.generate (Rng.create topo_seed) p) in
    Hashtbl.replace cache key o;
    o
