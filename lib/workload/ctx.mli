(** Shared experiment context: topologies and distance oracles, built once
    per process and cached (oracle construction is the expensive step).
    Every oracle is a pure function of its network and scale, which key
    the one memo, so runs may share them. *)

type topology_variant = Tsk_large | Tsk_small

val variant_name : topology_variant -> string

val oracle :
  scale:int ->
  topology_variant ->
  Topology.Transit_stub.latency_model ->
  Topology.Oracle.t
(** Cached oracle for (variant, latency, scale).  [scale] divides stub
    sizes (1 = the full ~10,000-node topology).  Topology seeds are fixed
    so every experiment sees the same physical network. *)

val waxman : scale:int -> Topology.Oracle.t
(** Cached oracle of the flat Waxman network (2000 nodes over [scale],
    at least 200), from a fixed seed. *)
