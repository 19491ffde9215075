(** The paper's §1 taxonomy of topology-exploitation techniques, run head
    to head on the same network: (1) geographic layout (Topologically-
    Aware CAN), (2) proximity routing (topology-blind overlay, latency-
    aware forwarding), (3) proximity-neighbor selection (the paper's
    approach), against a topology-blind baseline. *)

val run : ?scale:int -> unit -> Tableout.block list
