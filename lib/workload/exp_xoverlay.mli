(** §5 generality claim: the landmark+RTT selection technique applies to
    any overlay with neighbor-selection flexibility.  Runs Chord (finger
    arcs), Pastry (prefix regions) and Koorde (de Bruijn image arcs —
    the constant-degree frontier, only ~k candidates per node) under
    random / hybrid / optimal selection and reports routing stretch. *)

val run : Run.t -> Tableout.block list
