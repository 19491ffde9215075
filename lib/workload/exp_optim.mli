(** §5.5 "pushing limits" optimisations and design-choice ablations:

    - landmark {e groups}: split the landmark set into groups, rank
      candidates by the best per-group match, reducing false clustering;
    - {e hierarchical} landmark spaces: coarse global pre-selection
      refined by the remaining components;
    - hill climbing (the §1 heuristic, for contrast — stuck in local
      minima);
    - space-filling-curve choice: Hilbert vs Z-order as the landmark
      number / map placement curve, measured end-to-end on eCAN routing
      stretch. *)

val run : Run.t -> Tableout.block list
