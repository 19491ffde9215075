(** The paper's cost argument quantified: to find a nearby neighbor at a
    given accuracy, how many probe messages does each technique spend, and
    what does maintaining the global soft-state cost instead?

    Probes-to-reach-target come from the Figures 3/4 curves; the
    soft-state side counts the actual messages of a node's join
    (landmark measurements, per-region publishes, one map lookup and the
    RTT probes).  The join row is also recorded as [experiment=cost]
    gauges: [cost_join_rtt_probes], [cost_join_map_publishes],
    [cost_join_slots_filled], [cost_join_lookups] and
    [cost_join_lookup_hops_mean]. *)

val run : ?scale:int -> unit -> Tableout.block list
