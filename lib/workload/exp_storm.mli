(** Maintenance-plane storm benchmark: burst publishes from N publishers
    fan out to M [Any_new_entry] subscribers, run once with the seed
    configuration (flat store, one engine event per notification) and
    once with a sharded store plus a nonzero digest window.  Reports the
    scheduled-event collapse from digest batching and the sweep cost of
    the expiry heap (records visited by a sweep when only a fraction of
    the population has expired), and records both into the global metrics
    registry under [experiment=storm]. *)

val run : ?scale:int -> unit -> Tableout.block list
(** Registry entry; [scale] divides the publisher/subscriber counts. *)
