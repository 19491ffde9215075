(** Domain-parallel hosting: byte-identity across pool sizes.

    Runs one seeded maintenance-heavy workload (sharded soft-state
    publishes/refreshes/sweeps on a pooled store, probe batches over a
    lossy channel on the calling domain, a membership change with
    rehosting) at domain-pool sizes 1, 2 and 4, each into a private
    metrics registry, and compares the rendered registries byte for
    byte — the executable form of the DESIGN.md §12 determinism
    contract.  Records [domains_identical]
    (1.0 on byte-identity) and the workload's deterministic totals to
    the global registry and prints the per-pool-size verdicts.  Fails
    loudly if any pool size diverges. *)

val run : ?scale:int -> Format.formatter -> unit
(** The registry entry.  [scale] divides the workload size (default
    1). *)
