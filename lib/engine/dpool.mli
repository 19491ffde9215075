(** A stub kept only so [bench/perf] compiles: the repo runs on one
    domain (DESIGN.md §12).  Every value here is ignored; ROADMAP item 3
    deletes the module together with [Store.create ?pool],
    [Probe.create ?pool] and [Builder.config.domains]. *)

type t

val get : domains:int -> t
(** Ignores [domains] and spawns nothing. *)

val set_default : t option -> unit
(** Does nothing. *)
