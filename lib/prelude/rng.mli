(** Deterministic, splittable pseudo-random number generator.

    All randomness in the project flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    Xoshiro256** seeded via SplitMix64 (Blackman & Vigna).  It is not
    cryptographic; it is fast, has 256 bits of state and passes BigCrush. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an arbitrary integer seed. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Deriving sub-generators for sub-systems keeps experiments insensitive to
    the order in which unrelated components consume randomness. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future draws as [t]). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val splitmix64 : int64 -> int64
(** [splitmix64 x] is SplitMix64's output from state [x]: [x] plus the
    golden gamma, through the multiply-xorshift finalizer.  The
    generator seeds itself with it; as a hash it spreads consecutive
    integers over all 64 bits. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be > 0;
    raises [Invalid_argument] otherwise.  Unbiased (rejection sampling). *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] draws uniformly from [lo, hi). *)

val bool : t -> bool
(** Fair coin flip. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  Raises [Invalid_argument] on
    an empty array. *)

val sample : t -> int -> 'a array -> 'a array
(** [sample t k arr] draws [k] distinct elements uniformly without
    replacement.  Raises [Invalid_argument] if [k > Array.length arr]. *)

val exponential : t -> float -> float
(** [exponential t rate] draws from Exp(rate); used for churn inter-arrival
    times.  [rate] must be positive. *)
