(** Landmark nodes and landmark vectors.

    A set of landmark nodes is scattered in the network; every node
    measures its RTT to each landmark, yielding its {e landmark vector} —
    its coordinates in the {e landmark space}.  Nodes with nearby vectors
    are likely physically close (with false-clustering risk that shrinks
    as the number of landmarks grows). *)

type t

val choose : Prelude.Rng.t -> Topology.Oracle.t -> int -> t
(** [choose rng oracle l] picks [l] distinct random nodes of the topology
    as landmarks.  Raises [Invalid_argument] if [l] exceeds the node count
    or is < 1. *)

val count : t -> int
val nodes : t -> int array

val vector_via : t -> Engine.Probe.t -> int -> float array
(** [vector_via t prober node] is the node's landmark vector: its RTT to
    each landmark, in landmark order, measured by [prober] as one batch
    of [count t] probes from [node].  The prober owns the measurement
    function (typically [Topology.Oracle.measure oracle], so the probes
    feed the oracle's measurement counter) and models the batch's
    wall-clock under its concurrency window (completion = max RTT when
    the window covers the landmark set, the sum at window 1).  A probe
    that exhausts its retries yields [infinity] in that component (the
    landmark looks unreachable, i.e. maximally far).  With a default
    prober (window 1, no cache, reliable channel) the vector is the
    landmark RTTs measured one after another in landmark order. *)

val vector_memo : t -> Engine.Probe.t -> int -> float array
(** [vector_memo t prober] is {!vector_via} behind a table of its own: a
    node's vector is measured on the first call for that node and read
    from the table on every later one. *)

val ordering : float array -> int array
(** [ordering vec] is the landmark-ordering representation used by
    Topologically-Aware CAN: landmark indices sorted by increasing RTT. *)

val ordering_bin : ?k:int -> float array -> int
(** Topologically-Aware CAN's space binning: the Lehmer index (in
    [0, k!)) of the ordering of the first [k] (default 4) landmarks.
    Nodes with the same bin have the same landmark ordering and are
    placed in the same portion of the Cartesian space.  Raises
    [Invalid_argument] if the vector has fewer than [k] components. *)

val ordering_bin_count : ?k:int -> unit -> int
(** Number of bins, [k!]. *)

val vector_dist : float array -> float array -> float
(** Euclidean distance between two landmark vectors (the landmark-space
    proximity estimate). *)

val within : float array -> float array -> float -> bool
(** [within a b d] is [vector_dist a b <= d] for every input, NaN and
    infinities included, but stops summing once a partial sum proves the
    distance exceeds [d].  Raises [Invalid_argument] on a length
    mismatch, as {!vector_dist} does. *)
