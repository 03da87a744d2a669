(** Deterministic pseudo-random number generation for workloads and fault
    injection.

    Implemented as splitmix64, which is fast, has a 64-bit state that can be
    split into statistically independent streams, and — unlike the stdlib
    [Random] module — guarantees the same sequence on every OCaml version.
    Determinism matters: every experiment in the reproduction must be
    re-runnable bit-for-bit from its seed. *)

type t

val create : seed:int -> t
(** [create ~seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. Use one split
    stream per subsystem so that adding draws in one subsystem does not
    perturb another. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Requires [bound > 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform in \[lo, hi\] inclusive. Requires [lo <= hi]. *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val zipf : t -> n:int -> theta:float -> int
(** [zipf t ~n ~theta] is a Zipf-skewed value in \[0, n) — used for skewed
    record access in contention experiments. [theta = 0.] is uniform. *)

val pick : t -> 'a array -> 'a
(** Uniformly chosen array element. Requires a non-empty array. *)
