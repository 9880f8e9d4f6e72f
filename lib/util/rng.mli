(** Deterministic pseudo-random number generation.

    The whole reproduction is seeded: every stochastic component (genetic
    algorithm, sampling-based diffing tools, workload generators) draws from
    an explicit [Rng.t] so that runs are bit-for-bit reproducible.  We never
    use [Stdlib.Random]. *)

type t
(** Mutable generator state (splitmix64). *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing [t].
    Used to give each GA individual / tool its own stream. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val bool : t -> bool
(** Uniform coin flip. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)
