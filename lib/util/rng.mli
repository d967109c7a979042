(** Deterministic pseudo-random number generation.

    A small, self-contained xoshiro256** generator.  Every stochastic
    component of the reproduction (measurement-noise sampling, random test
    images, random pipelines in property tests) draws from an explicit
    generator state so that all experiments are bit-reproducible. *)

type t
(** Mutable generator state. *)

(** [create seed] seeds a fresh generator deterministically from [seed]
    (SplitMix64 expansion of the seed). *)
val create : int -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [save t] is [t]'s state: the four xoshiro256** words [s0..s3] as
    native-endian int64s in 32 bytes, for code outside OCaml that runs
    the same generator and hands the advanced state back through
    {!restore}. *)
val save : t -> Bytes.t

(** [restore t b] sets [t]'s state to the one [b] holds (as {!save}
    lays it out).
    @raise Invalid_argument unless [b] is 32 bytes. *)
val restore : t -> Bytes.t -> unit

(** [split t] derives a new, statistically independent generator from [t],
    advancing [t]. *)
val split : t -> t

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)
val int : t -> int -> int

(** [float t x] is uniform in [\[0, x)]. *)
val float : t -> float -> float

(** [fill_float t ~lo ~span a] sets [a.(i)] to [lo +. float t span] for
    every [i] in increasing order: the same values, and the same state
    left in [t], as that many {!float} calls, without allocating. *)
val fill_float : t -> lo:float -> span:float -> float array -> unit

(** [gaussian t] is a standard normal sample (Box-Muller). *)
val gaussian : t -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool
