(** Single-channel 2-D images of floats.

    The functional substrate on which pipelines are interpreted.  Images
    are dense row-major float arrays; multi-channel data (the Night
    filter's RGB input) is represented as one image per plane, matching
    the planar layout Hipacc generates. *)

type t

(** [create ~width ~height ()] is a zero image.
    @raise Invalid_argument on nonpositive dimensions. *)
val create : width:int -> height:int -> unit -> t

(** [init ~width ~height f] builds an image with [f x y] at [(x, y)]. *)
val init : width:int -> height:int -> (int -> int -> float) -> t

(** [const ~width ~height v] is an image filled with [v]. *)
val const : width:int -> height:int -> float -> t

(** [of_rows rows] builds an image from a list of equal-length rows
    (row 0 on top). @raise Invalid_argument on ragged or empty input. *)
val of_rows : float list list -> t

(** [width img] and [height img] are the image extents. *)
val width : t -> int

val height : t -> int

(** [get img x y] reads pixel [(x, y)].
    @raise Invalid_argument when out of bounds. *)
val get : t -> int -> int -> float

(** [get_bordered img mode x y] reads pixel [(x, y)], resolving
    out-of-bounds coordinates with [mode].
    @raise Invalid_argument if the access is out of bounds and [mode] is
    [Undefined]. *)
val get_bordered : t -> Border.mode -> int -> int -> float

(** [set img x y v] writes pixel [(x, y)] in place. *)
val set : t -> int -> int -> float -> unit

(** [copy img] is a deep copy. *)
val copy : t -> t

(** [unsafe_data img] is the image's backing array itself — row-major,
    NOT a copy.  Mutating it mutates the image.  For zero-copy read-only
    marshalling on the per-frame native execution path; everything else
    should copy it. *)
val unsafe_data : t -> float array

(** [unsafe_of_flat ~width ~height data] wraps [data] as an image
    without copying — the caller transfers ownership and must not touch
    [data] afterwards.  @raise Invalid_argument on a length mismatch. *)
val unsafe_of_flat : width:int -> height:int -> float array -> t

(** [map f img] applies [f] pointwise. *)
val map : (float -> float) -> t -> t

(** [mapi f img] applies [f x y v] pointwise. *)
val mapi : (int -> int -> float -> float) -> t -> t

(** [map2 f a b] combines two images of equal extent pointwise.
    @raise Invalid_argument on extent mismatch. *)
val map2 : (float -> float -> float) -> t -> t -> t

(** [fold f acc img] folds over pixels in row-major order. *)
val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

(** [equal a b] tests exact (bitwise float) equality of extents and
    pixels. *)
val equal : t -> t -> bool

(** [max_abs_diff a b] is the largest absolute pointwise difference
    over the pixels whose bits differ, a NaN against any other value
    counting as [infinity]: [0.] for bit-equal images, and for images
    that differ only in the sign of a zero.  A report; {!equal} is the
    exactness check.
    @raise Invalid_argument on extent mismatch. *)
val max_abs_diff : t -> t -> float

(** The verdict on named outputs against a named reference: every
    bit-exactness check of native output against the interpreter is
    this one function, so all of them match outputs the same way. *)
type verdict = {
  max_abs_diff : float;  (** the worst |diff| over every output *)
  differing : (string * float) list;
      (** the outputs whose bits differ, each with its own worst |diff|:
          the reference's names in order, then any extra names *)
}

(** [verdict ~reference outputs] matches [outputs] to [reference] by
    name, in both directions, and compares each pair with {!equal} and
    {!max_abs_diff}.  A missing or extra output, or one of another
    extent, differs by [infinity]. *)
val verdict : reference:(string * t) list -> (string * t) list -> verdict

(** [bit_exact v] holds when no output differs in its bits; it never
    reads the diff, since [+0.] against [-0.] differs by [0.]. *)
val bit_exact : verdict -> bool

(** [equal_eps ~eps a b] tests equality up to absolute tolerance [eps]. *)
val equal_eps : eps:float -> t -> t -> bool

(** [random rng ~width ~height ~lo ~hi] fills an image with uniform
    samples in [\[lo, hi)] from the deterministic generator [rng]:
    [lo +. Rng.float rng (hi -. lo)] per pixel, drawn in row-major
    order ({!Kfuse_util.Rng.fill_float}). *)
val random : Kfuse_util.Rng.t -> width:int -> height:int -> lo:float -> hi:float -> t

(** [pp ppf img] prints small images as a grid (intended for tests and
    demos). *)
val pp : Format.formatter -> t -> unit
