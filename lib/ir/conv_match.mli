(** Recognition of convolution-shaped kernel bodies.

    The fusion engine never needs to know a body {e is} a convolution —
    patterns are derived from access offsets — but some transforms do:
    kernel {e distribution} (the paper's stated future work) splits a
    separable 2-D convolution into a horizontal and a vertical 1-D pass.
    This module recovers the stencil description from a weighted-sum
    expression and decides separability. *)

(** A recognized stencil: one image, a uniform border mode, and a
    coefficient per tap offset. *)
type stencil = {
  image : string;
  border : Kfuse_image.Border.mode;
  taps : ((int * int) * float) list;  (** [(dx, dy), coefficient], deduplicated *)
}

(** [extract e] recognizes [e] as a weighted sum of taps of a single
    image: a sum tree whose leaves are [Input] or [Const * Input] (in
    either order), all reading the same image with the same border mode.
    Duplicate offsets accumulate.  Anything else is [None]. *)
val extract : Expr.t -> stencil option

(** A rank-1 factorization [w(dx, dy) = horizontal(dx) * vertical(dy)]
    over the stencil's bounding window. *)
type factorization = {
  horizontal : (int * float) list;  (** [(dx, coefficient)], nonzero entries *)
  vertical : (int * float) list;  (** [(dy, coefficient)], nonzero entries *)
}

(** [separate s] factorizes the stencil when its coefficient matrix has
    rank 1 (up to a relative tolerance of 1e-9).  The factor product
    reconstructs every tap exactly within the tolerance. *)
val separate : stencil -> factorization option

(** [tap_count s] is the number of nonzero taps. *)
val tap_count : stencil -> int
