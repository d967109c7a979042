(** Per-pixel expressions.

    A kernel body is an expression evaluated once per output pixel; the
    current pixel position is implicit.  Input images are read at constant
    offsets from the current position ({!constructor:Input}), which makes
    the compute pattern of a kernel statically derivable: all offsets zero
    is a point operator, bounded offsets form the stencil of a local
    operator (Section II-C.1).

    The {!constructor:Shift} node exists for the fusion transform: fusing
    a producer into a consumer inlines the producer body at each consumer
    tap, shifted by the tap offset.  Its [exchange] field implements the
    paper's index-exchange method (Section IV-B): when set, the shifted
    position is first re-resolved against the iteration space with the
    consumer's border mode, reproducing the semantics of materializing and
    re-padding the intermediate image.  When unset, offsets merely
    compose — the naive (and, in halo regions, incorrect) body fusion of
    Figure 4b. *)

type unop =
  | Neg
  | Abs
  | Sqrt
  | Exp
  | Log
  | Sin
  | Cos
  | Floor

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Min
  | Max
  | Pow

(** Comparison used by [Select]. *)
type cmp = Lt | Le | Eq

type t =
  | Const of float
  | Param of string  (** scalar pipeline parameter *)
  | Input of { image : string; dx : int; dy : int; border : Kfuse_image.Border.mode }
      (** read [image] at the current position offset by [(dx, dy)],
          resolving out-of-bounds coordinates with [border] *)
  | Var of string  (** reference to a [Let]-bound value *)
  | Let of { var : string; value : t; body : t }
      (** bind [value], evaluated once at the current position, for use
          as [Var var] inside [body] — the "register" of point-based
          fusion (Section II-C.3): a forwarded producer pixel is computed
          once and reused however many times the consumer reads it *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Select of { cmp : cmp; lhs : t; rhs : t; if_true : t; if_false : t }
      (** [if lhs <cmp> rhs then if_true else if_false] *)
  | Shift of { dx : int; dy : int; exchange : Kfuse_image.Border.mode option; body : t }
      (** evaluate [body] with the current position shifted by
          [(dx, dy)]; with [exchange = Some mode] the shifted position is
          first re-resolved against the iteration space using [mode] *)

(** {1 Smart constructors} *)

val const : float -> t
val param : string -> t

(** [input ?border ?dx ?dy image] reads [image]; offsets default to 0 and
    border to [Clamp]. *)
val input : ?border:Kfuse_image.Border.mode -> ?dx:int -> ?dy:int -> string -> t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val neg : t -> t
val abs : t -> t
val sqrt : t -> t
val exp : t -> t
val log : t -> t
val sin : t -> t
val cos : t -> t
val floor : t -> t
val min : t -> t -> t
val max : t -> t -> t
val pow : t -> t -> t

(** [select cmp lhs rhs if_true if_false] builds a [Select]. *)
val select : cmp -> t -> t -> t -> t -> t

(** [var v] references a [Let]-bound value. *)
val var : string -> t

(** [let_ var value body] binds [value] as [Var var] within [body]. *)
val let_ : string -> t -> t -> t

(** [clamp01 e] clamps [e] into [0, 1] with min/max. *)
val clamp01 : t -> t

(** [conv ?border mask image] is the unrolled convolution of [image] with
    [mask]: the weighted sum of one [Input] per mask tap (zero
    coefficients are skipped). *)
val conv : ?border:Kfuse_image.Border.mode -> Kfuse_image.Mask.t -> string -> t

(** {1 Analyses} *)

(** [accesses e] lists all [Input] accesses in [e] with their {e total}
    offsets (composing any enclosing [Shift]s), in syntactic order. *)
val accesses : t -> (string * int * int) list

(** [images e] is the set of image names read by [e] (deduplicated, in
    first-occurrence order). *)
val images : t -> string list

(** [radius e] is the largest absolute total access offset (Chebyshev) in
    [e]; [0] for expressions without input reads. *)
val radius : t -> int

(** [reach e] is the largest Chebyshev offset, from the current
    position, of any coordinate [e] evaluates: every [Input] read and
    every [Shift]'s shifted position, with enclosing shifts composed.
    It bounds [radius e] from above and can exceed it:
    [Shift(+r){Input(-r)}] has radius 0 but reach r.  A pixel at least
    [reach e] from every border evaluates [e] without leaving the image,
    so its reads need no border handling and its index exchanges are
    the identity. *)
val reach : t -> int

(** [radius_of_image e img] is the largest absolute total offset of
    accesses to [img], or [None] if [img] is not read. *)
val radius_of_image : t -> string -> int option

(** [subst_inputs f e] rewrites every [Input] node by [f]; [f] receives
    the node's fields and returns a replacement expression.  Enclosing
    [Shift] nodes are preserved (offsets are {e not} pre-composed — the
    replacement is evaluated in the shifted frame). *)
val subst_inputs :
  (image:string -> dx:int -> dy:int -> border:Kfuse_image.Border.mode -> t) -> t -> t

(** [rename_images f e] renames every accessed image by [f]. *)
val rename_images : (string -> string) -> t -> t

(** [params e] is the set of parameter names in [e] (first-occurrence
    order). *)
val params : t -> string list

(** [free_vars e] is the set of unbound [Var] names in [e]
    (first-occurrence order).  Kernel bodies must be closed. *)
val free_vars : t -> string list

(** [size e] is the number of AST nodes. *)
val size : t -> int

(** [equal a b] is structural equality. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
