(** Kernels: the vertices of a pipeline DAG.

    A kernel is a basic block that reads one or more input images and
    produces one output image (Section II-B).  Its compute pattern —
    point, local, or global (Section II-C.1) — is derived from its body
    rather than declared, so it cannot go stale. *)

(** Compute pattern of a kernel (Section II-C.1). *)
type pattern =
  | Point  (** each output pixel needs one pixel per input (offset 0) *)
  | Local of int  (** stencil with the given radius [>= 1] *)
  | Global  (** reduction over whole images; never fusible *)

type op =
  | Map of Expr.t  (** per-pixel expression: point or local operator *)
  | Reduce of { init : float; combine : Expr.binop; arg : Expr.t }
      (** global operator: fold [combine] over [arg] evaluated at every
          pixel, starting from [init]; produces a 1x1 image.  [arg] must
          be a point expression (radius 0). *)

type t = private {
  name : string;
  inputs : string list;
  op : op;
  radius : int;  (** the body's stencil radius, computed once by {!create} *)
}

(** [create ~name ~inputs op] builds a kernel, checking that the body
    reads exactly the images in [inputs] (each declared input must be
    read; each read image must be declared) and that kernel names are
    nonempty.  For [Reduce], the argument must have radius 0.
    @raise Invalid_argument on violations. *)
val create : name:string -> inputs:string list -> op -> t

(** [map ~name ~inputs body] is [create] with a [Map] body. *)
val map : name:string -> inputs:string list -> Expr.t -> t

(** [reduce ~name ~inputs ~init ~combine arg] is [create] with a [Reduce]
    body. *)
val reduce :
  name:string -> inputs:string list -> init:float -> combine:Expr.binop -> Expr.t -> t

(** [pattern k] derives the compute pattern from the body. *)
val pattern : t -> pattern

(** [radius k] is the stencil radius: 0 for point and global kernels.
    Stored, so it and the pattern queries below never walk the body. *)
val radius : t -> int

(** [mask_width k] is [2 * radius k + 1], the side length [l_k] of the
    (smallest square covering the) stencil. *)
val mask_width : t -> int

(** [mask_area k] is [mask_width^2] — the [sz(k)] of Eqs. 7, 9, 10. *)
val mask_area : t -> int

(** [body k] is the per-pixel expression of a [Map] kernel.
    @raise Invalid_argument for [Reduce] kernels. *)
val body : t -> Expr.t

(** [is_point k], [is_local k], [is_global k] test the derived pattern. *)
val is_point : t -> bool

val is_local : t -> bool
val is_global : t -> bool

(** [uses_shared_memory k] — in the hardware model (Section II-C.2) local
    operators stage their input windows in shared memory; point and
    global operators do not. *)
val uses_shared_memory : t -> bool

(** [input_radii k] maps each input image to the largest access offset
    used on it ([0] for point reads). *)
val input_radii : t -> (string * int) list

val pattern_to_string : pattern -> string
val pp : Format.formatter -> t -> unit
