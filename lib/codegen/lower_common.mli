(** Backend-shared lowering machinery.

    The per-pixel expression lowering is identical for the CUDA and CPU
    backends — only the kernel harness (thread indexing vs. loops) and
    the helper qualifiers differ.  This module holds the shared parts:
    the emission context, the expression lowering itself, border-handling
    helper sources, and feature discovery. *)

(** Emission context: statements accumulate as expressions are lowered. *)
type ctx

val create_ctx : unit -> ctx

(** [take_stmts ctx] drains accumulated statements in program order. *)
val take_stmts : ctx -> Cuda_ast.stmt list

(** [emit ctx stmt] appends a statement. *)
val emit : ctx -> Cuda_ast.stmt -> unit

(** The kinds of C name a user name can become. *)
type kind =
  | Image  (** an image buffer, ["img_<n>"]: input, intermediate or output *)
  | Param  (** a scalar parameter, ["p_<n>"] *)
  | Kernel_fn  (** a kernel's entry point, ["k_<n>"] *)
  | Halo_fn  (** a kernel's border-handling body, ["k_<n>_halo"] *)
  | Runner  (** the pipeline's driver, ["run_<n>"] *)
  | Let_temp of int  (** the [i]-th register of a [let] binding [n], ["r<i>_<n>"] *)

(** [ident kind name] is the one C identifier [name] becomes as a
    [kind]; every user name enters generated C through it, comments
    included.  [<n>] above is [name] escaped: [A-Za-z0-9] kept, ['_']
    doubled, any other byte ['_'] plus two lowercase hex digits.  The
    map is injective over all kinds together, its results lex as C
    identifiers, and it never yields a C keyword, a libc or math name,
    or a name the generator spells itself ([width], [x], [acc], [kf_*],
    helper functions, wrapper locals). *)
val ident : kind -> string -> string

(** Scalar precision of lowered code: the buffer element type, the
    per-pixel arithmetic, literals and temporaries all follow it.
    [Single] is [float] everywhere (the CUDA the paper's toolchain
    generates); [Double] is [double] everywhere, matching the float64
    reference interpreter bit-for-bit in every operation and every
    inter-kernel store. *)
type precision = Single | Double

(** [scalar_ctype prec] is ["float"] or ["double"]. *)
val scalar_ctype : precision -> string

(** [lower ?prec ?bounded ctx ~vars ~cx ~cy e] lowers [e] at C
    coordinate expressions [(cx, cy)] with [vars] binding IR variables
    to C identifiers; auxiliary declarations go through [ctx].  [prec]
    (default [Single]) selects the arithmetic width.  [bounded]
    (default [true]) records that [(cx, cy)] is known inside the
    iteration space — kernel launches and halo calls guarantee it —
    letting zero-offset reads skip their border remap; shifts clear it,
    index exchanges restore it. *)
val lower :
  ?prec:precision ->
  ?bounded:bool ->
  ctx ->
  vars:(string * string) list ->
  cx:Cuda_ast.expr ->
  cy:Cuda_ast.expr ->
  Kfuse_ir.Expr.t ->
  Cuda_ast.expr

(** [lower_interior ?prec ctx ~vars ~cx ~cy e] lowers [e] for an
    interior pixel [(cx, cy)]: one at least [Expr.reach e] from every
    border, so that every coordinate [e] evaluates lies inside the
    image.  Each [Input] becomes a raw load at its composed offset and
    each [Shift] only adds its offset — every index exchange, the
    [Constant] guard included, is the identity there.  The arithmetic
    and its order are those of {!lower}, so the two agree bit for bit
    on such pixels.

    [tap] (default: never) is consulted at every node the lowering
    reaches, with the node's offset [(ox, oy)] from [(cx, cy)]; where it
    returns [Some c], [c] stands for the node's value and the lowering
    does not descend.  A line buffer hands back its load this way.

    Every call {!is_scalar_call} holds is emitted as a declaration of
    its own, [const <scalar> kf_c<i> = f(args)], and the lowering refers
    to [kf_c<i>]: a row lowering can then run each call in a loop of its
    own and the arithmetic around it in loops free of calls. *)
val lower_interior :
  ?prec:precision ->
  ?tap:(Kfuse_ir.Expr.t -> ox:int -> oy:int -> Cuda_ast.expr option) ->
  ctx ->
  vars:(string * string) list ->
  cx:Cuda_ast.expr ->
  cy:Cuda_ast.expr ->
  Kfuse_ir.Expr.t ->
  Cuda_ast.expr

(** [is_scalar_call e] holds for a call of a math function that the
    generated C's compiler flags leave scalar: [exp], [log], [sin],
    [cos], [floor] and [pow], in either precision. *)
val is_scalar_call : Cuda_ast.expr -> bool

(** Features of a pipeline that require emitted helpers. *)
type features = {
  read_modes : Kfuse_image.Border.mode list;  (** border readers used *)
  exchange_modes : Kfuse_image.Border.mode list;  (** index-exchange remappers *)
  atomics : [ `Min | `Max ] list;  (** float atomic reductions (CUDA only) *)
  min_max : [ `Min | `Max ] list;
      (** [kf_min]/[kf_max] helpers: a [Min]/[Max] operator or reduction *)
}

(** [used_features p] scans every kernel body. *)
val used_features : Kfuse_ir.Pipeline.t -> features

(** [helper_sources ~device_qualifier ?prec features] renders the
    helper function definitions needed by [features]; [device_qualifier]
    is prepended to each (e.g. ["__device__ __forceinline__"] for CUDA
    or ["static inline"] for C).  [prec] (default [Single]) selects the
    buffer element and return type of the border readers and of
    [kf_min]/[kf_max], which every [Min]/[Max] lowers to: OCaml's
    [Float.min]/[Float.max] bit for bit ([-0.] below [+0.], a NaN
    operand wins), written as selects so that they vectorize. *)
val helper_sources : device_qualifier:string -> ?prec:precision -> features -> string list

(** [atomic_helper_sources features] renders the CUDA float-atomic
    helpers (empty unless reductions are present). *)
val atomic_helper_sources : features -> string list

(** [kernel_params ?prec pipeline kernel] is the shared C parameter
    list: the output image, the input images, the extents, then the
    scalar parameters the body uses.  Every name is the one the runner
    gives the same buffer or value, so a call passes each parameter its
    own name.  Buffer and scalar-parameter types follow [prec] (default
    [Single]). *)
val kernel_params :
  ?prec:precision -> Kfuse_ir.Pipeline.t -> Kfuse_ir.Kernel.t -> Cuda_ast.param list
