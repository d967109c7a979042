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

(** [sanitize name] maps an IR name to a C identifier. *)
val sanitize : string -> string

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
    on such pixels. *)
val lower_interior :
  ?prec:precision ->
  ctx ->
  vars:(string * string) list ->
  cx:Cuda_ast.expr ->
  cy:Cuda_ast.expr ->
  Kfuse_ir.Expr.t ->
  Cuda_ast.expr

(** Features of a pipeline that require emitted helpers. *)
type features = {
  read_modes : Kfuse_image.Border.mode list;  (** border readers used *)
  exchange_modes : Kfuse_image.Border.mode list;  (** index-exchange remappers *)
  atomics : [ `Min | `Max ] list;  (** float atomic reductions (CUDA only) *)
}

(** [used_features p] scans every kernel body. *)
val used_features : Kfuse_ir.Pipeline.t -> features

(** [helper_sources ~device_qualifier ?prec features] renders the
    helper function definitions needed by [features]; [device_qualifier]
    is prepended to each (e.g. ["__device__ __forceinline__"] for CUDA
    or ["static inline"] for C).  [prec] (default [Single]) selects the
    buffer element and return type of the border readers. *)
val helper_sources : device_qualifier:string -> ?prec:precision -> features -> string list

(** [atomic_helper_sources features] renders the CUDA float-atomic
    helpers (empty unless reductions are present). *)
val atomic_helper_sources : features -> string list

(** [kernel_params ?prec pipeline kernel] is the shared C parameter
    list: output, inputs, extents, scalar parameters.  Buffer and
    scalar-parameter types follow [prec] (default [Single]). *)
val kernel_params :
  ?prec:precision -> Kfuse_ir.Pipeline.t -> Kfuse_ir.Kernel.t -> Cuda_ast.param list

(** [func_name pipeline kernel] is ["<pipeline>_<kernel>"]. *)
val func_name : Kfuse_ir.Pipeline.t -> Kfuse_ir.Kernel.t -> string

(** [scalar_args pipeline kernel] is the scalar-parameter argument names
    (["p_<name>"]) the kernel's body actually uses, in declaration
    order. *)
val scalar_args : Kfuse_ir.Pipeline.t -> Kfuse_ir.Kernel.t -> string list
