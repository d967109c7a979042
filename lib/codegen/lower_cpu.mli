(** CPU (C + OpenMP) backend.

    The paper's conclusion lists CPU targets as future work; this backend
    provides it.  Each kernel lowers to a plain C function that iterates
    the image under an OpenMP [parallel for] (collapsed over both loop
    dimensions); global [min]/[max] reductions use OpenMP reduction
    clauses instead of the CUDA backend's float atomics, while [+]
    reductions run serially in row-major order, so their float sum does
    not depend on the thread count.  Expression lowering — including
    fusion's registers and index exchange — is shared with the CUDA
    backend via {!Lower_common}. *)

(** [kernel_func ?tile pipeline kernel] lowers one kernel to a C function
    named [<pipeline>_<kernel>].  With [tile = (tx, ty)] the iteration
    space is blocked into [tx x ty] tiles (classic loop tiling — the
    locality transform Figure 1 of the paper places alongside fusion):
    the OpenMP [parallel for] distributes tiles, and the pixel loops run
    within one tile so a stencil's working set stays cache-resident.
    Reductions are never tiled.

    [prec] (default {!Lower_common.Single}) selects the scalar type of
    buffers and per-pixel arithmetic alike.  {!Lower_common.Double}
    makes the compiled kernels agree with the float64 reference
    interpreter in every operation and inter-kernel store — the native
    execution backend uses it so its interpreter-vs-native tolerance
    gate measures only boundary rounding, not accumulated float32
    drift.
    @raise Invalid_argument on nonpositive tile extents. *)
val kernel_func :
  ?tile:int * int ->
  ?prec:Lower_common.precision ->
  Kfuse_ir.Pipeline.t ->
  Kfuse_ir.Kernel.t ->
  Cuda_ast.func

(** [emit_pipeline ?tile ?prec pipeline] renders a complete [.c]
    translation unit: a [kf_scalar] typedef fixing the scalar type,
    helpers, one function per kernel, and a [run_<name>] driver
    allocating intermediates with an abort-on-OOM [malloc] wrapper. *)
val emit_pipeline :
  ?tile:int * int -> ?prec:Lower_common.precision -> Kfuse_ir.Pipeline.t -> string
