(** CPU (C + OpenMP) backend.

    The paper's conclusion lists CPU targets as future work; this backend
    provides it.  Expression lowering — including fusion's registers and
    index exchange — is shared with the CUDA backend via
    {!Lower_common}.

    A [Map] kernel of reach 0 ({!Kfuse_ir.Expr.reach}) iterates the
    image under one OpenMP [parallel for] collapsed over both loop
    dimensions.  A [Map] of reach [R > 0] follows the paper's region
    split (Section IV-B, Figs. 4–5) in one [parallel for] over rows: on
    rows [R <= y < height - R] the columns [R <= x < width - R] run a
    clamp-free interior body — raw loads at [(x + dx, y + dy)], every
    index exchange the identity — and every other pixel calls
    [static __attribute__((noinline)) void k_<kernel>_halo(..., x, y)],
    which holds the body with full border handling and is emitted once
    per kernel.  Both bodies perform the same arithmetic in the same
    order, so the output is the same bit for bit.

    Where {!Line_buffer} hoists repeated costly taps out of a stencil's
    interior body, the entry point instead opens one [omp parallel]
    region in which each thread takes a contiguous strip of rows
    ([kf_strip]) and a line buffer of [2R + 1] rows per hoisted
    subexpression.  Before an interior row runs, the thread computes the
    buffer rows it reads and has not computed yet; the interior body
    then loads them.  The buffer cell holds the value the body would
    have computed inline, by the same operations in the same order, so
    the output is still the same bit for bit.  The halo function does
    not change.

    Global [min]/[max] reductions use OpenMP reduction clauses instead
    of the CUDA backend's float atomics, while [+] reductions run
    serially in row-major order, so their float sum does not depend on
    the thread count.  Reductions always use the bordered body. *)

(** [kernel_funcs pipeline kernel] lowers one kernel to C functions, in
    definition order: for a [Map] of reach [R > 0], the halo function,
    then the entry point; otherwise the entry point alone.  Names come
    from {!Lower_common.ident}.

    [prec] (default {!Lower_common.Single}) selects the scalar type of
    buffers and per-pixel arithmetic alike.  {!Lower_common.Double}
    makes the compiled kernels agree with the float64 reference
    interpreter in every operation and inter-kernel store — the native
    execution backend uses it so its interpreter-vs-native gate holds
    at tolerance 0. *)
val kernel_funcs :
  ?prec:Lower_common.precision -> Kfuse_ir.Pipeline.t -> Kfuse_ir.Kernel.t -> Cuda_ast.func list

(** [cc_flags] are the compiler flags generated C needs to agree with the
    interpreter bit for bit ([-O2], no builtin [pow], no FP
    contraction), without the OpenMP and linking flags. *)
val cc_flags : string list

(** [workspace_scalars pipeline] is the driver's workspace size in
    scalars: [width * height] for every kernel output that is not a
    pipeline output. *)
val workspace_scalars : Kfuse_ir.Pipeline.t -> int

(** [emit_pipeline ?prec pipeline] renders a complete [.c] translation
    unit: a [kf_scalar] typedef fixing the scalar type, helpers, the
    functions of every kernel, and a driver ({!Lower_common.ident}
    [Runner]).  The driver takes the inputs, the outputs, the
    parameters and last a workspace [kf_scalar* kf_ws] of
    {!workspace_scalars}; it carves the intermediates out of it and
    allocates nothing.  A workspace serves one call at a time. *)
val emit_pipeline : ?prec:Lower_common.precision -> Kfuse_ir.Pipeline.t -> string
