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

(** [emit_pipeline ?prec pipeline] renders a complete [.c] translation
    unit: a [kf_scalar] typedef fixing the scalar type, helpers, the
    functions of every kernel, and a driver ({!Lower_common.ident}
    [Runner]) allocating intermediates with an abort-on-OOM [malloc]
    wrapper. *)
val emit_pipeline : ?prec:Lower_common.precision -> Kfuse_ir.Pipeline.t -> string
