(** CPU (C + OpenMP) backend.

    The paper's conclusion lists CPU targets as future work; this backend
    provides it.  Expression lowering — including fusion's registers and
    index exchange — is shared with the CUDA backend via
    {!Lower_common}.

    A [Map] kernel of reach 0 ({!Kfuse_ir.Expr.reach}) iterates the
    image by rows under one OpenMP [parallel for], every pixel an
    interior one.  A [Map] of reach [R > 0] follows the paper's region
    split (Section IV-B, Figs. 4–5) in one [parallel for] over rows: on
    rows [R <= y < height - R] the columns [R <= x < width - R] run a
    clamp-free interior body — raw loads at [(x + dx, y + dy)], every
    index exchange the identity — and every other pixel calls
    [static KF_HALO void k_<kernel>_halo(..., x, y)] ([noinline], and
    compiled at [-O1] under gcc),
    which holds the body with full border handling and is emitted once
    per kernel.  Both bodies perform the same arithmetic in the same
    order, so the output is the same bit for bit.

    Every interior row is lowered one way, so that gcc vectorizes it
    at {!cc_flags}: each call it cannot vectorize ([exp], [log],
    [pow], [sin], [cos], [floor]) runs in a loop of its own, in place
    on a per-thread row temporary [kf_rt<i>] holding its argument, and
    the arithmetic around the calls runs in call-free loops that pass
    values on through row temporaries.  A call-free body is the single
    loop.  [Min]/[Max] lower to the [kf_min]/[kf_max] selects
    ({!Lower_common.helper_sources}).

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

    Reductions run serially in row-major order with the bordered
    body, as the interpreter folds: a team-split [+] depends on the
    thread count, and an OpenMP [min]/[max] clause has neither
    [Float.min]'s signed zeros nor its NaN. *)

(** [cc_flags] are the compiler flags generated C needs to agree with the
    interpreter bit for bit ([-O2], no builtin [pow], no FP
    contraction) and to vectorize ([-fno-math-errno],
    [-fvect-cost-model=dynamic], [-fno-trapping-math], none of which
    changes a value), without the OpenMP and linking flags. *)
val cc_flags : string list

(** [host_target_flag] ([-march=native]) builds for the compiling
    host's own target, its full vector unit included.  It changes no
    value under {!cc_flags}: no FMA contraction, no reassociation, and
    [exp]/[log]/[pow] stay libm calls. *)
val host_target_flag : string

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
