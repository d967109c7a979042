(** Lowering from the kernel IR to CUDA C.

    The source-to-source half of the reproduction: like Hipacc's CUDA
    backend, each kernel becomes a [__global__] function over one thread
    per output pixel, with border handling lowered to index-remapping
    device helpers.  Fusion artifacts lower naturally: [Let] becomes a
    register declaration, [Shift] becomes shifted (and, with index
    exchange, border-remapped) coordinates around the inlined producer
    code.

    Shared-memory staging of windowed inputs is {e not} emitted — the
    generated kernels use direct global loads — so the text is a faithful
    rendering of kernel structure while staging remains a concern of the
    performance model (see DESIGN.md). *)

(** [kernel_func pipeline kernel] lowers one kernel to a [__global__]
    function named by {!Lower_common.ident} [Kernel_fn]. *)
val kernel_func : Kfuse_ir.Pipeline.t -> Kfuse_ir.Kernel.t -> Cuda_ast.func

(** [emit_pipeline pipeline] renders a complete [.cu] translation unit:
    header comment, the device helpers actually needed (border-index
    remapping, float atomics), one [__global__] function per kernel, and
    a host-side runner that allocates intermediates and launches the
    kernels in topological order. *)
val emit_pipeline : Kfuse_ir.Pipeline.t -> string
