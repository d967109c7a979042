(** Operation counts and shared-memory usage estimates.

    Implements the cost ingredients of the benefit model (Section II-C):
    the ALU/SFU operation counts of Eq. 6 and the shared-memory footprint
    [f_Mshared] used by the resource-legality check of Eq. 2.

    Counting convention: arithmetic nodes classify as ALU (add, sub, mul,
    min, max, neg, abs, floor, select) or SFU (sqrt, exp, log, sin, cos,
    pow, div — transcendental and multi-cycle units), and each kernel
    accounts one extra ALU operation for the output write.  This
    convention is calibrated against the paper's worked example, which
    counts [n_ALU = 2] for the squaring kernels [out = a * b] of the
    Harris detector (Section III-B). *)

type counts = { alu : int; sfu : int }

(** [op_counts e] counts arithmetic operations in [e] (no store). *)
val op_counts : Expr.t -> counts

(** [kernel_op_counts k] is [op_counts (body k)] plus one ALU operation
    for the output store; for global kernels the combine operation is
    counted per element. *)
val kernel_op_counts : Kernel.t -> counts

(** [cost_op ~c_alu ~c_sfu counts] is Eq. 6:
    [c_alu * alu + c_sfu * sfu], in cycles. *)
val cost_op : c_alu:float -> c_sfu:float -> counts -> float

(** Thread-block shape used for shared-memory tiles.  Hipacc's CUDA
    backend launches 2-D blocks; 32x4 is its default configuration. *)
type block = { bx : int; by : int }

val default_block : block

(** [tile_bytes block ~radius] is the size in bytes of a shared-memory
    tile holding a [block]-sized region extended by [radius] on each side
    ([(bx + 2r) * (by + 2r) * 4] for 32-bit pixels). *)
val tile_bytes : block -> radius:int -> int

(** [tile_bytes_window block w] sizes a tile for the rectangular
    footprint [w]: [(bx + width(w) - 1) * (by + height(w) - 1) * 4].
    Equals {!tile_bytes} for square radius-[r] windows; tighter for
    asymmetric stencils (e.g. 1-D blurs). *)
val tile_bytes_window : block -> Footprint.window -> int

(** [kernel_shared_bytes block k] is the standalone shared-memory usage
    [f_Mshared(k)]: one footprint-sized tile per input image accessed
    with a window, and 0 for point and global kernels. *)
val kernel_shared_bytes : block -> Kernel.t -> int

(** [register_estimate e] estimates the registers a straightforward
    compilation of [e] needs: a Sethi-Ullman labeling extended with [Let]
    (a binding's register stays live across its body).  The paper argues
    fusion barely increases register pressure because fused bodies are
    concatenated and each stage's values die before the next
    (Section II-B.1) — under this estimate, point-based fusion adds one
    live register per forwarded producer, matching that observation. *)
val register_estimate : Expr.t -> int

(** [kernel_registers k] is [register_estimate] of the body plus a
    fixed overhead of 10 for index arithmetic and bookkeeping, clamped
    to the CUDA per-thread maximum of 255. *)
val kernel_registers : Kernel.t -> int
