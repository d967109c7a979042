(** Common-subexpression elimination.

    Introduces [Let] bindings for repeated subexpressions so each is
    computed (and, after lowering, each repeated image load issued) once.
    Value-numbering is {e frame-aware}: a [Shift] changes the evaluation
    position, so structurally equal subtrees in different shift frames
    denote different values and are never merged; each [Shift] body is
    processed as its own frame.  A subtree that reads a [Let]-bound
    variable is bound inside that [Let]'s body, where every occurrence
    reads the same binding: each [Let] body is a frame of its own with
    the variable in scope, and a subtree is bound there only if none of
    its variables is bound again anywhere in that body.  So fused
    Night's scoto computes [exp (-. r /. 0.12)] once, not twice.

    This matters most for fused kernels: a consumer that reads the same
    image at the same offset in several arithmetic contexts, or a corner
    response reusing [trace = gx + gy] twice, gets a single register. *)

(** [expr ?min_size e] binds every eligible subtree that occurs at least
    twice within a frame and has at least [min_size] AST nodes (default
    [1], which includes repeated [Input] loads). *)
val expr : ?min_size:int -> Expr.t -> Expr.t

(** [kernel ?min_size k] applies {!expr} to the kernel body. *)
val kernel : ?min_size:int -> Kernel.t -> Kernel.t

(** [pipeline ?min_size p] applies {!kernel} to every kernel. *)
val pipeline : ?min_size:int -> Pipeline.t -> Pipeline.t

(** [dedup_kernels p] is kernel-level CSE: {e twin} kernels — whose
    bodies are structurally equal once producers are identified — are
    merged by rewiring every consumer to the earliest twin and dropping
    the later ones.  A twin no kernel consumes is kept: it is a pipeline
    output, and dropping it would change the pipeline's interface.
    Reaches its fixpoint in one topological pass (a merge can reveal new
    twins downstream, which the same pass catches). *)
val dedup_kernels : Pipeline.t -> Pipeline.t
