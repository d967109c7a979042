(** Pretty-printing pipelines back to DSL text.

    The inverse of {!Elaborate} for user-level pipelines: the result
    parses back to a pipeline with identical semantics (convolutions
    appear in their expanded weighted-sum form, and unparsing is a
    fixpoint from the first round trip on).

    Fusion artifacts do not round-trip: [Shift] nodes (recomputation /
    index exchange) and non-[<] comparisons have no DSL syntax, and
    reserved words cannot name kernels — such pipelines are reported as
    unsupported rather than printed wrongly. *)

(** [expr e] renders one expression.  [Error reason] for untranslatable
    nodes. *)
val expr : Kfuse_ir.Expr.t -> (string, string) result

(** [pipeline p] renders a whole pipeline definition. *)
val pipeline : Kfuse_ir.Pipeline.t -> (string, string) result

(** The words that cannot name anything in a pipeline that should
    unparse: [let], [reduce], [size], [param] and [pipeline]. *)
val reserved : string list
