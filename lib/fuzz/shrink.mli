(** Greedy shrinking of failing pipelines to minimal reproducers.

    QCheck-style: given a pipeline on which some oracle fails and a
    [still_fails] predicate that re-runs {e that} oracle, repeatedly try
    size-reducing rewrites and keep any candidate that is still a valid
    pipeline and still fails.  Every rewrite strictly decreases a
    well-founded measure (kernel count, then total AST size, then
    iteration-space area, then declared names, then total tap offsets),
    so shrinking terminates without the attempt cap.

    The moves, most aggressive first:
    - drop a sink kernel (its output is consumed by nothing);
    - bypass a kernel: rewire every consumer tap of its image to one of
      its own input images (same offset, same border) — or to a
      constant when it reads nothing — and drop it;
    - replace a kernel body by one of its immediate (closed)
      subexpressions;
    - inline parameter defaults and drop the parameter list;
    - drop declared-but-unread external inputs;
    - halve the iteration space (floored at 7x7, so any generated
      stencil still fits);
    - halve all tap offsets (pulling stencils toward point kernels). *)

val run :
  still_fails:(Kfuse_ir.Pipeline.t -> bool) ->
  Kfuse_ir.Pipeline.t ->
  Kfuse_ir.Pipeline.t
