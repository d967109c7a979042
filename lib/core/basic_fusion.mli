(** Basic kernel fusion — the prior-work baseline (Qiao et al., SCOPES
    2018, reference [12] of the paper).

    The basic technique fuses pairwise along producer/consumer edges and
    only for the point-related scenarios (point-to-point, local-to-point,
    point-to-local).  It precludes kernels "as long as any constraint is
    met" (Section III-C): shared inputs (Figure 2b), local-to-local
    pairs, and any external dependence reject the pair outright.  Chains
    still fuse because pairwise merging iterates to a fixpoint — this is
    how the Enhancement pipeline fuses fully while Sobel and Unsharp are
    rejected (Section V-C). *)

(** [partition config pipeline] runs basic fusion: starting from
    singletons, repeatedly merge the first fusible producer/consumer
    block pair (in topological edge order) until a fixpoint.  Two blocks
    are fusible under the basic rules when:
    - the merged block is weakly connected with a unique sink and no
      external output;
    - it has exactly {e one} source kernel, and only that source reads
      images from outside the block (shared inputs are rejected);
    - no internal edge is local-to-local (consumer reads an in-block
      intermediate with a window while its producer is local);
    - no global kernels; the resource constraint of Eq. 2 holds. *)
val partition : Config.t -> Kfuse_ir.Pipeline.t -> Kfuse_graph.Partition.t
