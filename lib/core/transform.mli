(** The fusion transform: merging a legal partition block into one kernel.

    Fused kernel bodies are built by inlining producers into consumers in
    topological order (Listing 1 of the paper concatenates bodies; in our
    expression IR the concatenation is substitution):

    - a {e point access} (offset 0) to an in-block producer is replaced by
      the producer's body — the intermediate pixel lives in a register
      (point-based fusion, Section II-C.3);
    - a {e windowed access} at offset [(dx, dy)] is replaced by the
      producer's body evaluated at the shifted position — redundant
      recomputation trading computation for locality (point-to-local and
      local-to-local fusion).  With border exchange enabled (the default,
      and the paper's correct method of Section IV-B) the shifted position
      is first re-resolved against the iteration space using the border
      mode the consumer declared for that access; with it disabled the
      offsets merely compose, reproducing the incorrect naive fusion of
      Figure 4b. *)

(** [fuse_block ?exchange pipeline block] builds the single kernel
    equivalent to the kernels of [block].  The result is named after the
    block's sink kernel (so downstream consumers and pipeline outputs are
    unaffected) and reads exactly the block's external inputs.
    [exchange] defaults to [true].

    The block must satisfy the dependence legality of {!Legality.check}
    (resource legality is a performance concern, not a correctness one,
    and is not rechecked here).
    @raise Invalid_argument if the block has no unique sink or an
    external dependence. *)
val fuse_block :
  ?exchange:bool -> Kfuse_ir.Pipeline.t -> Kfuse_util.Iset.t -> Kfuse_ir.Kernel.t

(** [apply ?exchange pipeline partition] rebuilds [pipeline] with every
    multi-kernel block of [partition] fused.  [partition] must be a valid
    partition of the pipeline DAG.  [fuse] builds each block's kernel in
    place of [fuse_block ?exchange pipeline]; a caller that reuses fused
    kernels across plans passes it, and must return what [fuse_block]
    would.
    @raise Invalid_argument on an invalid partition or an unfusible
    block. *)
val apply :
  ?exchange:bool ->
  ?fuse:(Kfuse_util.Iset.t -> Kfuse_ir.Kernel.t) ->
  Kfuse_ir.Pipeline.t ->
  Kfuse_graph.Partition.t ->
  Kfuse_ir.Pipeline.t
