(** Legality of partition blocks (Section II-B).

    A partition block is legal when all its kernels can be fused into one
    while (a) preserving data dependence — no {e external dependence} may
    be introduced (the four scenarios of Figure 2), (b) satisfying the
    shared-memory resource constraint of Eq. 2, and (c) having compatible
    headers (same iteration space and access granularity — automatic
    within one pipeline, except for global kernels whose 1x1 reduction
    output breaks granularity). *)

type reason =
  | Not_connected  (** the block is not weakly connected *)
  | Multiple_sinks of int list
      (** more than one kernel's output would leave the block; only the
          destination kernel's output is preserved by fusion *)
  | External_output of { kernel : int; consumer : int }
      (** Figure 2c: an intermediate kernel's output is also consumed
          outside the block *)
  | External_input of { kernel : int; image : string }
      (** Figure 2d: a non-source kernel reads an image that is neither
          produced in the block nor an input of a source kernel *)
  | Global_kernel of int
      (** the block contains a reduction kernel (header incompatibility) *)
  | Resource of { fused_bytes : int; base_bytes : int; ratio : float }
      (** Eq. 2 violated: fused shared-memory usage grows by more than
          [c_mshared] over the largest standalone usage in the block *)

(** [check config pipeline block] decides legality of fusing the kernel
    indices in [block].  Singleton blocks are always legal.
    @raise Invalid_argument if [block] is empty or contains indices
    outside the pipeline. *)
val check :
  Config.t -> Kfuse_ir.Pipeline.t -> Kfuse_util.Iset.t -> (unit, reason) result

(** [check_connected config pipeline block] is {!check} for a [block]
    the caller knows to be weakly connected: it skips the connectivity
    walk, which builds the block's induced graph. *)
val check_connected :
  Config.t -> Kfuse_ir.Pipeline.t -> Kfuse_util.Iset.t -> (unit, reason) result

(** [disconnected_reason pipeline block] is the reason {!check} gives a
    multi-kernel [block] that is not weakly connected: [Global_kernel]
    of its smallest global kernel if it holds one, [Not_connected]
    otherwise.  Reads only the kernels' patterns. *)
val disconnected_reason : Kfuse_ir.Pipeline.t -> Kfuse_util.Iset.t -> reason

(** [external_input pipeline block v] is the image {!check} would name
    in an [External_input] reason for kernel [v] of [block]: the first
    image [v] reads that is neither made in [block] nor read by one of
    its sources; [None] when there is none. *)
val external_input : Kfuse_ir.Pipeline.t -> Kfuse_util.Iset.t -> int -> string option

(** [is_legal config pipeline block] is [check ... = Ok ()]. *)
val is_legal : Config.t -> Kfuse_ir.Pipeline.t -> Kfuse_util.Iset.t -> bool

(** [check_partition config pipeline partition] checks the whole-result
    invariant any fusion strategy must meet: the blocks are pairwise
    disjoint, cover every kernel, contain no empties
    ({!Kfuse_graph.Partition.validate}), and each is legal per {!check}
    — including the Eq. 2 resource bound.  The first violation comes
    back as an {!Kfuse_util.Diag.Invalid_partition} diagnostic.  Never
    raises. *)
val check_partition :
  Config.t ->
  Kfuse_ir.Pipeline.t ->
  Kfuse_graph.Partition.t ->
  (unit, Kfuse_util.Diag.t) result

(** [block_sources pipeline block] is the set of kernels in [block] with
    no producer inside [block]. *)
val block_sources : Kfuse_ir.Pipeline.t -> Kfuse_util.Iset.t -> Kfuse_util.Iset.t

(** [block_sinks pipeline block] is the set of kernels in [block] whose
    output is consumed outside the block or is a pipeline output. *)
val block_sinks : Kfuse_ir.Pipeline.t -> Kfuse_util.Iset.t -> Kfuse_util.Iset.t

(** [fused_shared_bytes config pipeline block] estimates the
    shared-memory footprint of the hypothetical fused kernel: one tile
    per image that some in-block kernel reads with a window, sized by the
    window radius plus the accumulated downstream stencil radius inside
    the block (recomputation extends every tile towards the block output;
    cf. the Harris discussion in Section III-B). *)
val fused_shared_bytes : Config.t -> Kfuse_ir.Pipeline.t -> Kfuse_util.Iset.t -> int

(** [reason_to_string pipeline r] renders [r] with kernel names. *)
val reason_to_string : Kfuse_ir.Pipeline.t -> reason -> string
