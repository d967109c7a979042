(** Content fingerprints of pipelines and fusion-plan requests.

    The plan cache addresses entries by what the fusion driver actually
    depends on: the pipeline structure, the {!Kfuse_fusion.Config}
    architecture parameters feeding the benefit model (Eqs. 3-12), the
    strategy, and the driver flags that change the produced report.
    Everything else — [--budget-ms], [-j], [--strict] — shapes {e how
    long} a plan takes to find, not {e which} plan is found, and is
    deliberately excluded.

    Two pipeline fingerprints are provided:

    - {!exact} hashes the pipeline as-is, names included.  Two pipelines
      with equal exact fingerprints are indistinguishable to the driver,
      so a report cached under one can be replayed bit-identically for
      the other.
    - {!structural} is the canonical structural hash: invariant under
      kernel renaming, parameter-list reordering, input-declaration
      reordering, and (for kernels with distinct bodies) reordering of
      the kernel list.  Kernel identities
      are replaced by content hashes of their transitive definitions, the
      parameter list is sorted, and the result is normalized with
      {!Kfuse_ir.Simplify} and {!Kfuse_ir.Cse} so that, e.g., [x * 1]
      and [x] produce the same plan address.

    Known limit of {!structural}: kernels with {e byte-identical} bodies
    ("twins") are disambiguated by topological position, so an
    isomorphism that also swaps distinguishable twins may hash
    differently.  This errs on the side of a false miss, never a false
    hit — correctness is guarded by {!exact} at lookup time. *)

(** [exact p] is a hex digest of [p] exactly as constructed (kernel and
    input names, declaration order, extents, parameter order): of its
    header followed by each kernel's {!kernel_def} text.  [def] replaces
    {!kernel_def}; a caller that memoizes the text passes it, and must
    return what {!kernel_def} would. *)
val exact : ?def:(Kfuse_ir.Kernel.t -> string) -> Kfuse_ir.Pipeline.t -> string

(** [kernel_def k] is the [(def …)] text {!exact} renders for [k]: its
    name, declared inputs and body.  A function of [k] alone. *)
val kernel_def : Kfuse_ir.Kernel.t -> string

(** [structural p] is the canonical structural hex digest described
    above.  Never raises: pipelines the normalization passes reject fall
    back to the un-normalized canonical rendering. *)
val structural : Kfuse_ir.Pipeline.t -> string

(** [config c] renders every {!Kfuse_fusion.Config.t} field that feeds
    the benefit model and the legality checks, bit-exactly. *)
val config : Kfuse_fusion.Config.t -> string

(** A plan-cache address: [structural] names the entry (content
    address), [exact] guards replay (bit-identical reports only).
    [shape] is the pipeline's own {!structural} digest, unsalted by the
    request, computed once on the way to [structural]: the sharded
    router places a request by it.  The plan cache stores neither
    [shape] nor the key itself. *)
type key = private { structural : string; exact : string; shape : string }

(** [plan_key ~config ~strategy ?optimize ?inline p] combines
    both pipeline fingerprints with the config rendering, the strategy,
    and the report-shaping driver flags (defaults mirror
    {!Kfuse_fusion.Driver.run}). *)
val plan_key :
  config:Kfuse_fusion.Config.t ->
  strategy:Kfuse_fusion.Driver.strategy ->
  ?optimize:bool ->
  ?inline:bool ->
  Kfuse_ir.Pipeline.t ->
  key

(** [kernel_hashes p] is the rename-invariant per-kernel content identity
    underlying {!structural}: for each kernel, in pipeline (topological)
    order, the hex digest of its alpha-renamed body with every image read
    rendered as the producing kernel's own content reference (or the
    external input's name), plus a twin index disambiguating
    byte-identical kernels in stored order.  Two kernels with equal
    [(hash, twin)] pairs — possibly in different pipelines — have
    isomorphic transitive definitions.

    [digest k refs] replaces {!kernel_digest} for each kernel; a caller
    that memoizes it passes it, and must return what {!kernel_digest}
    would. *)
val kernel_hashes :
  ?digest:(Kfuse_ir.Kernel.t -> string list -> string) ->
  Kfuse_ir.Pipeline.t ->
  (string * int) array

(** [kernel_digest k refs] is the hash {!kernel_hashes} gives [k] (before
    its twin index) when its declared inputs, in order, are rendered as
    [refs]: ["#" ^ content_ref] of a producing kernel, or ["$" ^ name]
    of an external input.  A function of [k] and [refs] alone. *)
val kernel_digest : Kfuse_ir.Kernel.t -> string list -> string

(** [content_ref (hash, twin)] is ["hash.twin"], how {!subgraph} renders
    one kernel of a block. *)
val content_ref : string * int -> string

(** [subgraph ~refs p block] is a rename-invariant fingerprint of the
    subgraph induced by the kernel-index set [block]: the iteration
    space, each kernel's [(hash, twin)] content identity in ascending
    index order, whether its output leaves the block (consumed outside or
    a pipeline output), and the in-block edges by dense position.
    [refs.(i)] is {!content_ref} of kernel [i]'s {!kernel_hashes} entry:
    a caller fingerprinting many blocks of one pipeline renders each
    kernel's identity once.

    These are exactly the facts one step of the min-cut recursion
    ({!Kfuse_fusion.Mincut_fusion.run}) depends on, so under a fixed
    {!Kfuse_fusion.Config}, blocks with equal subgraph fingerprints
    receive the same decision up to the order-preserving positional
    bijection — the invariant the incremental replanner's cross-flush
    memo is built on. *)
val subgraph : refs:string array -> Kfuse_ir.Pipeline.t -> Kfuse_util.Iset.t -> string
