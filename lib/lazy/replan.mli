(** Incremental replanning: cross-flush memoization of Algorithm 1.

    A {!t} is a planning session.  Each {!plan} call runs the min-cut
    recursion ({!Kfuse_fusion.Mincut_fusion.run}) over the given
    pipeline, but consults two memo tables carried across calls:

    - a {e decision memo} keyed by the rename-invariant subgraph
      fingerprint ({!Kfuse_cache.Fingerprint.subgraph}) of each block
      the recursion considers, replaying [Accepted]/[Split]/[Components] decisions
      for blocks whose induced subgraph (content, iteration space,
      in-block edges, leaving flags) is unchanged since an earlier
      flush; and
    - an {e edge memo} keyed by the content identities of an edge's
      endpoints plus the producer's has-other-consumers flag, replaying
      the benefit model's scored weight for unchanged edges.

    The fingerprints capture exactly what one recursion step reads, so
    a hit replays the decision a fresh computation would produce — the
    partition, trace, objective and fused pipeline are {b bit-identical}
    to planning from scratch (the differential test harness and the
    [incremental-replan] fuzz oracle enforce this).  After every
    memoized run the whole partition is re-checked at the seams with
    {!Kfuse_fusion.Legality.check_partition}; a violation (impossible
    unless the memo is corrupted — the fault point {!seam_fault} exists
    to prove the path) discards both memos and replans from scratch,
    reported via [stats.fell_back].

    Legality reasons are replayed too, stored by the positions of the
    kernels they name in the block (for an edge, in the pair).  What an
    external dependence names besides its kernel — the consumer outside
    the block, or the image read from outside — is read off the current
    pipeline, so a hit runs no legality check.  A disconnected
    block is one memo entry holding all its weak components: the unions
    of its trailing components, which the trace shows as blocks of their
    own, are never looked up or recorded. *)

(** Work accounting for one {!plan} call. *)
type stats = {
  blocks_reused : int;  (** recursion blocks replayed from the memo *)
  blocks_replanned : int;
      (** blocks decided fresh (legality + min-cut).  A disconnected
          block with [k] components counts once, though the trace shows
          it as [k - 1] cuts *)
  edges_reused : int;  (** edge weights replayed from the memo *)
  edges_rescored : int;  (** edges re-scored by the benefit model *)
  fell_back : bool;
      (** the seam re-check rejected the memoized partition; the memos
          were discarded and this plan was computed from scratch *)
}

(** A fusion plan for one flushed pipeline. *)
type plan = {
  pipeline : Kfuse_ir.Pipeline.t;  (** the planned (source) pipeline *)
  partition : Kfuse_graph.Partition.t;
  edges : Kfuse_fusion.Benefit.edge_report list;
  steps : Kfuse_fusion.Mincut_fusion.step list;
  objective : float;
  fused : Kfuse_ir.Pipeline.t;  (** partition applied, loops exchanged *)
  fingerprint : string;
      (** digest of (source exact fp, partition, objective, fused exact
          fp): two plans with equal fingerprints are bit-identical, the
          equality the differential harness asserts *)
  stats : stats;
}

type t
(** A planning session: a fusion-model configuration plus the decision
    and edge memos, and the per-kernel memos that make a flush cost what
    the edit changed: each kernel's content hash and [(def …)] text, and
    each fused block's kernel, keyed by the kernel values themselves.
    Not thread-safe; confine a session to one domain. *)

val create : Kfuse_fusion.Config.t -> t
(** A fresh session with empty memos.
    @raise Invalid_argument on an invalid config. *)

val config : t -> Kfuse_fusion.Config.t

val clear : t -> unit
(** Drop both memos (and the last plan). *)

val memo_size : t -> int * int
(** [(decisions, edges)] currently memoized. *)

val memo_capacity : int
(** The most entries either memo holds (8192); past it the least
    recently used goes.  Bounds a long-lived session's memory. *)

val kernel_hashes : t -> Kfuse_ir.Pipeline.t -> (string * int) array
(** {!Kfuse_cache.Fingerprint.kernel_hashes} through the session's
    per-kernel memo: a kernel value seen by this flush or the one before,
    with the same producer references, is not rendered again. *)

val exact : t -> Kfuse_ir.Pipeline.t -> string
(** {!Kfuse_cache.Fingerprint.exact} through the session's per-kernel
    memo of [(def …)] texts. *)

val last : t -> plan option
(** The most recent successful plan of this session. *)

val plan :
  ?pool:Kfuse_util.Pool.t ->
  t ->
  Kfuse_ir.Pipeline.t ->
  (plan, Kfuse_util.Diag.t) result
(** [plan t p] runs the memoized min-cut recursion as described above.
    Precondition: [p] is valid ({!Kfuse_ir.Validate.result} accepts it),
    as every {!Lazy_pipeline} state is; [plan] does not check it again.
    Never raises: fusion faults and transform failures come back as
    diagnostics. *)

val scratch :
  ?pool:Kfuse_util.Pool.t ->
  Kfuse_fusion.Config.t ->
  Kfuse_ir.Pipeline.t ->
  (plan, Kfuse_util.Diag.t) result
(** [scratch config p] is [plan (create config) p]: the identical code
    path with nothing memoized — the differential oracle's reference
    planner. *)

val seam_fault : string
(** ["lazy.seam"]: a corruption point ({!Kfuse_util.Faults.fires}) at
    the post-memo seam re-check.  A triggered hit makes the re-check
    report failure, forcing (and thereby testing) the discard-and-replan
    fallback. *)
