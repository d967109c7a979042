(** The differential oracle bank.

    Every generated pipeline is run through a battery of checks, each of
    which compares two independent computations of the same fact — two
    strategies, two schedules, two serializations, two isomorphic
    pipelines — so no oracle needs a hand-written expected value:

    - {!constructor:Validate_ok}: the generator only emits pipelines
      {!Kfuse_ir.Validate} accepts (a broken generator would invalidate
      every other oracle).
    - {!constructor:Legality}: every partition from every strategy
      ([basic], [greedy], [mincut]) passes
      {!Kfuse_graph.Partition.validate} and
      {!Kfuse_fusion.Legality.check_partition}.  Strategies are called
      {e directly}, not through the driver: the driver's graceful
      degradation would silently repair exactly the failures this
      oracle exists to catch.
    - {!constructor:Beta_optimal}: on DAGs small enough to enumerate,
      Algorithm 1's objective never {e exceeds} the exhaustive optimum
      (that would mean an illegal or miscounted partition); falling
      short is a heuristic gap, reported as {!constructor:Gap} and
      failing only under [strict_optimal].
    - {!constructor:Eval_exact}: fusing with border exchange — and
      additionally simplifying + CSE-ing — changes no output pixel,
      {e bitwise}, for any strategy's partition.
    - {!constructor:Pool_determinism}: the min-cut search on a domain
      pool is bit-identical to the serial run.
    - {!constructor:Cache_replay}: a plan and the plan of a renamed
      sibling, stored side by side, are each served from the memory tier
      as their own freshly computed plan; the plan stored last, replayed
      from disk (memory tier cleared), equals it too.
    - {!constructor:Meta_rename}, {!constructor:Meta_permute_inputs},
      {!constructor:Meta_duplicate}: metamorphic invariances — kernel
      renaming and input-declaration permutation leave the structural
      fingerprint, the min-cut objective and the partition unchanged;
      duplicating a fanned-out kernel and rewiring one consumer is
      undone exactly by {!Kfuse_ir.Cse.dedup_kernels}, and wrapping a
      body in an equal-branch [select] leaves the structural
      fingerprint unchanged.
    - {!constructor:Unparse_roundtrip}: unparse-then-parse is the
      identity on (border-normalized) pipelines, by exact fingerprint.
    - {!constructor:Incremental_replan}: the lazy frontend's
      differential.  The generated pipeline seeds a
      {!Kfuse_lazy.Lazy_pipeline}; a deterministic edit sequence
      (derived from the pipeline's own fingerprint) is applied with a
      flush after every burst, and each incremental flush — planned
      through the session's cross-flush memo — must be {e bit-identical}
      (plan fingerprint: partition, objective, fused pipeline) to
      planning the same state from scratch, without ever tripping the
      seam-check fallback.
    - {!constructor:Native_exec}: the unfused baseline and the min-cut
      plan, each compiled by {!Kfuse_exec.Native} and executed
      natively, agree {e bitwise} with the {!Kfuse_ir.Eval} interpreter
      on the original pipeline (double-precision buffers and
      marshalling make exactness the right bar).  The baseline keeps
      every intermediate, so every user name reaches the generated C.  Skips cleanly when the host has no C toolchain.
      Compiling every case is orders of magnitude slower than the rest
      of the bank, so this oracle is {e opt-in}: it is not in {!all}
      and runs only when [which] names it.
    - {!constructor:Stream_exec}: the multi-frame streaming
      differential.  The same pipeline is windowed two ways — the
      {!Kfuse_stream.Session} interpreter backend on fresh frames, and
      the fused plan compiled and pinned {e once}
      ({!Kfuse_exec.Native.prepare}) then run per frame on frames drawn
      into its session's ring — over a short synthetic frame sequence,
      and every frame must agree {e bitwise}, pixels and the plan's
      summaries both.  The summaries come out of the plan's reused
      output buffers, so an output pixel the kernels leave unwritten
      shows.  The temporal state carried between frames is part of the
      oracle: a mis-clamped cold-start lag, a double-advanced window, a
      ring slot drawn over too early, or a stale pinned artifact breaks
      later frames even when frame 0 agrees.  Skips cleanly on
      non-streamable pipelines and toolchain-less hosts; opt-in like
      {!constructor:Native_exec}. *)

type name =
  | Validate_ok
  | Legality
  | Beta_optimal
  | Eval_exact
  | Pool_determinism
  | Cache_replay
  | Meta_rename
  | Meta_permute_inputs
  | Meta_duplicate
  | Unparse_roundtrip
  | Incremental_replan
  | Native_exec
  | Stream_exec

(** The default bank, in the order {!check} runs it.  Excludes the
    opt-in {!constructor:Native_exec} and {!constructor:Stream_exec};
    pass [~which:(all @ [Native_exec; Stream_exec])] to include them. *)
val all : name list

val name_to_string : name -> string
val name_of_string : string -> name option

type failure = { oracle : name; detail : string }

(** Outcome of the {!constructor:Beta_optimal} comparison. *)
type optimality =
  | Optimal  (** min-cut matched the exhaustive optimum *)
  | Gap of float  (** optimum minus min-cut objective (positive) *)
  | Not_checked  (** DAG too large, or oracle not selected *)

type report = { failure : failure option; optimality : optimality }

(** [check config p] runs the bank and stops at the first failure.

    [which] restricts to a subset (default {!all}); [pool] enables the
    pool-determinism oracle (skipped without one); [cache_dir] enables
    the disk tier of the cache-replay oracle (memory-only without) and
    hosts the native oracle's compile cache under a [native/] subdir;
    [strict_optimal] (default false) turns heuristic optimality gaps
    into failures; [max_exhaustive] (default 8) bounds the DAGs the
    exhaustive oracle enumerates.  Oracles never raise: an escaping
    exception is itself a failure of the oracle it escaped from. *)
val check :
  ?which:name list ->
  ?pool:Kfuse_util.Pool.t ->
  ?cache_dir:string ->
  ?strict_optimal:bool ->
  ?max_exhaustive:int ->
  Kfuse_fusion.Config.t ->
  Kfuse_ir.Pipeline.t ->
  report
