(** End-to-end fusion driver: pick a strategy, get a fused pipeline.

    Wraps partitioning (one of the strategies below) and the fusion
    transform, and reports the decisions taken — the partition, the
    weighted fusion graph, and the recursion trace for the min-cut
    strategy. *)

type strategy =
  | Baseline  (** no fusion: every kernel in its own block *)
  | Basic  (** prior work [12]: pairwise, point-scenarios only *)
  | Greedy  (** heaviest-edge grouping under full legality *)
  | Mincut  (** this paper: Algorithm 1 *)

type report = {
  strategy : strategy;
  inlined : string list;
      (** images eliminated by the optional inlining pre-pass *)
  input : Kfuse_ir.Pipeline.t;
      (** the pipeline the partition/edges refer to: the original, or the
          post-inline rewrite when [inline] was set *)
  partition : Kfuse_graph.Partition.t;
  edges : Benefit.edge_report list;
  steps : Mincut_fusion.step list;  (** empty unless [Mincut] *)
  objective : float;  (** beta (Eq. 1) of the chosen partition *)
  fused : Kfuse_ir.Pipeline.t;
  degraded : bool;
      (** true when any stage fell back (see [warnings]); the partition
          is then the always-legal baseline (or the unoptimized /
          un-inlined result, for the optional stages) *)
  warnings : Kfuse_util.Diag.t list;
      (** the diagnostics of every degraded stage, in occurrence order;
          empty on a clean run *)
}

(** [run ?optimize ?inline config strategy pipeline] partitions and
    fuses, always with border-correct index exchange
    ({!Transform.apply}; the naive fusion of Figure 4b is
    [Transform.apply ~exchange:false]).  [optimize] (default
    [false]) runs the {!Kfuse_ir.Simplify} and {!Kfuse_ir.Cse} cleanup
    passes over the fused kernels ("enlarging the scope for further
    optimizations such as common sub-expression elimination", Section
    II-C.4).  [inline] (default [false]) runs the {!Inline_fusion}
    pre-pass, which can eliminate shared intermediates the partition
    model must keep (Figure 2c); the reported edges/partition then refer
    to the inlined pipeline.  [pool] (default {!Kfuse_util.Pool.serial})
    parallelizes the benefit model and the min-cut recursion across its
    domains; the report is bit-identical to a serial run.

    {2 Robustness}

    The driver treats internal faults as first-class.  By default
    ([strict = false]) any stage that fails — a strategy that raises, a
    search that runs past [budget_ms] (polled between min-cut recursion
    waves and after every strategy), or a strategy result that fails the
    {!Legality.check_partition} invariant (blocks disjoint + covering,
    each legal under the Eq. 2 resource bound) — degrades gracefully:
    the driver falls back to the always-legal baseline singleton
    partition (every singleton block is legal, Section II-B) and records
    a [Warning] diagnostic in [report.warnings].  The optional
    inline/optimize stages degrade by being skipped.  With
    [strict = true] the first such failure raises
    {!Kfuse_util.Diag.Fatal} instead.

    Two failures are fatal in every mode, because no baseline exists for
    them: an invalid [config] ({!Config.validate_result}) and a
    structurally broken pipeline ({!Kfuse_ir.Validate.result}). *)
val run :
  ?optimize:bool ->
  ?inline:bool ->
  ?pool:Kfuse_util.Pool.t ->
  ?strict:bool ->
  ?budget_ms:float ->
  Config.t ->
  strategy ->
  Kfuse_ir.Pipeline.t ->
  report

(** [run_result] is {!run} with every fatal outcome — including strict-
    mode degradation failures — returned as [Error diag] instead of a
    raised {!Kfuse_util.Diag.Fatal}. *)
val run_result :
  ?optimize:bool ->
  ?inline:bool ->
  ?pool:Kfuse_util.Pool.t ->
  ?strict:bool ->
  ?budget_ms:float ->
  Config.t ->
  strategy ->
  Kfuse_ir.Pipeline.t ->
  (report, Kfuse_util.Diag.t) result

(** [fused_kernel_count r] is the number of kernels after fusion. *)
val fused_kernel_count : report -> int

val strategy_to_string : strategy -> string

(** [strategy_of_string s] parses ["baseline" | "basic" | "greedy" |
    "mincut"]. *)
val strategy_of_string : string -> strategy option

(** [all_strategies] lists every strategy in comparison order. *)
val all_strategies : strategy list

(** [pp_report ppf r] renders a human-readable account: inlined images,
    edge weights, scenario per edge, trace, final partition, and kernel
    count. *)
val pp_report : Format.formatter -> report -> unit
