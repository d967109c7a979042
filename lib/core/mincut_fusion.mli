(** Algorithm 1: recursive min-cut kernel fusion (Section III).

    Weights are assigned to every edge by the benefit model; the whole
    DAG starts as a single partition block in the working set.  Each
    iteration moves legal (or singleton) blocks to the ready set and
    splits illegal blocks along a weighted minimum cut (Stoer-Wagner) of
    their induced undirected graph.  The recursion terminates with a
    partition whose blocks are all legal; maximizing the retained
    in-block weight is equivalent to minimizing the cut weight (Eq. 13).

    Block legality here is {!Legality.check} extended with the paper's
    profitability clamp (Section II-C.4): an edge whose legal scenario
    estimates a non-positive benefit "should not be fused" and is treated
    as fusion-preventing, so a block containing such an edge is split. *)

(** One step of the recursion, for tracing/visualizing Figure 3. *)
type step =
  | Accept of Kfuse_util.Iset.t  (** block was legal (or singleton) *)
  | Cut of {
      block : Kfuse_util.Iset.t;
      reason : Legality.reason option;
          (** why the block was illegal; [None] when split only by the
              profitability clamp or disconnection *)
      cut_weight : float;
      side_a : Kfuse_util.Iset.t;
      side_b : Kfuse_util.Iset.t;
    }

type result = {
  partition : Kfuse_graph.Partition.t;
  edges : Benefit.edge_report list;  (** the weighted fusion graph *)
  steps : step list;  (** recursion trace, in execution order *)
  objective : float;  (** beta of Eq. 1 under the computed weights *)
}

(** [weight_table edges] indexes the reported weights by [(src, dst)]
    for O(1) lookup (the partition objective queries one weight per edge
    per block, which walked the whole report list before). *)
val weight_table : Benefit.edge_report list -> (int * int, float) Hashtbl.t

(** [block_legal config pipeline edges block] is the extended legality
    predicate described above ([edges] supplies precomputed weights). *)
val block_legal :
  Config.t -> Kfuse_ir.Pipeline.t -> Benefit.edge_report list -> Kfuse_util.Iset.t -> bool

(** What Algorithm 1 does to one block of the working set: accept it,
    split it along a min cut, or split a disconnected block into its weak
    components.  A pure function of the block — given the config, the
    pipeline and the edge weights — which is what lets independent blocks
    be decided on separate domains, and decisions be replayed across runs
    by the incremental replanner. *)
type decision =
  | Accepted
  | Split of {
      reason : Legality.reason option;
      cut_weight : float;
      side_a : Kfuse_util.Iset.t;
      side_b : Kfuse_util.Iset.t;
    }
  | Components of Kfuse_util.Iset.t list
      (** the block's weak components (at least two), ordered by
          smallest vertex.  The trace shows them as the binary recursion
          makes them: the first component against the union of the rest
          at zero cut weight, then that union likewise, each with its
          {!Legality.check} reason.  Those unions are never decided, or
          offered to [lookup]/[record], on their own. *)

(** [run ?pool ?deadline ?lookup ?record ?edges config pipeline] executes
    Algorithm 1 and returns the final partition with its trace.  With
    [pool], edge weights and the per-block legality/min-cut decisions of
    each recursion wave are evaluated in parallel; every decision is a
    pure function of its block, so the trace and partition are
    bit-identical to the serial run.  [deadline] (default
    {!Kfuse_util.Deadline.none}) is polled between recursion waves; an
    expired deadline raises {!Kfuse_util.Deadline.Expired}, which
    {!Driver.run} converts into graceful degradation.

    [lookup]/[record] are the cross-run memoization hooks used by
    incremental replanning ({!Kfuse_lazy.Replan}): [lookup] is consulted
    once per undecided block (serially, on the calling domain) and a
    [Some] short-circuits {!decision} computation for that block; misses
    are computed as usual and offered to [record] (also serially).
    {b Contract}: [lookup] must return exactly the decision the fresh
    computation would produce — the result is otherwise unspecified.
    [edges] supplies a precomputed weighted fusion graph (it must equal
    {!Benefit.all_edges} for this config and pipeline), letting a caller
    that memoizes edge reports skip re-scoring them. *)
val run :
  ?pool:Kfuse_util.Pool.t ->
  ?deadline:Kfuse_util.Deadline.t ->
  ?lookup:(Kfuse_util.Iset.t -> decision option) ->
  ?record:(Kfuse_util.Iset.t -> decision -> unit) ->
  ?edges:Benefit.edge_report list ->
  Config.t ->
  Kfuse_ir.Pipeline.t ->
  result

(** [partition config pipeline] is [(run config pipeline).partition]. *)
val partition : Config.t -> Kfuse_ir.Pipeline.t -> Kfuse_graph.Partition.t

val pp_step : Kfuse_ir.Pipeline.t -> Format.formatter -> step -> unit
