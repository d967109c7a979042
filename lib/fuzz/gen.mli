(** Seeded generation of arbitrary well-formed pipelines.

    The differential fuzzer's input space: random DAG shapes (chains,
    diamonds, multi-consumer fan-out, shared external inputs), point and
    local kernels with random — including deliberately asymmetric —
    stencil masks, random border modes, scalar parameters, [select]
    expressions, [let] reuse, and occasional global reduction sinks.

    Generation is a pure function of [(seed, index)] via
    {!Kfuse_util.Rng}: the same pair always yields the same pipeline,
    bit for bit, which is what makes failures replayable from nothing
    but the two integers.

    About a third of the cases take hostile names: C keywords, libc and
    math functions, the code generator's own locals and helpers, the C
    names the case's other names become ({!Kfuse_codegen.Lower_common.ident})
    and [<k>_halo] beside a kernel [<k>].  Names draw from a generator
    of their own, split off the case seed, so a case's DAG is the one
    the plain [in%d]/[p%d]/[k%d] naming gives.  No name is a DSL keyword
    or a temporal input name, so every case still unparses.

    The generator stays inside the DSL-representable fragment (only
    [<] selects, no [Shift] nodes, reduction seeds at their DSL
    defaults, [Clamp] borders on zero-offset taps) so every generated
    and every shrunk pipeline can be persisted to a corpus as DSL text.
    It also avoids NaN sources — no division, [pow] only with a
    constant exponent, and logarithms and exponentials only as
    [log(abs e + 0.5)] and [exp(-abs e)] — because the evaluation
    oracles demand {e bitwise} equality, and a NaN produced on both
    sides would compare unequal.

    With [costly], about one Map body in four reads every pixel through
    one of those two: a stencil then repeats a transcendental at each
    tap, and a point kernel becomes a log/exp producer that fusion may
    inline at each tap of a stencil consumer.  Both are the repeated
    costly taps the native backend line-buffers
    ({!Kfuse_codegen.Line_buffer}).  They draw from a third generator
    and change only reads, so the DAG stays the same. *)

(** [case ~seed index] is the [index]-th pipeline of the campaign seeded
    with [seed]; deterministic in [(seed, index)].  [max_kernels]
    (default 10) bounds the DAG size; pipelines have at least 2
    kernels.  [costly] (default [false]) turns on the costly reads
    above; [kfusec fuzz] sets it.  Without it a case is the one earlier
    versions drew, which keeps the DAG pools built from these cases
    (kfbench's plan-mix) the same work across versions. *)
val case : ?max_kernels:int -> ?costly:bool -> seed:int -> int -> Kfuse_ir.Pipeline.t

(** Structural features of a generated pipeline, derived (not tracked),
    for the runner's coverage summary. *)
type features = {
  kernels : int;
  inputs : int;
  conv : bool;  (** a dense odd-square convolution body *)
  asymmetric : bool;  (** some kernel's tap set is not centrally symmetric *)
  select : bool;
  let_reuse : bool;
  reduce : bool;
  param : bool;
  fanout : bool;  (** some kernel output consumed by >= 2 kernels *)
  diamond : bool;  (** >= 2 distinct directed paths between some kernel pair *)
  border_kinds : int;  (** distinct border modes appearing on any tap *)
  temporal : bool;
      (** inputs follow the streaming convention ([prev]/[prevN] lags,
          see {!Kfuse_ir.Temporal}) — roughly a quarter of cases *)
  line_buffer : bool;
      (** some kernel, before fusion, has repeated costly taps to
          line-buffer *)
}

val features : Kfuse_ir.Pipeline.t -> features

(** [feature_flags f] renders the boolean features as labelled flags, in
    a fixed order, for aggregation into a coverage table. *)
val feature_flags : features -> (string * bool) list
