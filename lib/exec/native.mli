(** Native compile-and-execute backend: fused plans that return pixels.

    Takes a pipeline (typically the [fused] result of
    {!Kfuse_fusion.Driver.run}), emits the C + OpenMP source via
    {!Kfuse_codegen.Lower_cpu}, compiles it with the host toolchain
    ({!Toolchain}), and runs it on concrete {!Kfuse_image.Image.t}
    inputs — real pixels out, directly comparable against the
    {!Kfuse_ir.Eval} interpreter.

    Two execution modes share one compile cache:

    - {!Dlopen}: build a shared object, load it in-process through a
      small C stub against the fixed entry point
      [void kfuse_entry(const double** ins, double** outs, const double* params)]
      (ABI v2, appended to the generated source).  Cheapest per call.
    - {!Subprocess}: build a standalone executable [artifact IN OUT]
      and run it as a child process.  [IN] holds packed native-endian
      float64: the inputs in declaration order, then the parameter
      values.  [OUT] receives the outputs in {!Kfuse_ir.Pipeline.outputs}
      order in the same format.  The child maps [IN] read-only, sizes
      [OUT] with [ftruncate] and maps it shared, so the kernels read and
      write the maps in place; the parent writes [IN] and reads [OUT]
      with plain reads and writes, so an I/O error there (a full temp
      filesystem, say) is a [KF0904], never a fault in the caller.  A
      short [IN] fails the child ("truncated input"/"truncated
      parameters", [KF0904]); an [OUT] of the wrong size is a [KF0904]
      found before the parent reads it.  Slower than {!Dlopen} (a process spawn per
      run) but survives environments where loading
      untrusted-at-build-time objects into the host process is unwanted.

    Artifacts are content-addressed in a cache directory: the key folds
    the pipeline's exact fingerprint ({!Kfuse_cache.Fingerprint.exact}),
    the mode, the tiling, the toolchain and the ABI version, so a cache
    hit skips the compiler entirely.  The generated source is kept next
    to each artifact for debugging.

    Both the compiler invocation and every {!Subprocess} execution are
    supervised fork/exec children ({!Supervisor}) — no shell anywhere —
    so they can be killed on a deadline and, when [limits] are given,
    sandboxed with rlimits.

    Failures are typed: no toolchain is [KF0902]
    ({!Kfuse_util.Diag.Toolchain_missing}), a compiler rejection is
    [KF0903] ({!Kfuse_util.Diag.Compile_failed}, carrying the
    compiler's stderr), and load/run failures are [KF0904]
    ({!Kfuse_util.Diag.Exec_failed}); a supervised execution that the
    watchdog kills, that dies on a signal, or that hits an rlimit is
    [KF0905]/[KF0906]/[KF0907] (see {!Supervisor}).  Malformed {e calls}
    — inputs that do not bind exactly the pipeline's input names at the
    pipeline's extents, unknown parameter overrides — raise
    [Invalid_argument], mirroring {!Kfuse_ir.Eval.run}. *)

module Diag := Kfuse_util.Diag
module Deadline := Kfuse_util.Deadline
module Image := Kfuse_image.Image
module Pipeline := Kfuse_ir.Pipeline

type mode = Dlopen | Subprocess

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

(** How and what a {!run} executed. *)
type run_result = {
  outputs : (string * Image.t) list;
      (** sink images sorted by name — the same shape
          {!Kfuse_ir.Eval.run_outputs} returns; reduction outputs are
          1x1 images *)
  mode_used : mode;
  artifact : string;  (** path of the compiled object/executable *)
  cached : bool;  (** the artifact came from the compile cache *)
  compile_ms : float;  (** wall-clock spent in the C compiler; 0 on a hit *)
  exec_ms : float;  (** fastest execution sample *)
  samples_ms : float list;  (** every execution sample, in run order *)
  warnings : Diag.t list;
      (** e.g. the [KF0904] that made {!run} fall back from {!Dlopen}
          to {!Subprocess} *)
}

(** [source ?tile ~mode p] is the complete C translation unit compiled
    for [p] in [mode]: the {!Kfuse_codegen.Lower_cpu.emit_pipeline}
    output plus the ABI-v2 [kfuse_entry] wrapper ({!Dlopen}) or the
    file-marshalling [main] ({!Subprocess}). *)
val source : ?tile:int * int -> mode:mode -> Pipeline.t -> string

(** [compile ?cache_dir ?tile ~mode p] ensures a compiled artifact for
    [p] exists and returns [(path, compile_ms, cached)].  [cache_dir]
    defaults to a [native] directory under
    {!Kfuse_cache.Plan_cache.default_dir}. *)
val compile :
  ?cache_dir:string ->
  ?tile:int * int ->
  mode:mode ->
  Pipeline.t ->
  (string * float * bool, Diag.t) result

(** [run ?mode ?tile ?cache_dir ?params ?repeat ?deadline ?limits p
    inputs] compiles (or reuses) the artifact and executes it on
    [inputs].

    [inputs] must bind exactly [p.inputs], each of the pipeline's
    extent.  [params] overrides pipeline parameter defaults by name.
    [repeat] (default 1) executes the plan that many times over the
    same buffers — [exec_ms] is the fastest sample, for benchmarking;
    outputs come from the last run.

    [deadline] (default {!Deadline.none}) bounds the whole execution:
    it is checked between [repeat] timing samples in both modes (a
    large [repeat] stops early with [KF0905] instead of overrunning),
    and in {!Subprocess} mode it also feeds the supervisor's watchdog,
    so a wedged child is killed rather than outlived.  [limits]
    (default {!Supervisor.no_limits}) applies rlimits to {!Subprocess}
    children; {!Dlopen} runs in-process and cannot be resource-capped —
    that is exactly why [kfused] defaults to the sandboxed subprocess
    path.

    [mode] selects the backend as in {!prepare}, including the
    {!Dlopen}-to-{!Subprocess} fallback when it is omitted.  A run is
    {!prepare}, one {!run_plan} and {!release}. *)
val run :
  ?mode:mode ->
  ?tile:int * int ->
  ?cache_dir:string ->
  ?params:(string * float) list ->
  ?repeat:int ->
  ?deadline:Deadline.t ->
  ?limits:Supervisor.limits ->
  Pipeline.t ->
  (string * Image.t) list ->
  (run_result, Diag.t) result

(** {1 Pinned plans}

    A {!plan} amortizes the per-call setup of {!run} across many
    executions of the same pipeline — the unit of work of a stream
    session.  {!prepare} pays for the compile-cache lookup (and, in
    {!Dlopen} mode, the [dlopen]+[dlsym]) exactly once; {!run_plan} is
    then a bare entry-point call ({!Dlopen}) or a supervised spawn of
    the already-built executable ({!Subprocess}), with no cache lookup,
    no loader traffic and no compiler anywhere on the per-frame path. *)

type plan
(** A compiled pipeline pinned in memory: artifact path plus, in
    {!Dlopen} mode, the loaded handle and resolved entry point. *)

(** [prepare ?tile ?cache_dir ?mode p] compiles (or reuses) the artifact
    for [p] and pins it.  In {!Dlopen} mode the shared object is loaded
    and the entry point resolved immediately; a load failure is
    [KF0904].  When [mode] is omitted, {!Dlopen} is tried first and a
    [KF0904] load failure falls back to {!Subprocess}, recording the
    failure in {!plan_warnings}; an explicit [mode] never falls back. *)
val prepare :
  ?tile:int * int ->
  ?cache_dir:string ->
  ?mode:mode ->
  Pipeline.t ->
  (plan, Diag.t) result

val plan_mode : plan -> mode
val plan_artifact : plan -> string

val plan_cached : plan -> bool
(** Whether {!prepare} found the artifact already in the compile cache. *)

val plan_compile_ms : plan -> float
(** Wall-clock the C compiler took at {!prepare} time; [0] on a hit. *)

val plan_warnings : plan -> Diag.t list
(** The [KF0904] that made {!prepare} fall back to {!Subprocess}, if any. *)

val plan_pipeline : plan -> Pipeline.t

(** [run_plan ?params ?repeat ?deadline ?limits plan inputs] executes
    the pinned plan; contract as {!run} ([inputs] binds exactly the
    pipeline's inputs, failures are typed [KF0904..KF0907]), except
    nothing is compiled or loaded: [compile_ms] is always [0] and
    [cached] reports what {!prepare} saw.
    @raise Invalid_argument after {!release}. *)
val run_plan :
  ?params:(string * float) list ->
  ?repeat:int ->
  ?deadline:Deadline.t ->
  ?limits:Supervisor.limits ->
  plan ->
  (string * Image.t) list ->
  (run_result, Diag.t) result

val release : plan -> unit
(** Drop the pinned handle ([dlclose] in {!Dlopen} mode).  Idempotent. *)

val compiles : unit -> int
(** Process-wide count of real compiler invocations (compile-cache
    misses) since startup.  Tests assert per-stream compile counts as
    deltas of this counter. *)
