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
      [void kfuse_entry(const double** ins, double** outs, const double* params,
      double* workspace)] (appended to the generated source).  Cheapest
      per call.
    - {!Subprocess}: build a standalone executable that runs as a
      persistent, rlimited runner child ({!Supervisor.Runner}), one per
      artifact, kept warm between requests.  Images travel through a
      memfd arena: the inputs in declaration order, then the parameter
      values, then the outputs in {!Kfuse_ir.Pipeline.outputs} order,
      all packed native-endian float64.  The parent sends a request
      frame over a pipe and the runner answers once its kernels have
      run.  Images the parent [pwrite]s and [pread]s whole; a {!Random}
      input the runner draws into its arena itself, and {!Summaries} it
      folds out of it and sends back in the reply, so a request that
      wants no pixels moves no pixel through the caller.  The caller
      never maps the arena: an I/O error there is a [KF0904], never a
      fault in the caller, and the arena never counts in the caller's
      resident set.  A request frame whose byte counts disagree with the
      arena stops the runner ([KF0904]); a reply that reports the wrong
      output size or never arrives is a [KF0904] too.  Any failure kills
      the runner; the next request spawns a fresh one.  Slower than
      {!Dlopen} (a pipe round trip per run, and a copy each way for
      images) but survives environments where loading
      untrusted-at-build-time objects into the host process is
      unwanted.

    Neither mode allocates the driver's intermediates per call: they
    live in a workspace ({!Kfuse_codegen.Lower_cpu.workspace_scalars})
    that a runner allocates once at start-up and a pinned {!Dlopen}
    plan at {!prepare}, freeing it at {!release}.  A one-shot {!run}
    is a {!prepare}, a call and a {!release}, so it gets one of its
    own.  Two calls in flight never share a workspace: {!run_plan}
    calls on one plan from several threads take turns on it.

    Artifacts are content-addressed in a cache directory: the key folds
    the pipeline's exact fingerprint ({!Kfuse_cache.Fingerprint.exact}),
    the mode, the tiling, the toolchain and the ABI version, so a cache
    hit skips the compiler entirely.  The generated source is kept next
    to each artifact for debugging.

    Both the compiler invocation and every {!Subprocess} runner are
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

val abi_version : int
(** Version of the generated entry points and the runner protocol,
    folded into every artifact key.  A runner request is eleven
    native-endian int64s [{abi_version; input bytes; output bytes;
    fault code; flags; generator state s0..s3; lo; span}] on its fd 4:
    flag 1 draws the inputs into the arena from that state, flag 2
    folds the outputs.  The reply on its fd 5 is [{abi_version; output
    bytes; kernel nanoseconds; generator state after the draw}] and the
    min, max and row-major sum of each output, seven int64s plus three
    float64s per output. *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

(** How and what a run executed; ['o] is what it returned of the
    outputs, pixels or summaries ({!output}). *)
type 'o ran = {
  outputs : 'o;
      (** per sink, sorted by name — the same shape
          {!Kfuse_ir.Eval.run_outputs} returns; reduction outputs are
          1x1 *)
  mode_used : mode;
  artifact : string;  (** path of the compiled object/executable *)
  cached : bool;  (** the artifact came from the compile cache *)
  compile_ms : float;  (** wall-clock spent in the C compiler; 0 on a hit *)
  exec_ms : float;  (** fastest execution sample *)
  samples_ms : float list;
      (** every execution sample, in run order: the kernels' own time,
          as a {!Subprocess} runner measures it around its call or the
          caller around the {!Dlopen} call *)
  warnings : Diag.t list;
      (** e.g. the [KF0904] that made {!run} fall back from {!Dlopen}
          to {!Subprocess} *)
}

type run_result = (string * Image.t) list ran
(** A run that returned the sink images. *)

(** {1 Inputs, outputs and summaries} *)

(** What a sink looked like without its pixels: min, max and the sum
    of its pixels in row-major order, with a NaN never a min or max
    (the loop is [if v < min then min <- v; if v > max then max <- v;
    sum <- sum +. v], from [infinity], [neg_infinity] and [0.]). *)
type summary = { width : int; height : int; min : float; max : float; sum : float }

val mean : summary -> float
(** [sum /. (width * height)]. *)

val summarize : Image.t -> summary
(** The summary of an image, by the same C loop that a sandboxed
    runner folds its outputs with ([kfuse_arena.h]). *)

(** A run's inputs: images binding exactly the pipeline's inputs, or a
    generator that draws them: each of [Pipeline.inputs] in order is
    [Image.random rng ~lo ~hi] at the pipeline's extent, with [rng]
    advanced as those calls would leave it.  A {!Subprocess} runner
    draws them straight into its arena, never into an OCaml array; both
    draw by the one C loop of [kfuse_arena.h]. *)
type input =
  | Images of (string * Image.t) list
  | Random of { rng : Kfuse_util.Rng.t; lo : float; hi : float }

(** What a run returns of its outputs.  A {!Subprocess} runner folds
    {!Summaries} out of its arena itself and returns them in its
    reply. *)
type _ output =
  | Pixels : (string * Image.t) list output
  | Summaries : (string * summary) list output

val materialize : Pipeline.t -> input -> (string * Image.t) list
(** The images an {!input} stands for (drawing them advances [rng]),
    drawn by the C loop a sandboxed runner draws with. *)

(** [check_limits limits p] refuses, with [KF0907], a request for [p]
    that could never run under [limits]: outputs over [fsize_bytes], or
    arena plus workspace over [mem_bytes].  It reads only [p]'s shape,
    so a caller can refuse before compiling or allocating anything. *)
val check_limits : Supervisor.limits -> Pipeline.t -> (unit, Diag.t) result

(** [source ~mode p] is the complete C translation unit compiled for
    [p] in [mode]: the {!Kfuse_codegen.Lower_cpu.emit_pipeline} output
    in double precision, a file-scope typedef that refuses to compile
    unless [kf_scalar] is float64, and the [kfuse_entry] wrapper
    ({!Dlopen}) or the runner's request loop ({!Subprocess}).  Both
    wrappers pass float64 buffers to the pipeline in place. *)
val source : mode:mode -> Pipeline.t -> string

(** [compile ?cache_dir ~mode p] ensures a compiled artifact for
    [p] exists and returns [(path, compile_ms, cached)].  [cache_dir]
    defaults to a [native] directory under
    {!Kfuse_cache.Plan_cache.default_dir}. *)
val compile :
  ?cache_dir:string ->
  mode:mode ->
  Pipeline.t ->
  (string * float * bool, Diag.t) result

(** [run ?mode ?cache_dir ?params ?repeat ?deadline ?limits p
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
    and in {!Subprocess} mode it also feeds each request's watchdog,
    so a wedged runner is killed rather than outlived.  [limits]
    (default {!Supervisor.no_limits}) applies rlimits to {!Subprocess}
    runners: RLIMIT_CPU per request, RLIMIT_AS and RLIMIT_FSIZE at
    spawn, and an output larger than [fsize_bytes] is refused up front
    ([KF0907]).  {!Dlopen} runs in-process and cannot be
    resource-capped — that is exactly why [kfused] defaults to the
    sandboxed subprocess path.

    [mode] selects the backend as in {!prepare}, including the
    {!Dlopen}-to-{!Subprocess} fallback when it is omitted.  A run is
    {!prepare}, one {!run_plan} and {!release}. *)
val run :
  ?mode:mode ->
  ?cache_dir:string ->
  ?params:(string * float) list ->
  ?repeat:int ->
  ?deadline:Deadline.t ->
  ?limits:Supervisor.limits ->
  Pipeline.t ->
  (string * Image.t) list ->
  (run_result, Diag.t) result

(** [execute ?mode ?cache_dir ?params ?repeat ?deadline ?limits p
    input output] is {!run} with its inputs given as an {!input} and
    its outputs returned as [output] asks.  [run p inputs] is
    [execute p (Images inputs) Pixels]. *)
val execute :
  ?mode:mode ->
  ?cache_dir:string ->
  ?params:(string * float) list ->
  ?repeat:int ->
  ?deadline:Deadline.t ->
  ?limits:Supervisor.limits ->
  Pipeline.t ->
  input ->
  'o output ->
  ('o ran, Diag.t) result

(** {1 Pinned plans}

    A {!plan} amortizes the per-call setup of {!run} across many
    executions of the same pipeline — the unit of work of a stream
    session.  {!prepare} pays for the compile-cache lookup (and, in
    {!Dlopen} mode, the [dlopen]+[dlsym]) exactly once; {!run_plan} is
    then a bare entry-point call ({!Dlopen}) or a request to a warm
    runner of the already-built executable ({!Subprocess}), with no
    cache lookup, no loader traffic and no compiler anywhere on the
    per-frame path. *)

type plan
(** A compiled pipeline pinned in memory: artifact path plus, in
    {!Dlopen} mode, the loaded handle, the resolved entry point and the
    workspace for its intermediates. *)

(** [prepare ?cache_dir ?mode p] compiles (or reuses) the artifact
    for [p] and pins it.  In {!Dlopen} mode the shared object is loaded,
    the entry point resolved and the workspace allocated immediately; a
    load or allocation failure is [KF0904].  When [mode] is omitted, {!Dlopen} is tried first and a
    [KF0904] load failure falls back to {!Subprocess}, recording the
    failure in {!plan_warnings}; an explicit [mode] never falls back. *)
val prepare :
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
(** Drop the pinned handle ([dlclose] and free the workspace in
    {!Dlopen} mode, after any call using it returns).  Idempotent.
    A {!Subprocess} plan's runners belong to the process-wide pool and
    stay warm for the next plan of the same artifact. *)

val compiles : unit -> int
(** Process-wide count of real compiler invocations (compile-cache
    misses) since startup.  Tests assert per-stream compile counts as
    deltas of this counter. *)

(** {1 The runner pool}

    {!Subprocess} runs check a runner out of one process-wide pool,
    keyed by artifact and rlimits, and check it back in when the run
    succeeds.  At most 8 runners holding at most 256 MiB of arena and
    workspace between them stay idle (least recently used ones are
    retired; a runner whose arena plus workspace alone is larger
    retires at once), and a runner
    retires after {!Supervisor.Runner.request_cap} requests. *)

type runner_stats = {
  runners : int;  (** live now, idle or serving *)
  runner_spawns : int;  (** since startup *)
  runner_kills : int;  (** killed after a failed request, since startup *)
  runner_cpu_ms : float;  (** utime + stime of the live runners *)
}

val runner_stats : unit -> runner_stats

val shutdown_runners : unit -> unit
(** Retire every idle runner (close its request pipe, reap it).  Also
    runs [at_exit]. *)
