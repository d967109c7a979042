(** Native fused-vs-unfused benchmark over the registry applications.

    For each selected {!Kfuse_apps.Registry} entry this builds the
    pipeline, runs the fusion driver twice — [Baseline] (every kernel
    its own launch) and [Mincut] with [optimize] (the paper's
    algorithm) — compiles both through {!Native}, executes them on
    identical deterministic random inputs, and checks both against the
    {!Kfuse_ir.Eval} interpreter.  The result serializes to the
    [BENCH_native.json] schema documented in [EXPERIMENTS.md].

    Wall-clocks are the median of [runs] executions of the compiled
    plan, with their interquartile range (compile time reported
    separately), so the fused/unfused ratio isolates the memory-traffic
    effect kernel fusion exists to buy. *)

module Diag := Kfuse_util.Diag

type app_report = {
  app : string;
  width : int;
  height : int;
  channels : int;
  kernels_unfused : int;
  kernels_fused : int;
  compile_ms_unfused : float;
  compile_ms_fused : float;
  exec_ms_unfused : float;  (** median sample *)
  exec_ms_fused : float;  (** median sample *)
  exec_iqr_ms_unfused : float;  (** 75th minus 25th percentile of the samples *)
  exec_iqr_ms_fused : float;
  samples_unfused : float list;
  samples_fused : float list;
  interp_ms : float;  (** interpreter reference *)
  diff_unfused : float;
      (** max abs diff vs. interpreter over all outputs
          ({!Kfuse_image.Image.max_abs_diff}) *)
  diff_fused : float;
  exact_unfused : bool;  (** every output bit-identical to the interpreter's *)
  exact_fused : bool;
}

type t = {
  cc : string;
  openmp : bool;
  mode : Native.mode;
  runs : int;
  host_cores : int;  (** [Domain.recommended_domain_count ()] *)
  generated_at : float;  (** unix seconds *)
  apps : app_report list;
}

(** [speedup r] is [exec_ms_unfused /. exec_ms_fused], median over median. *)
val speedup : app_report -> float

(** [max_diff t] is the worst interpreter-vs-native difference across
    every app and variant, the report beside {!exact}. *)
val max_diff : t -> float

(** [exact t] holds when every output of every app and variant is bit
    for bit the interpreter's ({!Kfuse_image.Image.equal}: a NaN, and
    the sign of a zero, included).  The backend is bit-exact by design,
    so [false] is a bug. *)
val exact : t -> bool

(** [run ()] benchmarks [apps] (default: every registry application,
    at the paper's evaluation sizes; [width]/[height] override the
    iteration space for quicker runs).  [runs] (default 5) executions
    per variant.  Nonpositive [runs], [width] or [height] and unknown
    application names are rejected before the toolchain is probed.
    Fails with the first toolchain/compile/exec diagnostic. *)
val run :
  ?mode:Native.mode ->
  ?cache_dir:string ->
  ?runs:int ->
  ?width:int ->
  ?height:int ->
  ?apps:string list ->
  unit ->
  (t, Diag.t) result

(** [to_json t] renders the [kfuse-bench-native/v2] document. *)
val to_json : t -> string

val pp_summary : Format.formatter -> t -> unit
