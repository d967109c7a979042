(** Run simulation: repeated measurements with noise, as in Figure 6.

    The paper performs 500 runs per implementation per GPU and reports
    box plots.  Here each "run" samples the analytic pipeline time with a
    small multiplicative jitter plus a one-sided tail (real GPU timings
    skew towards occasional slower runs — "the first call to a GPU
    device takes longer", appendix G), from a deterministic generator
    seeded by the experiment identity. *)

type measurement = {
  device : Device.t;
  quality : Perf_model.quality;
  breakdown : Perf_model.kernel_time list;
  model_ms : float;  (** noise-free model time *)
  samples : float array;  (** simulated run times, ms *)
  summary : Kfuse_util.Stats.summary;
}

(** [measure ?runs ?seed ?pool device ~quality ~fused_kernels pipeline]
    prices the pipeline under {!Perf_model.default_params} and simulates
    [runs] (default 500)
    measurements.  The default [seed] hashes the device and pipeline
    names so each experiment cell gets an independent, reproducible
    stream.  Each run draws from its own generator split off the seed,
    so with [pool] the runs are sampled in parallel and the samples are
    bit-identical to a serial measurement. *)
val measure :
  ?runs:int ->
  ?seed:int ->
  ?pool:Kfuse_util.Pool.t ->
  Device.t ->
  quality:Perf_model.quality ->
  fused_kernels:string list ->
  Kfuse_ir.Pipeline.t ->
  measurement

(** [speedup a b] is the ratio of median times [a/b] — the paper derives
    its speedup tables "from the median value of the obtained
    statistics" (appendix F). *)
val speedup : measurement -> measurement -> float
