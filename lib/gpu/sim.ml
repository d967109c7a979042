module Stats = Kfuse_util.Stats
module Rng = Kfuse_util.Rng

type measurement = {
  device : Device.t;
  quality : Perf_model.quality;
  breakdown : Perf_model.kernel_time list;
  model_ms : float;
  samples : float array;
  summary : Stats.summary;
}

let default_seed (d : Device.t) (p : Kfuse_ir.Pipeline.t) quality =
  Hashtbl.hash (d.Device.name, p.Kfuse_ir.Pipeline.name, Perf_model.quality_to_string quality)

let measure ?(runs = 500) ?seed
    ?(pool = Kfuse_util.Pool.serial) d ~quality ~fused_kernels pipeline =
  if runs <= 0 then invalid_arg "Sim.measure: runs must be positive";
  let seed = match seed with Some s -> s | None -> default_seed d pipeline quality in
  let breakdown, model_ms =
    Perf_model.pipeline_time d ~quality ~fused_kernels pipeline
  in
  (* One generator per run, split serially from the master seed: run [i]
     draws the same numbers whether the sampling loop below executes on
     one domain or many. *)
  let master = Rng.create seed in
  let streams = Array.init runs (fun _ -> Rng.split master) in
  let samples = Array.make runs 0.0 in
  Kfuse_util.Pool.run pool ~chunk:64 ~n:runs (fun i ->
      (* Symmetric 0.6% jitter plus a one-sided exponential-ish tail of
         about 1.5% of the runtime: medians stay at the model value
         while maxima poke upward, giving Figure 6's whisker shape. *)
      Kfuse_util.Faults.hit "sim.sample";
      let rng = streams.(i) in
      let jitter = 1.0 +. (0.006 *. Rng.gaussian rng) in
      let tail = 0.015 *. model_ms *. Float.abs (Rng.gaussian rng) in
      samples.(i) <- Float.max 0.0 ((model_ms *. jitter) +. tail));
  { device = d; quality; breakdown; model_ms; samples; summary = Stats.summarize samples }

let speedup a b = a.summary.Stats.median /. b.summary.Stats.median
