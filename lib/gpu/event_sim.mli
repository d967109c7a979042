(** Discrete-event GPU execution simulator.

    A finer-grained alternative to the analytic roofline of
    {!Perf_model}: kernels launch a grid of thread blocks; each SM hosts
    as many resident blocks as occupancy allows; every resident block
    drains a compute demand (against its SM's shared throughput) and a
    memory demand (against the device's shared bandwidth) {e in
    parallel} — a fluid processor-sharing model in which latency hiding
    emerges from the overlap rather than being assumed by a [max].

    Two block classes are distinguished: interior blocks, and border
    blocks whose pixels include the halo region of local kernels and
    therefore pay extra border-handling work (index clamping / exchange)
    — so, unlike the roofline, the simulated time depends on the
    interior/halo split of Section IV-B and grows when images shrink.

    The simulator is deterministic and is used by the `eventsim`
    benchmark to cross-validate the roofline model; the 500-run noise
    simulation of Figure 6 stays with {!Sim}. *)

type kernel_result = {
  kernel_name : string;
  blocks : int;  (** grid size *)
  t_ms : float;  (** simulated kernel time *)
  drain_events : int;  (** resource-drain events processed *)
}

type result = {
  total_ms : float;  (** end-to-end pipeline time incl. launch overheads *)
  kernels : kernel_result list;
}

(** [run device ~quality ~fused_kernels pipeline] simulates the
    pipeline's kernels back to back under
    {!Perf_model.default_params}.  Parameters mirror
    {!Perf_model.pipeline_time}. *)
val run :
  Device.t ->
  quality:Perf_model.quality ->
  fused_kernels:string list ->
  Kfuse_ir.Pipeline.t ->
  result
