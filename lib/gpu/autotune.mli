(** Launch-configuration autotuning.

    Hipacc fixes a 32x4 thread-block shape; the best shape actually
    depends on the kernel.  Square-ish blocks amortize a stencil's halo
    over two dimensions (a 16x16 tile of a radius-1 kernel loads
    18x18/256 = 1.27 pixels per output against 34x6/128 = 1.59 for 32x4),
    while wide flat blocks favor coalescing for point kernels.  This
    module searches a candidate set of shapes per kernel under the
    analytic model of {!Perf_model} and reports the per-kernel winners. *)

type choice = {
  kernel_name : string;
  best : Kfuse_ir.Cost.block;
  best_ms : float;
  default_ms : float;  (** time under the default 32x4 shape *)
}

(** [tune_kernel ?params ?candidates device ~quality ~fused pipeline
    kernel] picks the candidate minimizing the modeled time (ties to the
    earlier candidate).  [candidates] defaults to the power-of-two
    shapes from 128 to 512 threads with width at least 16
    (warp-coalescing floor). *)
val tune_kernel :
  ?params:Perf_model.params ->
  ?candidates:Kfuse_ir.Cost.block list ->
  Device.t ->
  quality:Perf_model.quality ->
  fused:bool ->
  Kfuse_ir.Pipeline.t ->
  Kfuse_ir.Kernel.t ->
  choice

(** [tune_pipeline ?params ?candidates device ~quality ~fused_kernels
    pipeline] tunes every kernel independently; returns the choices and
    the (tuned, default) pipeline totals. *)
val tune_pipeline :
  ?params:Perf_model.params ->
  ?candidates:Kfuse_ir.Cost.block list ->
  Device.t ->
  quality:Perf_model.quality ->
  fused_kernels:string list ->
  Kfuse_ir.Pipeline.t ->
  choice list * float * float
