(** Analytic execution-time model.

    This module substitutes for running generated CUDA on hardware (see
    DESIGN.md): per-kernel time is the maximum of a bandwidth term and a
    compute term — the classic roofline — plus a launch overhead, derated
    by occupancy when shared-memory usage starves the SMs of warps.

    Memory traffic is derived from the kernel IR the same way the
    paper's benefit model reasons about it: every distinct input image is
    streamed once per pixel (local operators pay a tile-halo factor for
    their shared-memory staging), the output is written once, and
    intermediate images eliminated by fusion simply no longer appear.
    Compute is the ALU/SFU count of the (possibly fused) body, so the
    redundant recomputation introduced by point-to-local and
    local-to-local fusion is priced automatically — fused bodies contain
    the recomputed taps.

    Codegen quality: [Basic_codegen] models the generated code of the
    prior-work basic fusion [12], which lacks the optimized staging and
    index arrangements of this paper's Section IV; its fused kernels run
    at a lower effective bandwidth.  Kernels untouched by fusion are
    identical under both qualities. *)

type quality = Optimized | Basic_codegen

(** Tunable model constants; see {!default_params}. *)
type params = {
  eff_point : float;  (** fraction of peak bandwidth for streaming (point) kernels *)
  eff_local : float;  (** same, for shared-memory staged (local) kernels *)
  basic_fused_penalty : float;
      (** extra bandwidth-efficiency multiplier for fused kernels compiled
          by the basic technique *)
  sfu_throughput_cost : float;  (** issue slots per SFU op, relative to ALU *)
  shared_access_cost : float;  (** issue slots per shared-memory access *)
  launch_overhead_ms : float;  (** per kernel launch *)
  threads_per_block : int;
  regs_per_thread : int;
      (** register-usage floor; each kernel's occupancy uses the larger of
          this and {!Kfuse_ir.Cost.kernel_registers} (Section II-B.1) *)
}

val default_params : params

(** Per-kernel cost account. *)
type kernel_time = {
  kernel_name : string;
  fused : bool;  (** produced by fusing 2+ kernels *)
  global_accesses_per_px : float;  (** loads + stores, tile factors included *)
  ops_per_px : float;  (** ALU-equivalent issue slots per pixel *)
  shared_bytes : int;  (** shared memory per block *)
  occupancy : float;
  t_mem_ms : float;
  t_comp_ms : float;
  t_ms : float;  (** max of the two, derated, plus launch overhead *)
}

(** [kernel_time ?params ?block device ~quality ~fused pipeline kernel]
    prices one kernel of [pipeline].  [block] overrides the thread-block
    shape (default 32 x [threads_per_block/32]); occupancy then uses
    [bx * by] threads. *)
val kernel_time :
  ?params:params ->
  ?block:Kfuse_ir.Cost.block ->
  Device.t ->
  quality:quality ->
  fused:bool ->
  Kfuse_ir.Pipeline.t ->
  Kfuse_ir.Kernel.t ->
  kernel_time

(** [pipeline_time ?params device ~quality ~fused_kernels pipeline] prices
    a whole pipeline; [fused_kernels] names the kernels that are fusion
    products.  Returns the per-kernel breakdown and the total. *)
val pipeline_time :
  ?params:params ->
  ?block:Kfuse_ir.Cost.block ->
  Device.t ->
  quality:quality ->
  fused_kernels:string list ->
  Kfuse_ir.Pipeline.t ->
  kernel_time list * float

val quality_to_string : quality -> string
