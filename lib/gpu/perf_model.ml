module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Cost = Kfuse_ir.Cost

type quality = Optimized | Basic_codegen

type params = {
  eff_point : float;
  eff_local : float;
  basic_fused_penalty : float;
  sfu_throughput_cost : float;
  shared_access_cost : float;
  launch_overhead_ms : float;
  threads_per_block : int;
  regs_per_thread : int;
}

let default_params =
  {
    eff_point = 0.85;
    eff_local = 0.65;
    basic_fused_penalty = 0.85;
    sfu_throughput_cost = 16.0;
    shared_access_cost = 0.5;
    launch_overhead_ms = 0.005;
    threads_per_block = 128;
    regs_per_thread = 32;
  }

type kernel_time = {
  kernel_name : string;
  fused : bool;
  global_accesses_per_px : float;
  ops_per_px : float;
  shared_bytes : int;
  occupancy : float;
  t_mem_ms : float;
  t_comp_ms : float;
  t_ms : float;
}

(* Halo overhead of staging a windowed footprint in shared memory: tile
   elements loaded from global per output pixel. *)
let tile_factor (block : Cost.block) w =
  if Kfuse_ir.Footprint.is_point w then 1.0
  else
    float_of_int (Cost.tile_bytes_window block w / 4)
    /. float_of_int (block.bx * block.by)

let block_of_params p = { Cost.bx = 32; by = p.threads_per_block / 32 }

(* Number of body accesses per input image (taps), for shared-memory
   read counting. *)
let taps_per_image (k : Kernel.t) =
  let e = match k.Kernel.op with Kernel.Map e -> e | Kernel.Reduce { arg; _ } -> arg in
  List.fold_left
    (fun acc (img, _, _) ->
      let prev = match List.assoc_opt img acc with Some n -> n | None -> 0 in
      (img, prev + 1) :: List.remove_assoc img acc)
    [] (Expr.accesses e)

let kernel_time ?(params = default_params) ?block (d : Device.t) ~quality ~fused
    (p : Pipeline.t) (k : Kernel.t) =
  let block = match block with Some b -> b | None -> block_of_params params in
  let threads_per_block = block.Cost.bx * block.Cost.by in
  let footprints = Kfuse_ir.Footprint.of_kernel k in
  let is_reduce = Kernel.is_global k in
  let px = float_of_int (Pipeline.is_pixels p) in
  (* Global traffic: one (tile-factored) stream per distinct input image,
     plus the output store. *)
  let loads =
    List.fold_left (fun acc (_, w) -> acc +. tile_factor block w) 0.0 footprints
  in
  let stores = if is_reduce then 0.0 else 1.0 in
  let global_accesses = loads +. stores in
  let bytes_per_px = global_accesses *. 4.0 in
  (* Shared-memory accesses: staged (windowed) images pay the tile fill
     plus one read per tap. *)
  let taps = taps_per_image k in
  let shared_accesses =
    List.fold_left
      (fun acc (img, w) ->
        if not (Kfuse_ir.Footprint.is_point w) then
          let t = match List.assoc_opt img taps with Some n -> float_of_int n | None -> 0.0 in
          acc +. tile_factor block w +. t
        else acc)
      0.0 footprints
  in
  let counts = Cost.kernel_op_counts k in
  let ops_per_px =
    float_of_int counts.Cost.alu
    +. (params.sfu_throughput_cost *. float_of_int counts.Cost.sfu)
    +. (params.shared_access_cost *. shared_accesses)
  in
  let shared_bytes = Cost.kernel_shared_bytes block k in
  let regs_per_thread = max params.regs_per_thread (Cost.kernel_registers k) in
  let occ =
    Occupancy.compute d ~shared_bytes_per_block:shared_bytes ~regs_per_thread
      ~threads_per_block
  in
  let is_local = Kernel.is_local k in
  let eff =
    (if is_local then params.eff_local else params.eff_point)
    *. (match quality with
       | Optimized -> 1.0
       | Basic_codegen -> if fused then params.basic_fused_penalty else 1.0)
  in
  let bw = Device.peak_bandwidth_bytes_per_s d *. eff in
  let ops_rate = Device.compute_throughput_ops_per_s d in
  let t_mem_ms = px *. bytes_per_px /. bw *. 1e3 in
  let t_comp_ms = px *. ops_per_px /. ops_rate *. 1e3 in
  let derate = Occupancy.latency_hiding_factor occ.Occupancy.occupancy in
  let t_ms = (Float.max t_mem_ms t_comp_ms /. derate) +. params.launch_overhead_ms in
  {
    kernel_name = k.Kernel.name;
    fused;
    global_accesses_per_px = global_accesses;
    ops_per_px;
    shared_bytes;
    occupancy = occ.Occupancy.occupancy;
    t_mem_ms;
    t_comp_ms;
    t_ms;
  }

let pipeline_time ?(params = default_params) ?block d ~quality ~fused_kernels
    (p : Pipeline.t) =
  let breakdown =
    Array.to_list p.Pipeline.kernels
    |> List.map (fun k ->
           let fused = List.mem k.Kernel.name fused_kernels in
           kernel_time ~params ?block d ~quality ~fused p k)
  in
  let total = List.fold_left (fun acc kt -> acc +. kt.t_ms) 0.0 breakdown in
  (breakdown, total)

let quality_to_string = function
  | Optimized -> "optimized"
  | Basic_codegen -> "basic"
