module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline

type kernel_result = {
  kernel_name : string;
  blocks : int;
  t_ms : float;
  drain_events : int;
}

type result = { total_ms : float; kernels : kernel_result list }

(* Extra compute paid by blocks whose pixels include the halo region:
   border-handling index arithmetic and exchange remapping. *)
let border_compute_penalty = 0.25

type block_state = {
  sm : int;
  mutable rem_ops : float;  (** ALU-equivalent issue slots *)
  mutable rem_bytes : float;
}

let eps = 1e-12

(* Fluid simulation of one kernel launch: returns (seconds, drain events). *)
let simulate_kernel (d : Device.t) ~resident_per_sm ~ops_rate ~mem_rate ~block_work =
  let nblocks = Array.length block_work in
  let sm_count = d.Device.sm_count in
  let sm_ops_rate = ops_rate /. float_of_int sm_count in
  let active : block_state list ref = ref [] in
  let sm_load = Array.make sm_count 0 in
  let next = ref 0 in
  let time = ref 0.0 in
  let events = ref 0 in
  let fill () =
    (* Round-robin blocks onto the least-loaded SM with a free slot. *)
    let continue = ref true in
    while !continue && !next < nblocks do
      let best_sm = ref (-1) in
      for sm = sm_count - 1 downto 0 do
        if sm_load.(sm) < resident_per_sm
           && (!best_sm = -1 || sm_load.(sm) <= sm_load.(!best_sm))
        then best_sm := sm
      done;
      if !best_sm = -1 then continue := false
      else begin
        let ops, bytes = block_work.(!next) in
        active := { sm = !best_sm; rem_ops = ops; rem_bytes = bytes } :: !active;
        sm_load.(!best_sm) <- sm_load.(!best_sm) + 1;
        incr next
      end
    done
  in
  fill ();
  while !active <> [] do
    (* Current sharing rates. *)
    let mem_users = List.length (List.filter (fun b -> b.rem_bytes > eps) !active) in
    let sm_ops_users = Array.make sm_count 0 in
    List.iter
      (fun b -> if b.rem_ops > eps then sm_ops_users.(b.sm) <- sm_ops_users.(b.sm) + 1)
      !active;
    let mem_rate_per_block =
      if mem_users = 0 then 0.0 else mem_rate /. float_of_int mem_users
    in
    let ops_rate_of b =
      if sm_ops_users.(b.sm) = 0 then 0.0
      else sm_ops_rate /. float_of_int sm_ops_users.(b.sm)
    in
    (* Earliest resource drain. *)
    let dt =
      List.fold_left
        (fun acc b ->
          let acc =
            if b.rem_ops > eps then
              let r = ops_rate_of b in
              if r > 0.0 then Float.min acc (b.rem_ops /. r) else acc
            else acc
          in
          if b.rem_bytes > eps && mem_rate_per_block > 0.0 then
            Float.min acc (b.rem_bytes /. mem_rate_per_block)
          else acc)
        Float.infinity !active
    in
    let dt = if Float.is_finite dt then dt else 0.0 in
    time := !time +. dt;
    incr events;
    List.iter
      (fun b ->
        if b.rem_ops > eps then
          b.rem_ops <- Float.max 0.0 (b.rem_ops -. (ops_rate_of b *. dt));
        if b.rem_bytes > eps then
          b.rem_bytes <- Float.max 0.0 (b.rem_bytes -. (mem_rate_per_block *. dt)))
      !active;
    let finished, still =
      List.partition (fun b -> b.rem_ops <= eps && b.rem_bytes <= eps) !active
    in
    List.iter (fun b -> sm_load.(b.sm) <- sm_load.(b.sm) - 1) finished;
    active := still;
    fill ()
  done;
  (!time, !events)

let run (d : Device.t) ~quality ~fused_kernels (p : Pipeline.t) =
  let params = Perf_model.default_params in
  let block = { Kfuse_ir.Cost.bx = 32; by = params.Perf_model.threads_per_block / 32 } in
  let kernels =
    Array.to_list p.Pipeline.kernels
    |> List.map (fun (k : Kernel.t) ->
           let fused = List.mem k.Kernel.name fused_kernels in
           let kt = Perf_model.kernel_time ~params d ~quality ~fused p k in
           (* Effective rates, derived from the roofline components so the
              two models share their calibration. *)
           let px = float_of_int (Pipeline.is_pixels p) in
           let bytes_total = px *. kt.Perf_model.global_accesses_per_px *. 4.0 in
           let ops_total = px *. kt.Perf_model.ops_per_px in
           let mem_rate = bytes_total /. (kt.Perf_model.t_mem_ms /. 1e3) in
           let ops_rate = ops_total /. (kt.Perf_model.t_comp_ms /. 1e3) in
           let blocks_x = (p.Pipeline.width + block.bx - 1) / block.bx in
           let blocks_y = (p.Pipeline.height + block.by - 1) / block.by in
           let nblocks = blocks_x * blocks_y * p.Pipeline.channels in
           let px_block = px /. float_of_int nblocks in
           let ops_block = kt.Perf_model.ops_per_px *. px_block in
           let bytes_block = kt.Perf_model.global_accesses_per_px *. 4.0 *. px_block in
           (* Border blocks pay halo handling when the kernel is local. *)
           let radius = Kernel.radius k in
           let interior_x = max 0 (blocks_x - 2) and interior_y = max 0 (blocks_y - 2) in
           let border_blocks_per_plane =
             if radius = 0 then 0 else (blocks_x * blocks_y) - (interior_x * interior_y)
           in
           let block_work =
             Array.init nblocks (fun i ->
                 let in_plane = i mod (blocks_x * blocks_y) in
                 let is_border = radius > 0 && in_plane < border_blocks_per_plane in
                 let ops =
                   if is_border then ops_block *. (1.0 +. border_compute_penalty)
                   else ops_block
                 in
                 (ops, bytes_block))
           in
           let occ =
             Occupancy.compute d ~shared_bytes_per_block:kt.Perf_model.shared_bytes
               ~regs_per_thread:
                 (max params.Perf_model.regs_per_thread (Kfuse_ir.Cost.kernel_registers k))
               ~threads_per_block:params.Perf_model.threads_per_block
           in
           let seconds, drain_events =
             simulate_kernel d ~resident_per_sm:(max 1 occ.Occupancy.active_blocks)
               ~ops_rate ~mem_rate ~block_work
           in
           {
             kernel_name = k.Kernel.name;
             blocks = nblocks;
             t_ms = (seconds *. 1e3) +. params.Perf_model.launch_overhead_ms;
             drain_events;
           })
  in
  let total_ms = List.fold_left (fun acc kr -> acc +. kr.t_ms) 0.0 kernels in
  { total_ms; kernels }
