(* Tour of the extensions built around the paper's core:

   1. kernel distribution  - split a separable 5x5 Gaussian into two 1-D
      passes (the paper's stated future work);
   2. Algorithm 1          - re-fuse what distribution separated;
   3. producer inlining    - eliminate shared intermediates the partition
      model must keep (Figure 2c);
   4. cleanup passes       - simplify + CSE over the fused bodies;
   5. launch autotuning    - pick thread-block shapes under the GPU model;
   6. CPU backend          - emit C + OpenMP for the result, split into
                             a clamp-free interior and a bordered halo.

   Run with: dune exec examples/extensions_tour.exe *)

module F = Kfuse_fusion
module G = Kfuse_gpu
module Ir = Kfuse_ir
module Img = Kfuse_image
module Iset = Kfuse_util.Iset

let () =
  (* A difference-of-Gaussians sharpener with a shared input. *)
  let open Ir.Expr in
  let p =
    Ir.Pipeline.create ~name:"dogsharp" ~width:1024 ~height:1024 ~inputs:[ "src" ]
      [
        Ir.Kernel.map ~name:"wide" ~inputs:[ "src" ]
          (conv ~border:Img.Border.Mirror Img.Mask.gaussian_5x5 "src");
        Ir.Kernel.map ~name:"detail" ~inputs:[ "src"; "wide" ]
          (input "src" - input "wide");
        Ir.Kernel.map ~name:"out" ~inputs:[ "src"; "detail" ]
          (clamp01 (input "src" + (const 0.8 * input "detail")));
      ]
  in
  Format.printf "input: %d kernels@." (Ir.Pipeline.num_kernels p);

  (* 1. Kernel distribution. *)
  (match F.Distribute.judge p "wide" with
  | F.Distribute.Split f ->
    Format.printf "distribute: wide is %s@."
      (F.Distribute.verdict_to_string (F.Distribute.Split f))
  | v -> Format.printf "distribute: %s@." (F.Distribute.verdict_to_string v));
  let split, distributed = F.Distribute.split_all p in
  Format.printf "after distribution: %d kernels (split: %s)@."
    (Ir.Pipeline.num_kernels split)
    (String.concat ", " distributed);

  (* 2 + 3 + 4. Inline, fuse, clean up. *)
  let report =
    F.Driver.run ~inline:true ~optimize:true F.Config.default F.Driver.Mincut split
  in
  Format.printf "after inline + min-cut fusion: %d kernels (inlined: %s)@."
    (F.Driver.fused_kernel_count report)
    (match report.F.Driver.inlined with [] -> "none" | l -> String.concat ", " l);

  (* Correctness of the whole stack. *)
  let rng = Kfuse_util.Rng.create 17 in
  let img = Img.Image.random rng ~width:1024 ~height:1024 ~lo:0.0 ~hi:1.0 in
  let env = Ir.Eval.env_of_list [ ("src", img) ] in
  let a = List.assoc "out" (Ir.Eval.run_outputs p env) in
  let b = List.assoc "out" (Ir.Eval.run_outputs report.F.Driver.fused env) in
  Format.printf "pixel-exact after all transforms: %b@."
    (Img.Image.max_abs_diff a b < 1e-9);

  (* 5. Launch autotuning on the GTX 680 model. *)
  let fused_names =
    List.filter_map
      (fun blk ->
        if Iset.cardinal blk >= 2 then
          Some
            (Ir.Pipeline.kernel report.F.Driver.input
               (Iset.min_elt (F.Legality.block_sinks report.F.Driver.input blk)))
              .Ir.Kernel.name
        else None)
      report.F.Driver.partition
  in
  let choices, tuned, default =
    G.Autotune.tune_pipeline G.Device.gtx680 ~quality:G.Perf_model.Optimized
      ~fused_kernels:fused_names report.F.Driver.fused
  in
  Format.printf "autotune: %.3f ms at 32x4 -> %.3f ms tuned@." default tuned;
  List.iter
    (fun (c : G.Autotune.choice) ->
      Format.printf "  %-10s best %dx%d (%.3f ms)@." c.G.Autotune.kernel_name
        c.G.Autotune.best.Kfuse_ir.Cost.bx c.G.Autotune.best.Kfuse_ir.Cost.by
        c.G.Autotune.best_ms)
    choices;

  (* 6. CPU code for the final pipeline. *)
  print_endline "\n--- C + OpenMP, first 40 lines ---";
  let c_source = Kfuse_codegen.Lower_cpu.emit_pipeline report.F.Driver.fused in
  String.split_on_char '\n' c_source
  |> List.filteri (fun i _ -> i < 40)
  |> List.iter print_endline
