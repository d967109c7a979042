module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module C = Lower_common
open Cuda_ast

let kernel_func (p : Pipeline.t) (k : Kernel.t) =
  let out = ident (C.ident C.Image k.Kernel.name) in
  let ctx = C.create_ctx () in
  C.emit ctx
    (Decl
       {
         ctype = "const int";
         name = "x";
         init = Some (ident "blockIdx.x" *: ident "blockDim.x" +: ident "threadIdx.x");
       });
  C.emit ctx
    (Decl
       {
         ctype = "const int";
         name = "y";
         init = Some (ident "blockIdx.y" *: ident "blockDim.y" +: ident "threadIdx.y");
       });
  C.emit ctx
    (If
       {
         cond =
           Binop (">=", ident "x", ident "width")
           ||: Binop (">=", ident "y", ident "height");
         then_ = [ Return ];
         else_ = [];
       });
  (match k.Kernel.op with
  | Kernel.Map body ->
    let result = C.lower ctx ~vars:[] ~cx:(ident "x") ~cy:(ident "y") body in
    C.emit ctx
      (Assign (index out ((ident "y" *: ident "width") +: ident "x"), result))
  | Kernel.Reduce { combine; arg; _ } ->
    let v = C.lower ctx ~vars:[] ~cx:(ident "x") ~cy:(ident "y") arg in
    let atomic =
      match combine with
      | Expr.Add -> call "atomicAdd" [ out; v ]
      | Expr.Min -> call "atomicMinFloat" [ out; v ]
      | Expr.Max -> call "atomicMaxFloat" [ out; v ]
      | Expr.Sub | Expr.Mul | Expr.Div | Expr.Pow ->
        invalid_arg
          (Printf.sprintf "Lower: reduction operator of kernel %s has no atomic lowering"
             k.Kernel.name)
    in
    C.emit ctx (Expr_stmt atomic));
  {
    qualifiers = [ "__global__" ];
    ret = "void";
    name = C.ident C.Kernel_fn k.Kernel.name;
    params = C.kernel_params p k;
    body = C.take_stmts ctx;
  }

let emit_host_runner buf (p : Pipeline.t) =
  let b fmt = Printf.bprintf buf fmt in
  let img = C.ident C.Image in
  let params =
    List.map (fun i -> "const float* " ^ img i) p.Pipeline.inputs
    @ List.map (fun o -> "float* " ^ img o) (Pipeline.outputs p)
    @ List.map (fun (name, _) -> "float " ^ C.ident C.Param name) p.Pipeline.params
  in
  b "// Host-side runner: allocates intermediates and launches the kernels\n";
  b "// in topological order.  Inputs/outputs are device pointers.\n";
  b "void %s(%s) {\n" (C.ident C.Runner p.Pipeline.name) (String.concat ", " params);
  b "  const int width = %d, height = %d;\n" p.Pipeline.width p.Pipeline.height;
  b "  const dim3 block(32, 4);\n";
  b "  const dim3 grid((width + block.x - 1) / block.x, (height + block.y - 1) / block.y);\n";
  let outputs = Pipeline.outputs p in
  let intermediates =
    Array.to_list p.Pipeline.kernels
    |> List.filter_map (fun (k : Kernel.t) ->
           if List.mem k.Kernel.name outputs then None else Some (img k.Kernel.name))
  in
  List.iter
    (fun d ->
      b "  float* %s;\n" d;
      b "  cudaMalloc(&%s, (size_t)width * height * sizeof(float));\n" d)
    intermediates;
  Array.iter
    (fun (k : Kernel.t) ->
      let args = List.map (fun (q : param) -> q.name) (C.kernel_params p k) in
      b "  %s<<<grid, block>>>(%s);\n" (C.ident C.Kernel_fn k.Kernel.name)
        (String.concat ", " args))
    p.Pipeline.kernels;
  List.iter (b "  cudaFree(%s);\n") intermediates;
  b "}\n"

let emit_pipeline (p : Pipeline.t) =
  let buf = Buffer.create 4096 in
  let b fmt = Printf.bprintf buf fmt in
  b "// Generated by kfuse: %s (%dx%dx%d)\n" (C.ident C.Runner p.Pipeline.name)
    p.Pipeline.width p.Pipeline.height p.Pipeline.channels;
  b "// %d kernel(s); source-to-source output in the style of Hipacc's CUDA backend.\n\n"
    (Pipeline.num_kernels p);
  b "#include <cuda_runtime.h>\n#include <math.h>\n\n";
  let features = C.used_features p in
  List.iter
    (fun src -> b "%s\n\n" src)
    (C.helper_sources ~device_qualifier:"__device__ __forceinline__" features
    @ C.atomic_helper_sources features);
  Array.iter (fun k -> b "%s\n\n" (Emit.func_to_string (kernel_func p k))) p.Pipeline.kernels;
  emit_host_runner buf p;
  Buffer.contents buf
