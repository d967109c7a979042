module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module C = Lower_common
open Cuda_ast

let kernel_func ?tile ?(prec = C.Single) (p : Pipeline.t) (k : Kernel.t) =
  (match tile with
  | Some (tx, ty) when tx <= 0 || ty <= 0 ->
    invalid_arg "Lower_cpu.kernel_func: nonpositive tile extents"
  | Some _ | None -> ());
  let ctx = C.create_ctx () in
  let scalar_lit = match prec with C.Single -> float_lit | C.Double -> double_lit in
  let fn_prec single =
    match prec with C.Single -> single | C.Double -> Filename.chop_suffix single "f"
  in
  let body_stmts =
    match k.Kernel.op with
    | Kernel.Map body ->
      let result = C.lower ~prec ctx ~vars:[] ~cx:(ident "x") ~cy:(ident "y") body in
      let inner =
        C.take_stmts ctx
        @ [ Assign (index (ident "out") ((ident "y" *: ident "width") +: ident "x"), result) ]
      in
      (match tile with
      | None ->
        [
          Pragma "omp parallel for collapse(2) schedule(static)";
          For
            {
              var = "y";
              from_ = int_lit 0;
              below = ident "height";
              step = 1;
              body =
                [ For { var = "x"; from_ = int_lit 0; below = ident "width"; step = 1; body = inner } ];
            };
        ]
      | Some (tx, ty) ->
        (* Blocked iteration: tiles are distributed across threads, pixel
           loops stay within one tile. *)
        let clamp_end name base extent limit =
          Decl
            {
              ctype = "const int";
              name;
              init =
                Some
                  (Ternary
                     ( ident base +: int_lit extent <: ident limit,
                       ident base +: int_lit extent,
                       ident limit ));
            }
        in
        [
          Pragma "omp parallel for collapse(2) schedule(static)";
          for_ ~var:"yy" ~from_:(int_lit 0) ~below:(ident "height") ~step:ty
            [
              for_ ~var:"xx" ~from_:(int_lit 0) ~below:(ident "width") ~step:tx
                [
                  clamp_end "y_end" "yy" ty "height";
                  clamp_end "x_end" "xx" tx "width";
                  for_ ~var:"y" ~from_:(ident "yy") ~below:(ident "y_end")
                    [
                      for_ ~var:"x" ~from_:(ident "xx") ~below:(ident "x_end") inner;
                    ];
                ];
            ];
        ])
    | Kernel.Reduce { init; combine; arg } ->
      let v = C.lower ~prec ctx ~vars:[] ~cx:(ident "x") ~cy:(ident "y") arg in
      let omp clause = [ Pragma ("omp parallel for collapse(2) reduction(" ^ clause ^ ":acc)") ] in
      let pragma, fold =
        match combine with
        | Expr.Add ->
          (* Float addition is not associative: a team-split sum depends on
             the thread count.  Stay serial, in the interpreter's row-major
             order, so the result is bit-exact on every host. *)
          ([], Assign (ident "acc", ident "acc" +: v))
        | Expr.Min ->
          (omp "min", Assign (ident "acc", call (fn_prec "fminf") [ ident "acc"; v ]))
        | Expr.Max ->
          (omp "max", Assign (ident "acc", call (fn_prec "fmaxf") [ ident "acc"; v ]))
        | Expr.Sub | Expr.Mul | Expr.Div | Expr.Pow ->
          invalid_arg
            (Printf.sprintf
               "Lower_cpu: reduction operator of kernel %s has no OpenMP clause"
               k.Kernel.name)
      in
      let inner = C.take_stmts ctx @ [ fold ] in
      Decl { ctype = C.scalar_ctype prec; name = "acc"; init = Some (scalar_lit init) }
      :: pragma
      @ [
        For
          {
            var = "y";
            from_ = int_lit 0;
            below = ident "height";
            step = 1;
            body =
              [ For { var = "x"; from_ = int_lit 0; below = ident "width"; step = 1; body = inner } ];
          };
        (* The interpreter materializes a reduction as a 1x1 image whose
           bordered reads broadcast the scalar; writing only out[0] would
           leave the rest of a full-size buffer uninitialized for any
           downstream (or caller) read.  Broadcast the scalar instead. *)
        Comment "Broadcast: every cell of the output buffer holds the scalar result.";
        For
          {
            var = "i";
            from_ = int_lit 0;
            below = ident "width" *: ident "height";
            step = 1;
            body = [ Assign (index (ident "out") (ident "i"), ident "acc") ];
          };
      ]
  in
  {
    qualifiers = [];
    ret = "void";
    name = C.func_name p k;
    params = C.kernel_params ~prec p k;
    body = body_stmts;
  }

let emit_runner buf (p : Pipeline.t) =
  let b fmt = Printf.bprintf buf fmt in
  let n = C.sanitize p.Pipeline.name in
  b "// Driver: allocates intermediates and runs the kernels in topological order.\n";
  b "void run_%s(" n;
  let params =
    List.map (fun i -> Printf.sprintf "const kf_scalar* %s" (C.sanitize i)) p.Pipeline.inputs
    @ List.map (fun o -> Printf.sprintf "kf_scalar* %s" (C.sanitize o)) (Pipeline.outputs p)
    @ List.map
        (fun (name, _) -> Printf.sprintf "kf_scalar p_%s" (C.sanitize name))
        p.Pipeline.params
  in
  b "%s" (String.concat ", " params);
  b ") {\n";
  b "  const int width = %d, height = %d;\n" p.Pipeline.width p.Pipeline.height;
  let outputs = Pipeline.outputs p in
  let intermediates =
    Array.to_list p.Pipeline.kernels
    |> List.filter_map (fun (k : Kernel.t) ->
           if List.mem k.Kernel.name outputs then None else Some k.Kernel.name)
  in
  List.iter
    (fun name ->
      b "  kf_scalar* %s = (kf_scalar*)kf_malloc((size_t)width * height * sizeof(kf_scalar));\n"
        (C.sanitize name))
    intermediates;
  Array.iter
    (fun (k : Kernel.t) ->
      let args =
        [ C.sanitize k.Kernel.name ]
        @ List.map C.sanitize k.Kernel.inputs
        @ [ "width"; "height" ] @ C.scalar_args p k
      in
      b "  %s(%s);\n" (C.func_name p k) (String.concat ", " args))
    p.Pipeline.kernels;
  List.iter (fun name -> b "  free(%s);\n" (C.sanitize name)) intermediates;
  b "}\n"

let emit_pipeline ?tile ?(prec = C.Single) (p : Pipeline.t) =
  let buf = Buffer.create 4096 in
  let b fmt = Printf.bprintf buf fmt in
  b "// Generated by kfuse: pipeline %s (%dx%dx%d), C + OpenMP backend\n"
    p.Pipeline.name p.Pipeline.width p.Pipeline.height p.Pipeline.channels;
  b "// Compile with: cc -O2 -fopenmp -lm\n\n";
  b "#include <stdlib.h>\n#include <math.h>\n\n";
  b "// Scalar type of buffers and arithmetic alike; wrappers that keep a\n";
  b "// narrower external ABI convert at the boundary.\n";
  b "typedef %s kf_scalar;\n\n" (C.scalar_ctype prec);
  b "// Abort-on-OOM allocation stub: the generated runner has no error path,\n";
  b "// and computing into a NULL intermediate would corrupt, not fail.\n";
  b "static inline void* kf_malloc(size_t n) {\n";
  b "  void* p = malloc(n);\n";
  b "  if (!p) abort();\n";
  b "  return p;\n";
  b "}\n\n";
  let features = C.used_features p in
  List.iter
    (fun src -> b "%s\n\n" src)
    (C.helper_sources ~device_qualifier:"static inline" ~prec features);
  Array.iter
    (fun k -> b "%s\n\n" (Emit.func_to_string (kernel_func ?tile ~prec p k)))
    p.Pipeline.kernels;
  emit_runner buf p;
  Buffer.contents buf
