module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module C = Lower_common
open Cuda_ast

let zero = int_lit 0
let width = ident "width"
let height = ident "height"

let pixel_loops inner =
  for_ ~var:"y" ~from_:zero ~below:height [ for_ ~var:"x" ~from_:zero ~below:width inner ]

(* The per-pixel statements of a Map body at [(x, y)], ending in the
   store to the output buffer [out]. *)
let map_stmts ~out lower body =
  let ctx = C.create_ctx () in
  let result = lower ctx ~vars:[] ~cx:(ident "x") ~cy:(ident "y") body in
  C.take_stmts ctx @ [ Assign (index (ident out) ((ident "y" *: width) +: ident "x"), result) ]

(* [e + d], spelled with a minus for negative [d]. *)
let offset e d = if d = 0 then e else if d > 0 then e +: int_lit d else e -: int_lit (-d)

(* The line buffer of a stencil Map: each hoisted subexpression
   ({!Line_buffer}) gets [2r + 1] rows of [width] scalars in [kf_lb],
   image row [yy] in slot [yy % (2r + 1)].  [fill] computes the rows an
   interior row [y] reads that the thread has not computed yet, with
   the hoist's own first input on the buffer cell; [rows] points
   [kf_t<i>_<py + r>] at the row [y + py]; [tap] turns an occurrence
   into a load from it.  The fill lowers the same expression in the
   same interior mode, so each value keeps its operations and order. *)
let line_buffer ~prec ~reach lb =
  let ring = (2 * reach) + 1 in
  let s = C.scalar_ctype prec in
  let row i py = Printf.sprintf "kf_t%d_%d" i (py + reach) in
  let next i = Printf.sprintf "kf_next%d" i in
  let slot i yy =
    ident "kf_lb" +: (offset (Binop ("%", yy, int_lit ring)) (i * ring) *: width)
  in
  let span l = (List.fold_left min max_int l, List.fold_left max min_int l) in
  let fill i (h : Line_buffer.hoist) =
    let y_lo, y_hi = span (List.map snd h.positions) in
    let x_lo, x_hi = span (List.map fst h.positions) in
    let ax, ay = h.anchor in
    let ctx = C.create_ctx () in
    let v =
      C.lower_interior ~prec ctx ~vars:[] ~cx:(ident "x") ~cy:(ident "kf_yy")
        (Expr.Shift { dx = -ax; dy = -ay; exchange = None; body = h.expr })
    in
    let first = offset (ident "y") y_lo and past = offset (ident "y") (y_hi + 1) in
    [
      for_ ~var:"kf_yy"
        ~from_:(Ternary (Binop (">", ident (next i), first), ident (next i), first))
        ~below:past
        [
          Decl { ctype = s ^ "*"; name = "kf_row"; init = Some (slot i (ident "kf_yy")) };
          for_ ~var:"x"
            ~from_:(int_lit (reach + x_lo))
            ~below:(offset width (x_hi - reach))
            (C.take_stmts ctx @ [ Assign (index (ident "kf_row") (ident "x"), v) ]);
        ];
      Assign (ident (next i), past);
    ]
  in
  let rows i (h : Line_buffer.hoist) =
    List.sort_uniq compare (List.map snd h.positions)
    |> List.map (fun py ->
           let init = Some (slot i (offset (ident "y") py)) in
           Decl { ctype = "const " ^ s ^ "*"; name = row i py; init })
  in
  let tap e ~ox ~oy =
    Option.map
      (fun (i, (ax, ay)) -> index (ident (row i (oy + ay))) (offset (ident "x") (ox + ax)))
      (Line_buffer.find lb e)
  in
  let hoists = Line_buffer.hoists lb in
  let n = List.length hoists in
  let setup =
    [
      Comment
        (Printf.sprintf
           "Line buffer: %d repeated subexpression%s, each computed once per pixel into %d \
            rows per thread."
           n (if n = 1 then "" else "s") ring);
      Decl { ctype = "int"; name = "kf_y0"; init = None };
      Decl { ctype = "int"; name = "kf_y1"; init = None };
      Expr_stmt (call "kf_strip" [ height; Unop ("&", ident "kf_y0"); Unop ("&", ident "kf_y1") ]);
      Decl
        {
          ctype = s ^ "*";
          name = "kf_lb";
          init =
            Some (call "kf_malloc" [ call "sizeof" [ ident s ] *: int_lit (n * ring) *: width ]);
        };
    ]
    @ List.mapi (fun i _ -> Decl { ctype = "int"; name = next i; init = Some zero }) hoists
  in
  (setup, List.concat (List.mapi fill hoists @ List.mapi rows hoists), tap)

(* A stencil Map of reach [r] > 0 by the paper's region split: the
   interior pixels, at least [r] from every border, run the body with
   raw loads; every other pixel calls [halo], the body with full border
   handling, emitted once.  Rows are the parallel unit.  With a line
   buffer, each thread takes one contiguous strip of rows ([kf_strip]),
   so that it computes each hoisted row once. *)
let split_loops ~prec ~out ~halo ~reach body =
  let r = int_lit reach in
  let call_halo =
    [ Expr_stmt (call halo.name (List.map (fun (q : param) -> ident q.name) halo.params)) ]
  in
  let columns from_ below body = for_ ~var:"x" ~from_ ~below body in
  let lb = Line_buffer.analyse body in
  let rows ~from_ ~below ~before ~tap =
    for_ ~var:"y" ~from_ ~below
      [
        If
          {
            cond =
              (ident "y" <: r)
              ||: (ident "y" >=: (height -: r))
              ||: Binop ("<=", width, int_lit (2 * reach));
            then_ = [ columns zero width call_halo ];
            else_ =
              before
              @ [
                  columns zero r call_halo;
                  columns r (width -: r) (map_stmts ~out (C.lower_interior ~prec ~tap) body);
                  columns (width -: r) width call_halo;
                ];
          };
      ]
  in
  Comment
    (Printf.sprintf "Interior: pixels at least %d from every border, clamp-free; halo: %s."
       reach halo.name)
  ::
  (match Line_buffer.hoists lb with
  | [] ->
    [
      Pragma "omp parallel for schedule(static)";
      rows ~from_:zero ~below:height ~before:[] ~tap:(fun _ ~ox:_ ~oy:_ -> None);
    ]
  | _ :: _ ->
    let setup, before, tap = line_buffer ~prec ~reach lb in
    [
      Pragma "omp parallel";
      Block
        (setup
        @ [
            rows ~from_:(ident "kf_y0") ~below:(ident "kf_y1") ~before ~tap;
            Expr_stmt (call "free" [ ident "kf_lb" ]);
          ]);
    ])

let kernel_funcs ?(prec = C.Single) (p : Pipeline.t) (k : Kernel.t) =
  let scalar_lit = match prec with C.Single -> float_lit | C.Double -> double_lit in
  let fn_prec single =
    match prec with C.Single -> single | C.Double -> Filename.chop_suffix single "f"
  in
  let out = C.ident C.Image k.Kernel.name in
  let params = C.kernel_params ~prec p k in
  let entry body =
    { qualifiers = []; ret = "void"; name = C.ident C.Kernel_fn k.Kernel.name; params; body }
  in
  match k.Kernel.op with
  | Kernel.Map body ->
    let clamped = map_stmts ~out (fun ctx -> C.lower ~prec ctx) body in
    let reach = Expr.reach body in
    if reach = 0 then
      [ entry [ Pragma "omp parallel for collapse(2) schedule(static)"; pixel_loops clamped ] ]
    else
      let halo =
        {
          qualifiers = [ "static"; "__attribute__((noinline))" ];
          ret = "void";
          name = C.ident C.Halo_fn k.Kernel.name;
          params =
            params @ [ { ctype = "const int"; name = "x" }; { ctype = "const int"; name = "y" } ];
          body = clamped;
        }
      in
      [ halo; entry (split_loops ~prec ~out ~halo ~reach body) ]
  | Kernel.Reduce { init; combine; arg } ->
    let ctx = C.create_ctx () in
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
    let acc = Decl { ctype = C.scalar_ctype prec; name = "acc"; init = Some (scalar_lit init) } in
    [
      entry
        ((acc :: pragma)
        @ [
            pixel_loops inner;
            (* The interpreter materializes a reduction as a 1x1 image whose
               bordered reads broadcast the scalar; writing only out[0] would
               leave the rest of a full-size buffer uninitialized for any
               downstream (or caller) read.  Broadcast the scalar instead. *)
            Comment "Broadcast: every cell of the output buffer holds the scalar result.";
            for_ ~var:"i" ~from_:zero ~below:(width *: height)
              [ Assign (index (ident out) (ident "i"), ident "acc") ];
          ]);
    ]

(* Every kernel output that is not a pipeline output, in kernel order:
   the buffers the driver carves out of its workspace. *)
let intermediates (p : Pipeline.t) =
  let outputs = Pipeline.outputs p in
  Array.to_list p.Pipeline.kernels
  |> List.filter_map (fun (k : Kernel.t) ->
         if List.mem k.Kernel.name outputs then None else Some k.Kernel.name)

let workspace_scalars (p : Pipeline.t) =
  List.length (intermediates p) * p.Pipeline.width * p.Pipeline.height

let emit_runner buf (p : Pipeline.t) =
  let b fmt = Printf.bprintf buf fmt in
  let img = C.ident C.Image in
  let params =
    List.map (fun i -> "const kf_scalar* " ^ img i) p.Pipeline.inputs
    @ List.map (fun o -> "kf_scalar* " ^ img o) (Pipeline.outputs p)
    @ List.map (fun (name, _) -> "kf_scalar " ^ C.ident C.Param name) p.Pipeline.params
    @ [ "kf_scalar* kf_ws" ]
  in
  let intermediates = intermediates p in
  b "// Driver: runs the kernels in topological order.\n";
  if intermediates = [] then b "// No intermediates: the workspace kf_ws is unused.\n"
  else begin
    b "// The intermediates live in the caller's workspace kf_ws of\n";
    b "// %d * width * height scalars, which no other call in flight may share.\n"
      (List.length intermediates)
  end;
  b "void %s(%s) {\n" (C.ident C.Runner p.Pipeline.name) (String.concat ", " params);
  b "  const int width = %d, height = %d;\n" p.Pipeline.width p.Pipeline.height;
  if intermediates = [] then b "  (void)kf_ws;\n";
  List.iteri
    (fun i name ->
      if i = 0 then b "  kf_scalar* %s = kf_ws;\n" (img name)
      else b "  kf_scalar* %s = kf_ws + (size_t)%d * width * height;\n" (img name) i)
    intermediates;
  Array.iter
    (fun (k : Kernel.t) ->
      let args = List.map (fun (q : param) -> q.name) (C.kernel_params p k) in
      b "  %s(%s);\n" (C.ident C.Kernel_fn k.Kernel.name) (String.concat ", " args))
    p.Pipeline.kernels;
  b "}\n"

(* Interpreter faithfulness at -O2: [-fno-builtin-pow] stops the
   compiler from strength-reducing [pow(x, 2.0)] into [x*x] — glibc's
   pow is not correctly rounded for squares, so the rewrite diverges
   from the interpreter's libm call by 1 ulp on ~0.1% of inputs —
   and [-ffp-contract=off] forbids fusing [a*b+c] into fma on targets
   that have one (free on baseline x86-64, load-bearing on aarch64). *)
let cc_flags = [ "-O2"; "-fno-builtin-pow"; "-fno-builtin-powf"; "-ffp-contract=off" ]

(* The calling thread's contiguous share of rows, as [schedule(static)]
   would deal them: a line buffer only pays when a thread's rows are
   consecutive. *)
let strip_helper =
  "// The calling thread's share [*lo, *hi) of rows [0, n): contiguous, so a\n\
   // line buffer computes each of its rows once per thread.\n\
   static inline void kf_strip(int n, int* lo, int* hi) {\n\
   #ifdef _OPENMP\n\
  \  const int t = omp_get_thread_num(), nt = omp_get_num_threads();\n\
   #else\n\
  \  const int t = 0, nt = 1;\n\
   #endif\n\
  \  const int q = n / nt, rem = n % nt;\n\
  \  *lo = t * q + (t < rem ? t : rem);\n\
  \  *hi = *lo + q + (t < rem ? 1 : 0);\n\
   }"

let emit_pipeline ?(prec = C.Single) (p : Pipeline.t) =
  let buf = Buffer.create 4096 in
  let b fmt = Printf.bprintf buf fmt in
  let funcs = Array.to_list p.Pipeline.kernels |> List.concat_map (kernel_funcs ~prec p) in
  b "// Generated by kfuse: %s (%dx%dx%d), C + OpenMP backend\n"
    (C.ident C.Runner p.Pipeline.name) p.Pipeline.width p.Pipeline.height p.Pipeline.channels;
  b "// Compile with: cc %s -fopenmp -lm\n\n" (String.concat " " cc_flags);
  b "#include <stdlib.h>\n#include <math.h>\n";
  b "#ifdef _OPENMP\n#include <omp.h>\n#endif\n\n";
  b "// Scalar type of buffers and arithmetic alike.\n";
  b "typedef %s kf_scalar;\n\n" (C.scalar_ctype prec);
  b "// Abort-on-OOM allocation stub: the generated code has no error path,\n";
  b "// and computing into a NULL buffer would corrupt, not fail.\n";
  b "static inline void* kf_malloc(size_t n) {\n";
  b "  void* p = malloc(n);\n";
  b "  if (!p) abort();\n";
  b "  return p;\n";
  b "}\n\n";
  b "%s\n\n" strip_helper;
  let features = C.used_features p in
  List.iter
    (fun src -> b "%s\n\n" src)
    (C.helper_sources ~device_qualifier:"static inline" ~prec features);
  List.iter (fun f -> b "%s\n\n" (Emit.func_to_string f)) funcs;
  emit_runner buf p;
  Buffer.contents buf
