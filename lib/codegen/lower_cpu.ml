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

(* {1 A row of a Map} *)

(* The identifiers an expression reads. *)
let rec reads acc = function
  | Ident n -> n :: acc
  | Int_lit _ | Float_lit _ | Double_lit _ -> acc
  | Call (_, args) -> List.fold_left reads acc args
  | Unop (_, a) -> reads acc a
  | Binop (_, a, b) | Index (a, b) -> reads (reads acc a) b
  | Ternary (a, b, c) -> reads (reads (reads acc a) b) c

(* A declaration of an interior row body: its segment, and whether it
   is a call left scalar ({!C.is_scalar_call}). *)
type staged = { var : string; init : expr; seg : int; call : bool }

let row_temp i = Printf.sprintf "kf_rt%d" i

(* The loops of one interior row of a Map body over the columns
   [\[from_, below)], [store v] writing a pixel's value [v].  Each call
   no compiler vectorizes runs in a loop of its own, in place on a row
   temporary [kf_rt<i>] that holds its argument; the arithmetic runs in
   call-free loops between them, segment [s] computing what needs only
   the inputs and the calls after earlier segments.  A value that a
   later segment reads crosses over in a row temporary too.  Every value
   keeps its operations and their order, and a row temporary holds a
   scalar exactly, so the split changes no bit.  A body without such
   calls is one segment: the single loop it always was.  Returns the
   loops and the number of row temporaries they use. *)
let row_loops ~prec ?tap ~cy ~from_ ~below ~store body =
  let ctx = C.create_ctx () in
  let v = C.lower_interior ~prec ?tap ctx ~vars:[] ~cx:(ident "x") ~cy body in
  let ready = Hashtbl.create 16 in
  let seg e =
    List.fold_left
      (fun m n -> max m (Option.value ~default:0 (Hashtbl.find_opt ready n)))
      0 (reads [] e)
  in
  let staged =
    List.map
      (function
        | Decl { name; init = Some init; _ } ->
          let call = C.is_scalar_call init and sg = seg init in
          Hashtbl.replace ready name (if call then sg + 1 else sg);
          { var = name; init; seg = sg; call }
        | _ -> invalid_arg "Lower_cpu.row_loops: an interior body declares only values")
      (C.take_stmts ctx)
  in
  let last = seg v in
  (* The segments reading each live value; the rest is dead. *)
  let readers = Hashtbl.create 16 in
  let note sg e =
    List.iter
      (fun n ->
        Hashtbl.replace readers n (sg :: Option.value ~default:[] (Hashtbl.find_opt readers n)))
      (reads [] e)
  in
  note last v;
  let live =
    List.fold_left
      (fun acc d ->
        if Hashtbl.mem readers d.var then begin
          note d.seg d.init;
          d :: acc
        end
        else acc)
      [] (List.rev staged)
  in
  let temps = ref 0 in
  let take () =
    incr temps;
    row_temp (!temps - 1)
  in
  (* A call's result goes to a temporary of its own.  An argument that
     is already kept in a temporary (written by this segment's loop or
     an earlier one) is read from there; a literal or parameter is
     passed as it is; any other is stored by the call's segment, the
     first such into the result's temporary. *)
  let slots = Hashtbl.create 16 and call_args = Hashtbl.create 16 in
  List.iter
    (fun d ->
      match d.init with
      | Call (_, args) when d.call ->
        let result = take () in
        Hashtbl.replace slots d.var result;
        let free = ref (Some result) in
        let arg = function
          | (Int_lit _ | Float_lit _ | Double_lit _) as a -> `Inline a
          | Ident n as a when not (Hashtbl.mem ready n) -> `Inline a
          | Ident n when Hashtbl.mem slots n -> `Direct (Hashtbl.find slots n)
          | a -> (
            match !free with
            | Some t ->
              free := None;
              `Stored (a, t)
            | None -> `Stored (a, take ()))
        in
        Hashtbl.replace call_args d.var (List.map arg args)
      | _ ->
        if List.exists (fun r -> r > d.seg) (Hashtbl.find readers d.var) then
          Hashtbl.replace slots d.var (take ()))
    live;
  let at t = index (ident t) (ident "x") in
  let decl name init = Decl { ctype = "const " ^ C.scalar_ctype prec; name; init = Some init } in
  (* An iteration writes column [x] of each buffer it writes and reads
     no buffer the loop writes at any other column: no loop-carried
     dependence, so gcc needs no run-time alias check and no scalar
     copy of the loop for when one fails. *)
  let columns body = [ Pragma "GCC ivdep"; for_ ~var:"x" ~from_ ~below body ] in
  let segment sg =
    let here =
      List.concat_map
        (fun d ->
          if d.seg <> sg then []
          else if d.call then
            List.filter_map
              (function `Stored (a, t) -> Some (Assign (at t, a)) | `Inline _ | `Direct _ -> None)
              (Hashtbl.find call_args d.var)
          else
            decl d.var d.init
            :: List.map
                 (fun t -> Assign (at t, ident d.var))
                 (Option.to_list (Hashtbl.find_opt slots d.var)))
        live
      @ if sg = last then [ store v ] else []
    in
    let used =
      List.fold_left
        (fun acc -> function Decl { init = Some e; _ } | Assign (_, e) -> reads acc e | _ -> acc)
        [] here
    in
    let loads =
      List.filter_map
        (fun d ->
          match Hashtbl.find_opt slots d.var with
          | Some t when d.seg < sg && List.mem d.var used -> Some (decl d.var (at t))
          | _ -> None)
        live
    in
    let calls =
      List.filter_map
        (fun d ->
          match d.init with
          | Call (f, _) when d.call && d.seg = sg ->
            let arg = function `Inline a -> a | `Stored (_, t) | `Direct t -> at t in
            let value = call f (List.map arg (Hashtbl.find call_args d.var)) in
            Some (columns [ Assign (at (Hashtbl.find slots d.var), value) ])
          | _ -> None)
        live
    in
    List.concat ((if here = [] then [] else [ columns (loads @ here) ]) @ calls)
  in
  (List.concat (List.init (last + 1) segment), !temps)

(* Each thread's row temporaries: [n] rows of [width] scalars. *)
let row_temps ~prec n =
  if n = 0 then ([], [])
  else
    let s = C.scalar_ctype prec in
    ( Decl
        {
          ctype = s ^ "*";
          name = "kf_rt";
          init = Some (call "kf_malloc" [ call "sizeof" [ ident s ] *: int_lit n *: width ]);
        }
      :: List.init n (fun i ->
             Decl
               {
                 ctype = s ^ "* const";
                 name = row_temp i;
                 init =
                   Some (if i = 0 then ident "kf_rt" else ident "kf_rt" +: (int_lit i *: width));
               }),
      [ Expr_stmt (call "free" [ ident "kf_rt" ]) ] )

(* The loop [rows] over all rows dealt out statically: one [parallel
   for], or, where a row needs temporaries, a [parallel] region that
   allocates them once per thread around an [omp for]. *)
let parallel_rows ~prec ~temps rows =
  match row_temps ~prec temps with
  | [], _ -> [ Pragma "omp parallel for schedule(static)"; rows ]
  | alloc, free ->
    [ Pragma "omp parallel"; Block (alloc @ [ Pragma "omp for schedule(static)"; rows ] @ free) ]

(* The line buffer of a stencil Map: each hoisted subexpression
   ({!Line_buffer}) gets [2r + 1] rows of [width] scalars in [kf_lb],
   image row [yy] in slot [yy % (2r + 1)].  [fill] computes the rows an
   interior row [y] reads that the thread has not computed yet, with
   the hoist's own first input on the buffer cell; [rows] points
   [kf_t<i>_<py + r>] at the row [y + py]; [tap] turns an occurrence
   into a load from it.  The fill lowers the same expression in the
   same interior mode, so each value keeps its operations and order.
   Also returns the row temporaries the fill loops use. *)
let line_buffer ~prec ~reach lb =
  let ring = (2 * reach) + 1 in
  let s = C.scalar_ctype prec in
  let row i py = Printf.sprintf "kf_t%d_%d" i (py + reach) in
  let next i = Printf.sprintf "kf_next%d" i in
  let slot i yy =
    ident "kf_lb" +: (offset (Binop ("%", yy, int_lit ring)) (i * ring) *: width)
  in
  let span l = (List.fold_left min max_int l, List.fold_left max min_int l) in
  let temps = ref 0 in
  let fill i (h : Line_buffer.hoist) =
    let y_lo, y_hi = span (List.map snd h.positions) in
    let x_lo, x_hi = span (List.map fst h.positions) in
    let ax, ay = h.anchor in
    let loops, n =
      row_loops ~prec ~cy:(ident "kf_yy")
        ~from_:(int_lit (reach + x_lo))
        ~below:(offset width (x_hi - reach))
        ~store:(fun v -> Assign (index (ident "kf_row") (ident "x"), v))
        (Expr.Shift { dx = -ax; dy = -ay; exchange = None; body = h.expr })
    in
    temps := max !temps n;
    let first = offset (ident "y") y_lo and past = offset (ident "y") (y_hi + 1) in
    [
      for_ ~var:"kf_yy"
        ~from_:(Ternary (Binop (">", ident (next i), first), ident (next i), first))
        ~below:past
        (Decl { ctype = s ^ "*"; name = "kf_row"; init = Some (slot i (ident "kf_yy")) } :: loops);
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
  let before = List.concat (List.mapi fill hoists @ List.mapi rows hoists) in
  (setup, before, !temps, tap)

(* A stencil Map of reach [r] > 0 by the paper's region split: the
   interior pixels, at least [r] from every border, run the body with
   raw loads, a row at a time ({!row_loops}); every other pixel calls
   [halo], the body with full border handling, emitted once.  Rows are
   the parallel unit.  With a line buffer, each thread takes one
   contiguous strip of rows ([kf_strip]), so that it computes each
   hoisted row once. *)
let split_loops ~prec ~out ~halo ~reach body =
  let r = int_lit reach in
  let call_halo =
    [ Expr_stmt (call halo.name (List.map (fun (q : param) -> ident q.name) halo.params)) ]
  in
  let columns from_ below body = for_ ~var:"x" ~from_ ~below body in
  let lb = Line_buffer.analyse body in
  let line =
    match Line_buffer.hoists lb with [] -> None | _ :: _ -> Some (line_buffer ~prec ~reach lb)
  in
  let tap = Option.map (fun (_, _, _, tap) -> tap) line in
  let interior, temps =
    row_loops ~prec ?tap ~cy:(ident "y") ~from_:r ~below:(width -: r)
      ~store:(fun v -> Assign (index (ident out) ((ident "y" *: width) +: ident "x"), v))
      body
  in
  let rows ~from_ ~below ~before =
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
              @ (columns zero r call_halo :: interior)
              @ [ columns (width -: r) width call_halo ];
          };
      ]
  in
  Comment
    (Printf.sprintf "Interior: pixels at least %d from every border, clamp-free; halo: %s."
       reach halo.name)
  ::
  (match line with
  | None -> parallel_rows ~prec ~temps (rows ~from_:zero ~below:height ~before:[])
  | Some (setup, before, fill_temps, _) ->
    let alloc, free = row_temps ~prec (max temps fill_temps) in
    [
      Pragma "omp parallel";
      Block
        (setup
        @ alloc
        @ [
            rows ~from_:(ident "kf_y0") ~below:(ident "kf_y1") ~before;
            Expr_stmt (call "free" [ ident "kf_lb" ]);
          ]
        @ free);
    ])

(* One kernel's C functions, in definition order: for a [Map] of reach
   [R > 0], the halo function, then the entry point; otherwise the entry
   point alone.  [prec] is the scalar type of buffers and per-pixel
   arithmetic alike. *)
let kernel_funcs ?(prec = C.Single) (p : Pipeline.t) (k : Kernel.t) =
  let scalar_lit = match prec with C.Single -> float_lit | C.Double -> double_lit in
  let out = C.ident C.Image k.Kernel.name in
  let params = C.kernel_params ~prec p k in
  let entry body =
    { qualifiers = []; ret = "void"; name = C.ident C.Kernel_fn k.Kernel.name; params; body }
  in
  match k.Kernel.op with
  | Kernel.Map body ->
    let reach = Expr.reach body in
    if reach = 0 then
      (* Every coordinate such a body evaluates is its own pixel, so each
         pixel is an interior one.  Rows, not a collapse of both loops,
         are the parallel unit: a collapsed loop does not vectorize. *)
      let loops, temps =
        row_loops ~prec ~cy:(ident "y") ~from_:zero ~below:width
          ~store:(fun v -> Assign (index (ident out) ((ident "y" *: width) +: ident "x"), v))
          body
      in
      [ entry (parallel_rows ~prec ~temps (for_ ~var:"y" ~from_:zero ~below:height loops)) ]
    else
      let halo =
        {
          qualifiers = [ "static"; "KF_HALO" ];
          ret = "void";
          name = C.ident C.Halo_fn k.Kernel.name;
          params =
            params @ [ { ctype = "const int"; name = "x" }; { ctype = "const int"; name = "y" } ];
          body = map_stmts ~out (fun ctx -> C.lower ~prec ctx) body;
        }
      in
      [ halo; entry (split_loops ~prec ~out ~halo ~reach body) ]
  | Kernel.Reduce { init; combine; arg } ->
    let ctx = C.create_ctx () in
    let v = C.lower ~prec ctx ~vars:[] ~cx:(ident "x") ~cy:(ident "y") arg in
    (* Serial, in the interpreter's row-major order: a team-split float
       sum depends on the thread count, and an OpenMP min/max clause
       neither orders -0 below +0 nor keeps the interpreter's NaN. *)
    let fold =
      match combine with
      | Expr.Add -> Assign (ident "acc", ident "acc" +: v)
      | Expr.Min -> Assign (ident "acc", call "kf_min" [ ident "acc"; v ])
      | Expr.Max -> Assign (ident "acc", call "kf_max" [ ident "acc"; v ])
      | Expr.Sub | Expr.Mul | Expr.Div | Expr.Pow ->
        invalid_arg
          (Printf.sprintf "Lower_cpu: reduction operator of kernel %s has no C lowering"
             k.Kernel.name)
    in
    let inner = C.take_stmts ctx @ [ fold ] in
    let acc = Decl { ctype = C.scalar_ctype prec; name = "acc"; init = Some (scalar_lit init) } in
    [
      entry
        [
            acc;
            pixel_loops inner;
            (* The interpreter materializes a reduction as a 1x1 image whose
               bordered reads broadcast the scalar; writing only out[0] would
               leave the rest of a full-size buffer uninitialized for any
               downstream (or caller) read.  Broadcast the scalar instead. *)
            Comment "Broadcast: every cell of the output buffer holds the scalar result.";
            for_ ~var:"i" ~from_:zero ~below:(width *: height)
              [ Assign (index (ident out) (ident "i"), ident "acc") ];
          ];
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
   that have one (every x86-64-v3 host and aarch64, so every host
   target a plan is built for).
   Vectorization: [-fno-math-errno] lets [sqrt] be an instruction,
   [-fvect-cost-model=dynamic] accepts the loops that need a runtime
   alias check or an epilogue (the -O2 default refuses them), and
   [-fno-trapping-math] lets if-conversion compute both arms of a
   select.  None of them permits a change of value. *)
let cc_flags =
  [
    "-O2";
    "-fno-builtin-pow";
    "-fno-builtin-powf";
    "-ffp-contract=off";
    "-fno-math-errno";
    "-fvect-cost-model=dynamic";
    "-fno-trapping-math";
  ]

(* Plans are compiled on the host they run on, for its full vector
   unit.  Without -ffast-math glibc declares no vector variants of
   [exp]/[log]/[pow], so they stay scalar libm calls, and with no
   reassociation allowed no FP reduction is vectorized: the wider
   target changes no value either. *)
let host_target_flag = "-march=native"

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

(* A halo body runs on the few pixels within the reach of a border, and
   it is the longest function of its kernel: gcc compiles it at -O1,
   which costs its pixels no measurable time and the compile most of
   what vectorizing the interior added.  -O1 keeps the value-preserving
   flags: it changes no bit. *)
let halo_attribute =
  "// Halo bodies: out of line, and compiled at -O1 by gcc.\n\
   #if defined(__GNUC__) && !defined(__clang__)\n\
   #define KF_HALO __attribute__((noinline, optimize(\"O1\")))\n\
   #else\n\
   #define KF_HALO __attribute__((noinline))\n\
   #endif"

let emit_pipeline ?(prec = C.Single) (p : Pipeline.t) =
  let buf = Buffer.create 4096 in
  let b fmt = Printf.bprintf buf fmt in
  let funcs = Array.to_list p.Pipeline.kernels |> List.concat_map (kernel_funcs ~prec p) in
  b "// Generated by kfuse: %s (%dx%dx%d), C + OpenMP backend\n"
    (C.ident C.Runner p.Pipeline.name) p.Pipeline.width p.Pipeline.height p.Pipeline.channels;
  b "// Compile with: cc %s %s -fopenmp -lm\n\n" (String.concat " " cc_flags) host_target_flag;
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
  b "%s\n\n" halo_attribute;
  let features = C.used_features p in
  List.iter
    (fun src -> b "%s\n\n" src)
    (C.helper_sources ~device_qualifier:"static inline" ~prec features);
  List.iter (fun f -> b "%s\n\n" (Emit.func_to_string f)) funcs;
  emit_runner buf p;
  Buffer.contents buf
