(* The native compile-and-execute backend and the C emission it relies
   on: golden-output checks over [Lower_cpu.emit_pipeline] (loop shape,
   kf_scalar typedef, reduction broadcast, literal spelling), a
   warning-free [-Wall -Werror] compile of generated code, end-to-end
   Native.run in both modes against the reference interpreter, the
   compile cache, and the opt-in interpreter-vs-native fuzz oracle.

   Everything that needs a C compiler is gated on {!Toolchain.find} and
   skips cleanly on toolchain-less hosts. *)

module Ir = Kfuse_ir
module Img = Kfuse_image
module F = Kfuse_fusion
module Cg = Kfuse_codegen
module Exec = Kfuse_exec
module Fz = Kfuse_fuzz

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

let check_fragments what text fragments =
  List.iter
    (fun frag ->
      if not (contains frag text) then
        Alcotest.failf "%s: expected fragment %S in:\n%s" what frag text)
    fragments

let require_toolchain () =
  match Exec.Toolchain.find () with Error _ -> Alcotest.skip () | Ok t -> t

(* A two-kernel pipeline exercising the tricky emissions at once: a
   negated negative literal (the "--" token-pasting regression), a
   reduction with its broadcast fill, and an intermediate buffer. *)
let neg_reduce_pipeline () =
  Ir.Pipeline.create ~name:"redsum" ~width:8 ~height:6 ~inputs:[ "src" ]
    [
      Ir.Kernel.map ~name:"neg" ~inputs:[ "src" ]
        Ir.Expr.(neg (Const (-0.25)) * input "src");
      Ir.Kernel.reduce ~name:"total" ~inputs:[ "neg" ] ~init:0.0 ~combine:Ir.Expr.Add
        (Ir.Expr.input "neg");
    ]

let fused_app name ~width ~height =
  let e = Option.get (Kfuse_apps.Registry.find name) in
  let p = e.Kfuse_apps.Registry.small ~width ~height in
  (p, (F.Driver.run F.Config.default F.Driver.Mincut p).F.Driver.fused)

(* ---- golden output of emit_pipeline ---- *)

let test_emit_golden_map_reduce () =
  let src = Cg.Lower_cpu.emit_pipeline (neg_reduce_pipeline ()) in
  check_fragments "map+reduce emission" src
    [
      "typedef float kf_scalar;";
      "static inline void* kf_malloc(size_t n)";
      "if (!p) abort();";
      (* a point kernel runs by rows, so that its row loop vectorizes *)
      "#pragma omp parallel for schedule(static)";
      (* neg of a negative literal must not paste into the "--" token *)
      "(- -0.25f)";
      "float acc = 0.0f;";
      (* the reduction broadcast-fills its whole output buffer *)
      "for (int i = 0; i < (width * height); ++i)";
      "img_total[i] = acc;";
      (* the intermediate is carved out of the caller's workspace *)
      "void run_redsum(const kf_scalar* img_src, kf_scalar* img_total, kf_scalar* kf_ws)";
      "kf_scalar* img_neg = kf_ws;";
    ];
  (* no line buffer here, so kf_malloc is defined but never called and
     nothing is freed *)
  List.iter
    (fun bad ->
      if contains bad src then Alcotest.failf "emitted C allocates (%s):\n%s" bad src)
    [ "kf_malloc(("; "free(" ];
  if contains "(--" src then
    Alcotest.failf "emitted C contains the \"--\" token paste:\n%s" src;
  (* a + reduction sums serially: a team-split float sum is order-dependent *)
  if contains "reduction(+" src then
    Alcotest.failf "+ reduction emitted with an OpenMP clause:\n%s" src

let rec index_from text needle i =
  if i + String.length needle > String.length text then None
  else if String.sub text i (String.length needle) = needle then Some i
  else index_from text needle (i + 1)

let occurrences text needle =
  let rec go i n =
    match index_from text needle i with None -> n | Some j -> go (j + 1) (n + 1)
  in
  go 0 0

(* The brace-balanced text that starts at the first [header] in [text]. *)
let block_after text header =
  match index_from text header 0 with
  | None -> Alcotest.failf "no %S in:\n%s" header text
  | Some start ->
    let rec close i depth =
      match text.[i] with
      | '{' -> close (i + 1) (depth + 1)
      | '}' -> if depth = 1 then i + 1 else close (i + 1) (depth - 1)
      | _ -> close (i + 1) depth
    in
    String.sub text start (close start 0 - start)

let test_emit_golden_region_split () =
  let _, fused = fused_app "harris" ~width:16 ~height:12 in
  let src = Cg.Lower_cpu.emit_pipeline ~prec:Cg.Lower_common.Double fused in
  check_fragments "double emission" src
    [
      "typedef double kf_scalar;";
      (* helpers and buffers follow the precision *)
      "static inline double read_clamp(const double* img";
      (* double mode drops the f-suffix from literals *)
      "-1.0 *";
    ];
  if contains "0.0625f" src || contains "1.0f" src then
    Alcotest.failf "double-precision emission leaked a float32 spelling:\n%s" src;
  let stencils = ref 0 in
  Array.iter
    (fun (k : Ir.Kernel.t) ->
      let name = Cg.Lower_common.(ident Kernel_fn k.Ir.Kernel.name) in
      let halo = Cg.Lower_common.(ident Halo_fn k.Ir.Kernel.name) in
      let out = Cg.Lower_common.(ident Image k.Ir.Kernel.name) in
      let entry = block_after src ("void " ^ name ^ "(") in
      match k.Ir.Kernel.op with
      | Ir.Kernel.Map body when Ir.Expr.reach body > 0 ->
        incr stencils;
        let r = Ir.Expr.reach body in
        Alcotest.(check int)
          (halo ^ " defined once")
          1
          (occurrences src ("static KF_HALO void " ^ halo ^ "("));
        check_fragments (name ^ " loop shape") entry
          [
            "#pragma omp parallel for schedule(static)";
            Printf.sprintf "if ((((y < %d) || (y >= (height - %d))) || (width <= %d))) {" r r
              (2 * r);
          ];
        if contains "collapse" entry then Alcotest.failf "%s still collapses:\n%s" name entry;
        let interior =
          block_after entry (Printf.sprintf "for (int x = %d; x < (width - %d); ++x) {" r r)
        in
        List.iter
          (fun bad ->
            if contains bad interior then
              Alcotest.failf "%s: interior loop calls %s:\n%s" name bad interior)
          [ "idx_"; "read_"; "_halo" ];
        check_fragments (name ^ " interior") interior [ out ^ "[((y * width) + x)] =" ]
      | Ir.Kernel.Map _ | Ir.Kernel.Reduce _ ->
        Alcotest.(check int) (name ^ " has no halo function") 0 (occurrences src halo);
        (* by rows, so that the row loop vectorizes *)
        check_fragments (name ^ " loop shape") entry [ "#pragma omp parallel for schedule(static)" ];
        if contains "collapse" entry then Alcotest.failf "%s collapses:\n%s" name entry)
    fused.Ir.Pipeline.kernels;
  if !stencils = 0 then Alcotest.fail "fused harris has no stencil kernel"

let test_emit_border_helpers () =
  let p =
    Ir.Pipeline.create ~name:"borders" ~width:9 ~height:7 ~inputs:[ "a" ]
      [
        Ir.Kernel.map ~name:"m" ~inputs:[ "a" ]
          (Ir.Expr.conv ~border:Img.Border.Mirror Img.Mask.gaussian_3x3 "a");
        Ir.Kernel.map ~name:"r" ~inputs:[ "a" ]
          (Ir.Expr.conv ~border:Img.Border.Repeat Img.Mask.gaussian_3x3 "a");
        Ir.Kernel.map ~name:"c" ~inputs:[ "a" ]
          (Ir.Expr.conv ~border:(Img.Border.Constant 0.5) Img.Mask.gaussian_3x3 "a");
      ]
  in
  let src = Cg.Lower_cpu.emit_pipeline p in
  check_fragments "border helper emission" src
    [
      "static inline float read_mirror(const float* img";
      "static inline float read_repeat(const float* img";
      (* the constant border takes the fill value as a trailing argument *)
      "read_constant(const float* img, int x, int y, int w, int h, float c)";
      "0.5f)";
    ]

let test_emit_nonfinite_literals () =
  let render e = Format.asprintf "%a" Cg.Emit.expr e in
  Alcotest.(check string) "float nan" "NAN" (render (Cg.Cuda_ast.float_lit Float.nan));
  Alcotest.(check string) "float inf" "INFINITY"
    (render (Cg.Cuda_ast.float_lit Float.infinity));
  Alcotest.(check string) "float -inf" "-INFINITY"
    (render (Cg.Cuda_ast.float_lit Float.neg_infinity));
  Alcotest.(check string) "double -inf" "-INFINITY"
    (render (Cg.Cuda_ast.double_lit Float.neg_infinity));
  (* negation of a leading-minus rendering keeps the minuses apart *)
  Alcotest.(check string) "neg of -inf" "(- -INFINITY)"
    (render (Cg.Cuda_ast.Unop ("-", Cg.Cuda_ast.float_lit Float.neg_infinity)));
  Alcotest.(check string) "neg of negative literal" "(- -0.25f)"
    (render (Cg.Cuda_ast.Unop ("-", Cg.Cuda_ast.float_lit (-0.25))));
  Alcotest.(check string) "neg of positive literal" "(-0.25f)"
    (render (Cg.Cuda_ast.Unop ("-", Cg.Cuda_ast.float_lit 0.25)))

let test_for_step_validated () =
  let body = [ Cg.Cuda_ast.Return ] in
  let mk step =
    Cg.Cuda_ast.for_ ~var:"i" ~from_:(Cg.Cuda_ast.int_lit 0)
      ~below:(Cg.Cuda_ast.int_lit 4) ~step body
  in
  (match mk 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "for_ accepted step 0");
  (match mk (-2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "for_ accepted a negative step");
  (* the emitter backstops AST values built without the constructor *)
  let raw = Cg.Cuda_ast.For { var = "i"; from_ = Cg.Cuda_ast.int_lit 0;
                              below = Cg.Cuda_ast.int_lit 4; step = 0; body } in
  match Format.asprintf "%a" Cg.Emit.stmt raw with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "Emit printed a nonterminating loop: %s" s

(* ---- toolchain-guarded: generated C compiles warning-free ---- *)

let test_emit_compiles_warning_free () =
  let t = require_toolchain () in
  let dir = Filename.temp_file "kfuse_warn" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      List.iteri
        (fun i name ->
          let _, fused = fused_app name ~width:32 ~height:24 in
          let src_path = Filename.concat dir (Printf.sprintf "gen%d.c" i) in
          let obj_path = Filename.concat dir (Printf.sprintf "gen%d.o" i) in
          let log = Filename.concat dir (Printf.sprintf "cc%d.log" i) in
          Out_channel.with_open_text src_path (fun oc ->
              output_string oc
                (Cg.Lower_cpu.emit_pipeline ~prec:Cg.Lower_common.Double fused));
          let cmd =
            Printf.sprintf "%s -Wall -Werror -O2 %s -c -o %s %s > %s 2>&1"
              (Filename.quote t.Exec.Toolchain.cc)
              (if t.Exec.Toolchain.openmp then "-fopenmp" else "")
              (Filename.quote obj_path) (Filename.quote src_path) (Filename.quote log)
          in
          if Sys.command cmd <> 0 then
            Alcotest.failf "%s: generated C does not compile under -Wall -Werror:\n%s"
              name
              (In_channel.with_open_text log In_channel.input_all))
        [ "harris"; "night"; "shitomasi"; "enhance" ])

(* The halo bodies' [optimize("O1")] attribute keeps the command line's
   [-ffp-contract=off]: compiled for a CPU with FMA, with the one flag
   that lets -O1 form an FMA, no multiply-add is fused anywhere.  The
   same source with [-ffp-contract=fast] fuses some in a halo body, so
   the check can see one there; a compiler that fuses none skips. *)
let test_halo_keeps_fp_contract () =
  let t = require_toolchain () in
  let _, fused = fused_app "harris" ~width:32 ~height:24 in
  let dir = Filename.temp_file "kfuse_fma" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let src_path = Filename.concat dir "gen.c" and asm_path = Filename.concat dir "gen.s" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ src_path; asm_path ];
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      Out_channel.with_open_text src_path (fun oc ->
          output_string oc (Cg.Lower_cpu.emit_pipeline ~prec:Cg.Lower_common.Double fused));
      (* The fused multiply-adds in halo bodies and in all of the code,
         or [None] where the compiler does not take the flags. *)
      let fmas contract =
        let flags =
          List.map
            (fun f -> if f = "-ffp-contract=off" then "-ffp-contract=" ^ contract else f)
            Cg.Lower_cpu.cc_flags
        in
        let cmd =
          Printf.sprintf "%s %s %s -mfma -fexpensive-optimizations -S -o %s %s > /dev/null 2>&1"
            (Filename.quote t.Exec.Toolchain.cc) (String.concat " " flags)
            (if t.Exec.Toolchain.openmp then "-fopenmp" else "")
            (Filename.quote asm_path) (Filename.quote src_path)
        in
        if Sys.command cmd <> 0 then None
        else
          let halo = ref false and in_halo = ref 0 and total = ref 0 in
          List.iter
            (fun line ->
              if String.length line > 0 && line.[0] <> '\t' && line.[0] <> '.' then
                halo := contains "_halo" line
              else if contains ".size" line then halo := false
              else if contains "\tvfmadd" line || contains "\tvfmsub" line
                      || contains "\tvfnm" line
              then begin
                incr total;
                if !halo then incr in_halo
              end)
            (In_channel.with_open_text asm_path In_channel.input_lines);
          Some (!in_halo, !total)
      in
      match fmas "fast" with
      | None | Some (0, _) -> Alcotest.skip ()
      | Some _ -> (
        match fmas "off" with
        | None -> Alcotest.fail "generated C does not compile for an FMA target"
        | Some (_, total) ->
          Alcotest.(check int) "multiply-adds fused under -ffp-contract=off" 0 total))

(* ---- native execution end to end ---- *)

let rng = Kfuse_util.Rng.create 9002

let inputs_for (p : Ir.Pipeline.t) =
  List.map
    (fun n ->
      ( n,
        Img.Image.random rng ~width:p.Ir.Pipeline.width ~height:p.Ir.Pipeline.height
          ~lo:0.0 ~hi:1.0 ))
    p.Ir.Pipeline.inputs

let fresh_cache_dir () =
  let dir = Filename.temp_file "kfuse_exec_cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* One artifact cache for the whole suite: a pipeline that several cases
   run compiles once.  The cases that test the cache itself, or replace
   an artifact in it, take a fresh one ([with_fresh_cache_dir]). *)
let shared_cache_dir = lazy (fresh_cache_dir ())

let with_cache_dir f = f (Lazy.force shared_cache_dir)
let with_fresh_cache_dir f = f (fresh_cache_dir ())

(* Compile a table's artifacts into the shared cache two at a time
   before its rows run, so the C compiles that bound the table overlap;
   each row still runs, and reports any compile failure, itself. *)
let precompile jobs =
  let cache_dir = Lazy.force shared_cache_dir in
  let compile = List.iter (fun (mode, p) -> ignore (Exec.Native.compile ~cache_dir ~mode p)) in
  let half r = List.filteri (fun i _ -> i mod 2 = r) jobs in
  List.iter Thread.join [ Thread.create compile (half 0); Thread.create compile (half 1) ]

let max_diff reference outputs =
  Alcotest.(check (list string))
    "same output set" (List.map fst reference) (List.map fst outputs);
  List.fold_left2
    (fun acc (_, a) (_, b) -> Float.max acc (Img.Image.max_abs_diff a b))
    0.0 reference outputs

let run_exact ~mode ?(repeat = 1) ?params p =
  let _ = require_toolchain () in
  with_cache_dir @@ fun cache_dir ->
  let inputs = inputs_for p in
  let reference = Ir.Eval.run_outputs ?params p (Ir.Eval.env_of_list inputs) in
  match Exec.Native.run ~mode ~cache_dir ~repeat ?params p inputs with
  | Error d -> Alcotest.failf "native run failed: %s" (Kfuse_util.Diag.to_string d)
  | Ok r ->
    Alcotest.(check bool)
      "requested mode used" true (r.Exec.Native.mode_used = mode);
    Alcotest.(check int) "one sample per repeat" repeat
      (List.length r.Exec.Native.samples_ms);
    Alcotest.(check (float 0.0))
      "no difference against the interpreter" 0.0
      (max_diff reference r.Exec.Native.outputs);
    Alcotest.(check bool) "bit-exact against the interpreter" true
      (List.for_all2 (fun (_, a) (_, b) -> Img.Image.equal a b) reference r.Exec.Native.outputs);
    r

(* Every registry app, unfused (baseline) and min-cut fused under -O,
   at extents whose interior rows end in a vector epilogue (37 and 70
   columns) or hold a column or two at most (5 wide, 5 high), and one
   column wide where the app's stencils allow it (validation refuses a
   window wider than the space, KF0505), bit for bit against the
   interpreter.  The dispatch mode alternates along the extents, so
   each app and variant runs in both; the kernels are the same C in
   either. *)
let matrix_extents = [ (37, 23); (5, 70); (70, 5); (1, 9) ]

let test_apps_matrix_exact () =
  let _ = require_toolchain () in
  let plans =
    List.concat_map
      (fun (e : Kfuse_apps.Registry.entry) ->
        List.concat
        @@ List.mapi
          (fun i (width, height) ->
            let what v = Printf.sprintf "%s %s %dx%d" e.Kfuse_apps.Registry.name v width height in
            let p = e.Kfuse_apps.Registry.small ~width ~height in
            let plan ?optimize strategy =
              F.Driver.run_result ?optimize F.Config.default strategy p
              |> Result.map (fun r -> r.F.Driver.fused)
            in
            let mode = if i mod 2 = 0 then Exec.Native.Dlopen else Exec.Native.Subprocess in
            match (plan F.Driver.Baseline, plan ~optimize:true F.Driver.Mincut) with
            | Ok base, Ok mincut ->
              [ (what "baseline", mode, base); (what "mincut -O", mode, mincut) ]
            | Error { Kfuse_util.Diag.code = Kfuse_util.Diag.Mask_too_large; _ }, _ -> []
            | Error d, _ | _, Error d ->
              Alcotest.failf "%s: %s" (what "plan") (Kfuse_util.Diag.to_string d))
          matrix_extents)
      Kfuse_apps.Registry.all
  in
  Alcotest.(check bool) "at least three extents per app and variant" true
    (List.length plans >= 2 * 3 * List.length Kfuse_apps.Registry.all);
  precompile (List.map (fun (_, mode, p) -> (mode, p)) plans);
  List.iter
    (fun (what, mode, p) ->
      match run_exact ~mode p with
      | _ -> ()
      | exception e ->
        Alcotest.failf "%s (%s): %s" what (Exec.Native.mode_to_string mode) (Printexc.to_string e))
    plans

let test_native_dlopen_exact () =
  let _, fused = fused_app "sobel" ~width:16 ~height:12 in
  ignore (run_exact ~mode:Exec.Native.Dlopen fused)

let test_native_subprocess_exact () =
  let _, fused = fused_app "unsharp" ~width:16 ~height:12 in
  ignore (run_exact ~mode:Exec.Native.Subprocess ~repeat:3 fused)

(* The sandbox runner maps its files and runs the kernels on the maps:
   every input and output sits at an offset of one shared map, and the
   parameters trail the inputs. *)
let test_runner_layouts_exact () =
  let _, night_rgb =
    let p = Kfuse_apps.Extra.night_rgb_pipeline ~width:17 ~height:13 () in
    (p, (F.Driver.run F.Config.default F.Driver.Mincut p).F.Driver.fused)
  in
  Alcotest.(check (pair int int)) "night_rgb is 3-in/3-out" (3, 3)
    (List.length night_rgb.Ir.Pipeline.inputs, List.length (Ir.Pipeline.outputs night_rgb));
  let r = run_exact ~mode:Exec.Native.Subprocess night_rgb in
  Alcotest.(check int) "three outputs" 3 (List.length r.Exec.Native.outputs);
  (* no params, and a reduction output *)
  ignore (run_exact ~mode:Exec.Native.Subprocess (neg_reduce_pipeline ()));
  (* a param override lands in the file's tail *)
  let _, harris = fused_app "harris" ~width:15 ~height:11 in
  ignore (run_exact ~mode:Exec.Native.Subprocess ~params:[ ("k", 0.07) ] harris);
  (* no inputs and no params: an empty input file, never mapped *)
  let constant =
    Ir.Pipeline.create ~name:"konst" ~width:5 ~height:3 ~inputs:[]
      [ Ir.Kernel.map ~name:"c" ~inputs:[] (Ir.Expr.Const 2.5) ]
  in
  ignore (run_exact ~mode:Exec.Native.Subprocess constant)

let test_native_compile_cache () =
  let _ = require_toolchain () in
  let _, fused = fused_app "sobel" ~width:12 ~height:10 in
  with_fresh_cache_dir @@ fun cache_dir ->
  let inputs = inputs_for fused in
  let once () =
    match Exec.Native.run ~mode:Exec.Native.Dlopen ~cache_dir fused inputs with
    | Error d -> Alcotest.failf "native run failed: %s" (Kfuse_util.Diag.to_string d)
    | Ok r -> r
  in
  let first = once () in
  let second = once () in
  Alcotest.(check bool) "first run compiles" false first.Exec.Native.cached;
  Alcotest.(check bool) "second run hits the cache" true second.Exec.Native.cached;
  Alcotest.(check (float 0.0)) "cache hit spends nothing compiling" 0.0
    second.Exec.Native.compile_ms;
  Alcotest.(check string) "same artifact" first.Exec.Native.artifact
    second.Exec.Native.artifact

(* pow with a literal exponent of 2: the optimizer's pow(x,2) -> x*x
   strength reduction is 1 ulp off glibc's pow, which the interpreter
   calls.  -fno-builtin-pow keeps the compiled code on libm; this
   pipeline diverged before that flag existed. *)
let test_native_pow_faithful () =
  let p =
    Ir.Pipeline.create ~name:"powsq" ~width:24 ~height:17 ~inputs:[ "a"; "b" ]
      [
        Ir.Kernel.map ~name:"k" ~inputs:[ "a"; "b" ]
          Ir.Expr.(Binop (Pow, (input "a" * input "b") + neg (input "a"), Const 2.0));
      ]
  in
  ignore (run_exact ~mode:Exec.Native.Dlopen p);
  ignore (run_exact ~mode:Exec.Native.Subprocess p)

(* [Shift(+2, exchange){Input(-2)}] reads at total offset 0, but it
   first evaluates the position 2 away, where the exchange remaps: its
   reach is 2, not its radius.  The extra tap gives the kernel radius 1,
   so a lowering that took the interior margin from [Expr.radius] would
   run the raw body on pixels 1 from a border and read the wrong pixel
   at widths and heights 5 and 6.  One output per border mode; each
   extent from 2R to 2R+2 in both axes, and 1x1. *)
let test_native_reach_beyond_radius () =
  let open Ir.Expr in
  let modes =
    [ ("k_clamp", Img.Border.Clamp); ("k_mirror", Img.Border.Mirror);
      ("k_repeat", Img.Border.Repeat); ("k_const", Img.Border.Constant 0.5) ]
  in
  let body border =
    Shift
      { dx = 2; dy = 2; exchange = Some border;
        body = input ~border ~dx:(-2) ~dy:(-2) "a" }
    + (Const 0.5 * input ~border ~dx:1 ~dy:(-1) "a")
  in
  Alcotest.(check (pair int int)) "reach 2, radius 1" (2, 1)
    (reach (body Img.Border.Clamp), radius (body Img.Border.Clamp));
  let extents = (1, 1) :: List.concat_map (fun w -> List.map (fun h -> (w, h)) [ 4; 5; 6 ]) [ 4; 5; 6 ] in
  let pipelines =
    List.map
      (fun (width, height) ->
        Ir.Pipeline.create ~name:"reach" ~width ~height ~inputs:[ "a" ]
          (List.map
             (fun (name, border) -> Ir.Kernel.map ~name ~inputs:[ "a" ] (body border))
             modes))
      extents
  in
  let _ = require_toolchain () in
  precompile (List.map (fun p -> (Exec.Native.Dlopen, p)) pipelines);
  List.iter (fun p -> ignore (run_exact ~mode:Exec.Native.Dlopen p)) pipelines

(* Shrunk from [kfusec fuzz --cases 2 --seed 3 --native]: a global +
   reduction summed by an OpenMP team drifted from the interpreter's
   row-major sum (|diff| = 5.7e-14 on a 2-core host).  The inputs are
   built so any other summation order shows: 1e16 swallows the 0.5s
   that follow it, and the -1e16 halfway through cancels it, so only the
   row-major order ends at 22.5. *)
let test_native_sum_reduce_order () =
  let width = 13 and height = 7 in
  let p =
    Ir.Pipeline.create ~name:"fuzz_3_0" ~width ~height ~inputs:[ "frame"; "prev" ]
      [
        Ir.Kernel.reduce ~name:"k5" ~inputs:[ "prev" ] ~init:0.0 ~combine:Ir.Expr.Add
          (Ir.Expr.input "prev");
      ]
  in
  let half = width * height / 2 in
  let prev =
    Img.Image.init ~width ~height (fun x y ->
        match (y * width) + x with 0 -> 1e16 | i when i = half -> -1e16 | _ -> 0.5)
  in
  let inputs = [ ("frame", Img.Image.const ~width ~height 0.25); ("prev", prev) ] in
  let reference = Ir.Eval.run_outputs p (Ir.Eval.env_of_list inputs) in
  Alcotest.(check (float 0.0)) "row-major sum" 22.5
    (Img.Image.get (List.assoc "k5" reference) 0 0);
  List.iter
    (fun mode ->
      let _ = require_toolchain () in
      with_cache_dir @@ fun cache_dir ->
      match Exec.Native.run ~mode ~cache_dir p inputs with
      | Error d -> Alcotest.failf "native run failed: %s" (Kfuse_util.Diag.to_string d)
      | Ok r ->
        Alcotest.(check (float 0.0))
          (Exec.Native.mode_to_string mode ^ ": bit-exact sum")
          0.0
          (max_diff reference r.Exec.Native.outputs))
    [ Exec.Native.Dlopen; Exec.Native.Subprocess ]

let test_native_bad_calls_raise () =
  let _ = require_toolchain () in
  let _, fused = fused_app "sobel" ~width:10 ~height:8 in
  with_cache_dir @@ fun cache_dir ->
  let wrong_extent =
    [ ("in", Img.Image.const ~width:9 ~height:8 0.5) ]
  in
  (match Exec.Native.run ~cache_dir fused wrong_extent with
  | exception Invalid_argument _ -> ()
  | Ok _ -> Alcotest.fail "wrong-extent input accepted"
  | Error d -> Alcotest.failf "expected Invalid_argument, got %s" (Kfuse_util.Diag.to_string d));
  let inputs = inputs_for fused in
  match Exec.Native.run ~cache_dir ~params:[ ("nope", 1.0) ] fused inputs with
  | exception Invalid_argument _ -> ()
  | Ok _ -> Alcotest.fail "unknown parameter override accepted"
  | Error d -> Alcotest.failf "expected Invalid_argument, got %s" (Kfuse_util.Diag.to_string d)

let test_mode_string_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "mode_of_string inverts mode_to_string" true
        (Exec.Native.mode_of_string (Exec.Native.mode_to_string m) = Some m))
    [ Exec.Native.Dlopen; Exec.Native.Subprocess ];
  Alcotest.(check bool) "unknown mode rejected" true
    (Exec.Native.mode_of_string "jit" = None)

(* ---- the exec supervisor ---- *)

module Sup = Exec.Supervisor
module Faults = Kfuse_util.Faults
module Deadline = Kfuse_util.Deadline

let expect_failure (r : Sup.run) =
  match r.Sup.status with
  | Ok () -> Alcotest.fail "expected a supervised failure"
  | Error f -> f

let diag_code (r : Sup.run) =
  match Sup.failure_diag ~what:"fixture" r with
  | None -> Alcotest.fail "expected a failure diagnostic"
  | Some d -> Kfuse_util.Diag.code_id d.Kfuse_util.Diag.code

(* Compile a deliberately misbehaving C fixture with the probed
   toolchain — through the supervisor itself, so no shell appears
   anywhere in the test. *)
let compile_fixture name source =
  let t = require_toolchain () in
  let dir = Filename.temp_file "kfuse_sup" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let src = Filename.concat dir (name ^ ".c") in
  let bin = Filename.concat dir name in
  Out_channel.with_open_text src (fun oc -> output_string oc source);
  let r =
    Sup.run
      ~limits:{ Sup.no_limits with Sup.wall_ms = Some 60_000. }
      ~argv:[ t.Exec.Toolchain.cc; "-O0"; "-o"; bin; src ]
      ()
  in
  (match r.Sup.status with
  | Ok () -> ()
  | Error _ -> Alcotest.failf "fixture %s failed to compile: %s" name r.Sup.stderr_tail);
  bin

let test_supervisor_crash_kf0906 () =
  let bin =
    compile_fixture "crasher"
      "int main(void) { volatile int *p = 0; *p = 1; return 0; }\n"
  in
  let r = Sup.run ~argv:[ bin ] () in
  (match expect_failure r with
  | Sup.Crashed { signal } ->
    Alcotest.(check string) "crash signal named" "SIGSEGV" signal
  | _ -> Alcotest.fail "expected Crashed");
  Alcotest.(check string) "typed KF0906" "KF0906" (diag_code r)

let test_supervisor_timeout_kf0905 () =
  let bin = compile_fixture "looper" "int main(void) { for (;;); return 0; }\n" in
  let r =
    Sup.run
      ~limits:{ Sup.no_limits with Sup.wall_ms = Some 300. }
      ~argv:[ bin ] ()
  in
  (match expect_failure r with
  | Sup.Timeout { wall_ms; _ } ->
    Alcotest.(check bool) "watchdog fired near the cap" true (wall_ms >= 250.);
    Alcotest.(check bool) "and actually killed the child" true (wall_ms < 5_000.)
  | _ -> Alcotest.fail "expected Timeout");
  Alcotest.(check string) "typed KF0905" "KF0905" (diag_code r)

let test_supervisor_oom_kf0907 () =
  let bin =
    compile_fixture "oomer"
      "#include <stdlib.h>\n#include <string.h>\n\
       int main(void) {\n\
      \  for (;;) { void *p = malloc(1 << 22); if (!p) abort(); memset(p, 1, 1 << 22); }\n\
       }\n"
  in
  let r =
    Sup.run
      ~limits:
        {
          Sup.no_limits with
          Sup.wall_ms = Some 30_000.;
          Sup.mem_bytes = Some (64 * 1024 * 1024);
        }
      ~argv:[ bin ] ()
  in
  (match expect_failure r with
  | Sup.Limit { what; _ } ->
    Alcotest.(check bool) "names the address-space limit" true
      (contains "RLIMIT_AS" what)
  | _ -> Alcotest.fail "expected Limit");
  Alcotest.(check string) "typed KF0907" "KF0907" (diag_code r)

let test_supervisor_cpu_limit_kf0907 () =
  let bin = compile_fixture "spinner" "int main(void) { for (;;); return 0; }\n" in
  let r =
    Sup.run
      ~limits:
        { Sup.no_limits with Sup.wall_ms = Some 30_000.; Sup.cpu_s = Some 1 }
      ~argv:[ bin ] ()
  in
  (match expect_failure r with
  | Sup.Limit { what; _ } ->
    Alcotest.(check bool) "names the CPU limit" true (contains "RLIMIT_CPU" what)
  | _ -> Alcotest.fail "expected Limit");
  Alcotest.(check string) "typed KF0907" "KF0907" (diag_code r)

let test_supervisor_exit_and_spawn () =
  (* No toolchain needed: exit codes and spawn failures classify without
     compiling anything. *)
  let r = Sup.run ~argv:[ "false" ] () in
  (match expect_failure r with
  | Sup.Nonzero_exit { code } -> Alcotest.(check int) "exit code" 1 code
  | _ -> Alcotest.fail "expected Nonzero_exit");
  Alcotest.(check string) "nonzero exit stays KF0904" "KF0904" (diag_code r);
  let r = Sup.run ~argv:[ "/nonexistent/kfuse-no-such" ] () in
  (match expect_failure r with
  | Sup.Spawn_failed _ -> ()
  | _ -> Alcotest.fail "expected Spawn_failed");
  let r = Sup.run ~argv:[] () in
  match expect_failure r with
  | Sup.Spawn_failed { reason } ->
    Alcotest.(check string) "empty argv refused" "empty argv" reason
  | _ -> Alcotest.fail "expected Spawn_failed on empty argv"

let test_supervisor_expired_deadline () =
  (* An already-expired deadline must not even spawn the child. *)
  let r =
    Sup.run ~deadline:(Deadline.after_ms 0.) ~argv:[ "false" ] ()
  in
  (match expect_failure r with
  | Sup.Timeout { wall_ms; escalated } ->
    Alcotest.(check (float 0.0)) "no wall time spent" 0.0 wall_ms;
    Alcotest.(check bool) "nothing to escalate" false escalated
  | _ -> Alcotest.fail "expected Timeout");
  Alcotest.(check string) "typed KF0905" "KF0905" (diag_code r)

let test_supervisor_stderr_tail () =
  (* A real child's stderr is captured... *)
  let r = Sup.run ~argv:[ "ls"; "/nonexistent/kfuse-tail" ] () in
  (match r.Sup.status with
  | Error (Sup.Nonzero_exit _) -> ()
  | _ -> Alcotest.fail "expected ls to fail");
  Alcotest.(check bool) "stderr captured" true (String.length r.Sup.stderr_tail > 0);
  (* ... and the tail is capped at 4 KiB with a truncation marker. *)
  let path = Filename.temp_file "kfuse_tail" ".err" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.make 10_000 'x');
      output_string oc "THE-END");
  let tail = Sup.read_tail path in
  Alcotest.(check bool) "capped" true
    (String.length tail <= Sup.stderr_tail_limit + 32);
  Alcotest.(check bool) "marked truncated" true (contains "truncated" tail);
  Alcotest.(check bool) "keeps the end of the stream" true (contains "THE-END" tail)

(* ---- the sandbox runner ---- *)

let diag_id (d : Kfuse_util.Diag.t) = Kfuse_util.Diag.code_id d.Kfuse_util.Diag.code

let compile_runner ~cache_dir p =
  match Exec.Native.compile ~cache_dir ~mode:Exec.Native.Subprocess p with
  | Ok (path, _, _) -> path
  | Error d -> Alcotest.failf "compile failed: %s" (Kfuse_util.Diag.to_string d)

let int64s words =
  let b = Bytes.create (8 * List.length words) in
  List.iteri (fun i v -> Bytes.set_int64_ne b (8 * i) (Int64.of_int v)) words;
  b

let with_runner ?(limits = Sup.no_limits) ~arena_bytes argv f =
  match Sup.Runner.spawn ~limits ~arena_bytes ~argv with
  | Error e -> Alcotest.failf "runner spawn failed: %s" e
  | Ok r -> Fun.protect ~finally:(fun () -> Sup.Runner.kill r) (fun () -> f r)

(* One request frame straight to a compiled runner; its reply's output
   byte count on success. *)
(* A request frame (ABI v7: eleven words, here no flags, a zero
   generator state and zero lo and span) for a plan of [n_out] outputs,
   whose reply is seven words and three folds per output. *)
let exchange_frame ?(n_out = 1) r ~abi ~in_bytes ~out_bytes =
  let reply = Bytes.create (8 * (7 + (3 * n_out))) in
  let run =
    Sup.Runner.exchange r ~wall_ms:(Some 30_000.) ~misbehave:Sup.No_fault
      ~request:(int64s [ abi; in_bytes; out_bytes; 0; 0; 0; 0; 0; 0; 0; 0 ])
      ~reply
  in
  (run, Int64.to_int (Bytes.get_int64_ne reply 8))

(* A request frame whose byte counts disagree with the arena stops the
   runner: a short image, a missing parameter, a short output region
   and a stale ABI are each a typed KF0904 that names the mismatch. *)
let test_runner_truncated_input () =
  let _ = require_toolchain () in
  let _, fused = fused_app "unsharp" ~width:16 ~height:12 in
  Alcotest.(check (pair int int)) "one input, one param" (1, 1)
    (List.length fused.Ir.Pipeline.inputs, List.length fused.Ir.Pipeline.params);
  with_cache_dir @@ fun cache_dir ->
  let artifact = compile_runner ~cache_dir fused in
  let npix = 16 * 12 in
  let in_bytes = 8 * (npix + 1) and out_bytes = 8 * npix in
  let abi = Exec.Native.abi_version in
  let frame ?(abi = abi) ?(in_bytes = in_bytes) ?(out_bytes = out_bytes) () =
    with_runner ~arena_bytes:(8 * ((2 * npix) + 1)) [ artifact ] (fun r ->
        exchange_frame r ~abi ~in_bytes ~out_bytes)
  in
  List.iter
    (fun (what, (run, _)) ->
      Alcotest.(check string) (what ^ " is KF0904") "KF0904" (diag_code run);
      Alcotest.(check bool) (what ^ ": names the mismatch") true
        (contains "disagrees with the arena" run.Sup.stderr_tail))
    [
      ("short image", frame ~in_bytes:(8 * (npix - 1)) ());
      ("missing param", frame ~in_bytes:(8 * npix) ());
      ("short output", frame ~out_bytes:(out_bytes - 8) ());
      ("stale ABI", frame ~abi:(abi - 1) ());
    ];
  let run, wrote = frame () in
  (match run.Sup.status with
  | Ok () -> ()
  | Error _ -> Alcotest.failf "a complete frame failed: %s" run.Sup.stderr_tail);
  Alcotest.(check int) "reply reports the output region" out_bytes wrote

(* RLIMIT_FSIZE is checked against the arena's output region before any
   runner is spawned. *)
let test_runner_fsize_limit () =
  let _ = require_toolchain () in
  let _, fused = fused_app "sobel" ~width:16 ~height:12 in
  with_cache_dir @@ fun cache_dir ->
  let inputs = inputs_for fused in
  let out_bytes = 8 * 16 * 12 * List.length (Ir.Pipeline.outputs fused) in
  let run fsize =
    Exec.Native.run ~mode:Exec.Native.Subprocess ~cache_dir
      ~limits:{ Sup.no_limits with Sup.wall_ms = Some 30_000.; Sup.fsize_bytes = Some fsize }
      fused inputs
  in
  let spawns () = (Exec.Native.runner_stats ()).Exec.Native.runner_spawns in
  let before = spawns () in
  (match run (out_bytes - 8) with
  | Ok _ -> Alcotest.fail "an output past RLIMIT_FSIZE was accepted"
  | Error d ->
    Alcotest.(check string) "typed KF0907" "KF0907" (diag_id d);
    Alcotest.(check bool) "names RLIMIT_FSIZE" true
      (contains "RLIMIT_FSIZE" (Kfuse_util.Diag.to_string d)));
  Alcotest.(check int) "refused before spawning" before (spawns ());
  match run out_bytes with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "an output at the limit failed: %s" (Kfuse_util.Diag.to_string d)

(* A runner whose workspace does not fit under RLIMIT_AS dies at
   start-up as an allocation inside a kernel would: kf_malloc's abort,
   typed KF0907.  Sixteen 8 MiB intermediates make a 128 MiB workspace
   beside a 16 MiB arena. *)
let test_runner_workspace_limit () =
  let _ = require_toolchain () in
  let stage i = if i = 0 then "src" else Printf.sprintf "k%d" (i - 1) in
  let p =
    Ir.Pipeline.create ~name:"deep" ~width:1024 ~height:1024 ~inputs:[ "src" ]
      (List.init 17 (fun i ->
           Ir.Kernel.map ~name:(Printf.sprintf "k%d" i) ~inputs:[ stage i ]
             Ir.Expr.(Binop (Add, input (stage i), Const 1.0))))
  in
  Alcotest.(check int) "workspace scalars" (16 * 1024 * 1024)
    (Cg.Lower_cpu.workspace_scalars p);
  with_cache_dir @@ fun cache_dir ->
  match
    Exec.Native.run ~mode:Exec.Native.Subprocess ~cache_dir
      ~limits:
        {
          Sup.no_limits with
          Sup.wall_ms = Some 30_000.;
          Sup.mem_bytes = Some (96 * 1024 * 1024);
        }
      p (inputs_for p)
  with
  | Ok _ -> Alcotest.fail "a workspace past RLIMIT_AS was allocated"
  | Error d ->
    Alcotest.(check string) "typed KF0907" "KF0907" (diag_id d);
    Alcotest.(check bool) "names RLIMIT_AS" true
      (contains "RLIMIT_AS" (Kfuse_util.Diag.to_string d))

(* The parent never maps the arena and trusts no reply it did not get
   in full: a runner that reports a short output, or exits 0 in the
   middle of a request, is a typed KF0904. *)
let test_runner_short_output () =
  let _ = require_toolchain () in
  let _, fused = fused_app "sobel" ~width:16 ~height:12 in
  (* The fixtures replace the plan's artifact: a cache of its own. *)
  with_fresh_cache_dir @@ fun cache_dir ->
  match Exec.Native.prepare ~cache_dir ~mode:Exec.Native.Subprocess fused with
  | Error d -> Alcotest.failf "prepare failed: %s" (Kfuse_util.Diag.to_string d)
  | Ok plan ->
    Fun.protect ~finally:(fun () -> Exec.Native.release plan) @@ fun () ->
    (* A request is eleven words; a reply seven and three per output. *)
    let reply_words = 7 + (3 * List.length (Ir.Pipeline.outputs fused)) in
    let fixture name body =
      compile_fixture name
        (Printf.sprintf
           "#include <stdint.h>\n#include <unistd.h>\n\
            int main(void) {\n\
           \  int64_t req[11];\n\
           \  if (read(4, req, sizeof req) != (ssize_t)sizeof req) return 1;\n\
           \  %s\n\
            }\n"
           body)
    in
    List.iter
      (fun (name, body, expect) ->
        Sys.rename (fixture name body) (Exec.Native.plan_artifact plan);
        match Exec.Native.run_plan plan (inputs_for fused) with
        | Ok _ -> Alcotest.failf "%s: a short reply was accepted" name
        | Error d ->
          Alcotest.(check string) (name ^ ": typed KF0904") "KF0904" (diag_id d);
          Alcotest.(check bool) (name ^ ": says why") true
            (contains expect (Kfuse_util.Diag.to_string d)))
      [
        ( "shortout",
          Printf.sprintf
            "int64_t rep[%d] = { %d, 8 };\n\
            \  if (write(5, rep, sizeof rep) != (ssize_t)sizeof rep) return 1;\n\
            \  while (read(4, req, sizeof req) > 0) {}\n\
            \  return 0;"
            reply_words Exec.Native.abi_version,
          "wrote 8 bytes" );
        ("quitter", "return 0;", "exited 0 mid-request");
      ]

(* The exec.* chaos points are drawn by the parent and acted out by the
   runner, so they exercise the real kill-and-respawn path: each is its
   typed failure, and the next request succeeds on a fresh runner. *)
let test_exec_fault_points () =
  let _ = require_toolchain () in
  let _, fused = fused_app "sobel" ~width:16 ~height:12 in
  with_cache_dir @@ fun cache_dir ->
  let inputs = inputs_for fused in
  let reference = Ir.Eval.run_outputs fused (Ir.Eval.env_of_list inputs) in
  let limits = { Sup.default_limits with Sup.wall_ms = Some 300. } in
  let run () = Exec.Native.run ~mode:Exec.Native.Subprocess ~cache_dir ~limits fused inputs in
  let stats () = Exec.Native.runner_stats () in
  let clean what =
    match run () with
    | Ok r -> Alcotest.(check (float 0.0)) what 0.0 (max_diff reference r.Exec.Native.outputs)
    | Error d -> Alcotest.failf "%s: %s" what (Kfuse_util.Diag.to_string d)
  in
  clean "warm runner";
  List.iter
    (fun (spec, code) ->
      let before = stats () in
      Faults.with_spec spec (fun () ->
          match run () with
          | Ok _ -> Alcotest.failf "%s: expected a typed failure" spec
          | Error d -> Alcotest.(check string) spec code (diag_id d));
      Alcotest.(check int) (spec ^ ": runner killed") (before.Exec.Native.runner_kills + 1)
        (stats ()).Exec.Native.runner_kills;
      clean (spec ^ ": next request exact");
      Alcotest.(check int) (spec ^ ": on a respawned runner")
        (before.Exec.Native.runner_spawns + 1)
        (stats ()).Exec.Native.runner_spawns)
    [ ("exec.crash@1", "KF0906"); ("exec.hang@1", "KF0905"); ("exec.oom@1", "KF0907") ];
  (* The compiler runs through [Sup.run], which never draws a fault. *)
  Faults.with_spec "exec.crash@1" (fun () ->
      let r = Sup.run ~argv:[ "true" ] () in
      match r.Sup.status with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "Sup.run must ignore armed exec.* points")

(* One runner serves two requests with different inputs (and, for
   harris, different parameters), each bit-exact against the
   interpreter: nothing of the first request leaks into the second. *)
let test_runner_reuse_exact () =
  let _ = require_toolchain () in
  with_cache_dir @@ fun cache_dir ->
  let night_rgb =
    let p = Kfuse_apps.Extra.night_rgb_pipeline ~width:17 ~height:13 () in
    (F.Driver.run F.Config.default F.Driver.Mincut p).F.Driver.fused
  in
  let constant =
    Ir.Pipeline.create ~name:"konst" ~width:5 ~height:3 ~inputs:[]
      [ Ir.Kernel.map ~name:"c" ~inputs:[] (Ir.Expr.Const 2.5) ]
  in
  let cases =
    [
      ("sobel", snd (fused_app "sobel" ~width:16 ~height:12), [ []; [] ]);
      ("night_rgb", night_rgb, [ []; [] ]);
      ("harris", snd (fused_app "harris" ~width:15 ~height:11), [ [ ("k", 0.04) ]; [ ("k", 0.07) ] ]);
      ("reduction", neg_reduce_pipeline (), [ []; [] ]);
      ("no inputs", constant, [ []; [] ]);
    ]
  in
  List.iter
    (fun (name, p, params_per_request) ->
      (* Other cases may have left this artifact's runner idle. *)
      Exec.Native.shutdown_runners ();
      let before = (Exec.Native.runner_stats ()).Exec.Native.runner_spawns in
      List.iteri
        (fun seed params ->
          let rng = Kfuse_util.Rng.create (100 + seed) in
          let inputs =
            List.map
              (fun n ->
                ( n,
                  Img.Image.random rng ~width:p.Ir.Pipeline.width ~height:p.Ir.Pipeline.height
                    ~lo:0.0 ~hi:1.0 ))
              p.Ir.Pipeline.inputs
          in
          let reference = Ir.Eval.run_outputs ~params p (Ir.Eval.env_of_list inputs) in
          match Exec.Native.run ~mode:Exec.Native.Subprocess ~cache_dir ~params p inputs with
          | Error d -> Alcotest.failf "%s: %s" name (Kfuse_util.Diag.to_string d)
          | Ok r ->
            Alcotest.(check (float 0.0))
              (Printf.sprintf "%s request %d bit-exact" name (seed + 1))
              0.0
              (max_diff reference r.Exec.Native.outputs))
        params_per_request;
      Alcotest.(check int) (name ^ ": one runner served both") (before + 1)
        (Exec.Native.runner_stats ()).Exec.Native.runner_spawns)
    cases

(* A fixture runner that burns the CPU milliseconds each request asks
   for (forever when negative), replying with the request. *)
let burner_source =
  "#include <stdint.h>\n#include <time.h>\n#include <unistd.h>\n\
   static double cpu(void) {\n\
  \  struct timespec ts;\n\
  \  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);\n\
  \  return ts.tv_sec + ts.tv_nsec * 1e-9;\n\
   }\n\
   int main(void) {\n\
  \  int64_t ms;\n\
  \  while (read(4, &ms, sizeof ms) == (ssize_t)sizeof ms) {\n\
  \    double until = cpu() + ms / 1000.0;\n\
  \    volatile double x = 0;\n\
  \    while (ms < 0 || cpu() < until) x += 1;\n\
  \    if (write(5, &ms, sizeof ms) != (ssize_t)sizeof ms) return 1;\n\
  \  }\n\
  \  return 0;\n\
   }\n"

let test_runner_cpu_per_request () =
  let bin = compile_fixture "burner" burner_source in
  let limits = { Sup.no_limits with Sup.cpu_s = Some 1 } in
  with_runner ~limits ~arena_bytes:8 [ bin ] @@ fun r ->
  let burn ms =
    Sup.Runner.exchange r ~wall_ms:(Some 30_000.) ~misbehave:Sup.No_fault
      ~request:(int64s [ ms ]) ~reply:(Bytes.create 8)
  in
  (* 4 x 400 ms: well past the 1 s cap in total, never within one request. *)
  for i = 1 to 4 do
    match (burn 400).Sup.status with
    | Ok () -> ()
    | Error _ -> Alcotest.failf "clean request %d was killed" i
  done;
  let run = burn (-1) in
  (match expect_failure run with
  | Sup.Limit { what; _ } ->
    Alcotest.(check bool) "names the CPU limit" true (contains "RLIMIT_CPU" what)
  | _ -> Alcotest.fail "a runaway request must hit RLIMIT_CPU");
  Alcotest.(check string) "typed KF0907" "KF0907" (diag_code run)

(* A fixture runner that writes 64 KiB of stderr per clean request and
   aborts on request 0, naming each request on stderr. *)
let chatter_source =
  "#include <stdint.h>\n#include <stdio.h>\n#include <stdlib.h>\n\
   #include <string.h>\n#include <unistd.h>\n\
   int main(void) {\n\
  \  static char noise[65536];\n\
  \  int64_t n;\n\
  \  memset(noise, '.', sizeof noise);\n\
  \  while (read(4, &n, sizeof n) == (ssize_t)sizeof n) {\n\
  \    if (n == 0) { dprintf(2, \"request-0\\n\"); abort(); }\n\
  \    if (write(2, noise, sizeof noise) != (ssize_t)sizeof noise) return 1;\n\
  \    dprintf(2, \"request-%lld\\n\", (long long)n);\n\
  \    if (write(5, &n, sizeof n) != (ssize_t)sizeof n) return 1;\n\
  \  }\n\
  \  return 0;\n\
   }\n"

(* A runner's stderr is emptied before each request: a failure reports
   its own request's output alone, and clean requests whose stderr adds
   up past RLIMIT_FSIZE are not killed for it. *)
let test_runner_stderr_per_request () =
  let bin = compile_fixture "chatter" chatter_source in
  let limits = { Sup.no_limits with Sup.fsize_bytes = Some 100_000 } in
  with_runner ~limits ~arena_bytes:8 [ bin ] @@ fun r ->
  let send n =
    Sup.Runner.exchange r ~wall_ms:(Some 30_000.) ~misbehave:Sup.No_fault
      ~request:(int64s [ n ]) ~reply:(Bytes.create 8)
  in
  for n = 1 to 4 do
    match (send n).Sup.status with
    | Ok () -> ()
    | Error _ -> Alcotest.failf "clean request %d failed" n
  done;
  let run = send 0 in
  (match expect_failure run with
  | Sup.Crashed { signal } -> Alcotest.(check string) "the abort itself" "SIGABRT" signal
  | _ -> Alcotest.fail "expected the runner's own abort");
  Alcotest.(check string) "only the failed request's stderr" "request-0\n" run.Sup.stderr_tail

let proc_links pid =
  let dir = Printf.sprintf "/proc/%d/fd" pid in
  Array.to_list (Sys.readdir dir)
  |> List.filter_map (fun fd ->
         try Some (int_of_string fd, Unix.readlink (Filename.concat dir fd))
         with Unix.Unix_error _ | Failure _ -> None)
  |> List.sort compare

(* No runner outlives its purpose: it exits 0 once its request pipe
   closes, holds no fd of its parent's beyond its own three (so not a
   sibling's pipe), the idle pool is capped, and a pool shutdown leaves
   none alive. *)
let test_runner_no_leaks () =
  let _ = require_toolchain () in
  let _, fused = fused_app "sobel" ~width:16 ~height:12 in
  with_cache_dir @@ fun cache_dir ->
  let artifact = compile_runner ~cache_dir fused in
  let npix = 16 * 12 in
  let n_out = List.length (Ir.Pipeline.outputs fused) in
  let in_bytes = 8 * npix and out_bytes = 8 * n_out * npix in
  let spawn () =
    match
      Sup.Runner.spawn ~limits:Sup.no_limits ~arena_bytes:(in_bytes + out_bytes)
        ~argv:[ artifact ]
    with
    | Error e -> Alcotest.failf "runner spawn failed: %s" e
    | Ok r ->
      (* One exchange: past it, the runner has certainly exec'd. *)
      let run, _ = exchange_frame ~n_out r ~abi:Exec.Native.abi_version ~in_bytes ~out_bytes in
      (match run.Sup.status with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "warm-up request failed: %s" run.Sup.stderr_tail);
      r
  in
  let first = spawn () in
  let second = spawn () in
  let pipes r =
    List.filter_map
      (fun (fd, target) -> if fd = 4 || fd = 5 then Some target else None)
      (proc_links (Sup.Runner.pid r))
  in
  let second_fds = proc_links (Sup.Runner.pid second) in
  Alcotest.(check (list int)) "the second runner holds fds 0-2, 4 and 5 only"
    [ 0; 1; 2; 4; 5 ] (List.map fst second_fds);
  List.iter
    (fun target ->
      Alcotest.(check bool) ("not the first runner's " ^ target) false
        (List.mem target (List.map snd second_fds)))
    (pipes first);
  (match Sup.Runner.close first with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "a runner must exit 0 on EOF of its request pipe");
  ignore (Sup.Runner.close second);
  (* Through the pool: two artifacts served, then shutdown. *)
  let _, unsharp = fused_app "unsharp" ~width:16 ~height:12 in
  List.iter
    (fun p ->
      match Exec.Native.run ~mode:Exec.Native.Subprocess ~cache_dir p (inputs_for p) with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "pooled run failed: %s" (Kfuse_util.Diag.to_string d))
    [ fused; unsharp ];
  Alcotest.(check bool) "runners live while pooled" true
    ((Exec.Native.runner_stats ()).Exec.Native.runners >= 2);
  (* Nine more plans, each its own artifact: the least recently used
     idle runners retire, and 8 stay. *)
  for i = 1 to 9 do
    let p =
      Ir.Pipeline.create ~name:"konst" ~width:5 ~height:3 ~inputs:[]
        [ Ir.Kernel.map ~name:"c" ~inputs:[] (Ir.Expr.Const (float_of_int i)) ]
    in
    match Exec.Native.run ~mode:Exec.Native.Subprocess ~cache_dir p [] with
    | Ok _ -> ()
    | Error d -> Alcotest.failf "pooled run failed: %s" (Kfuse_util.Diag.to_string d)
  done;
  Alcotest.(check int) "idle runners are capped" 8
    (Exec.Native.runner_stats ()).Exec.Native.runners;
  Exec.Native.shutdown_runners ();
  Alcotest.(check int) "no runner after shutdown" 0
    (Exec.Native.runner_stats ()).Exec.Native.runners

(* Toolchain discovery is single-flight: threads racing on a cold memo
   probe exactly as often as one caller does, and agree. *)
let test_toolchain_find_single_flight () =
  Exec.Toolchain.forget ();
  let p0 = Exec.Toolchain.probes () in
  let serial = Exec.Toolchain.find () in
  let per_find = Exec.Toolchain.probes () - p0 in
  Exec.Toolchain.forget ();
  let p1 = Exec.Toolchain.probes () in
  let results = Array.make 8 None in
  List.iter Thread.join
    (List.init 8 (fun i ->
         Thread.create
           (fun () ->
             results.(i) <-
               Some (try Ok (Exec.Toolchain.find ()) with e -> Error (Printexc.to_string e)))
           ()));
  Alcotest.(check int) "probed once, not once per thread" per_find (Exec.Toolchain.probes () - p1);
  Array.iteri
    (fun i r ->
      match r with
      | Some (Ok found) ->
        Alcotest.(check bool) (Printf.sprintf "thread %d agrees" i) true (found = serial)
      | Some (Error e) -> Alcotest.failf "thread %d raised %s" i e
      | None -> Alcotest.failf "thread %d never finished" i)
    results

let test_breaker_lifecycle () =
  let b = Sup.Breaker.create ~threshold:2 ~cooldown_ms:50. () in
  let d = Kfuse_util.Diag.errorf Kfuse_util.Diag.Exec_crashed "fixture crash" in
  let expect what verdict =
    match (Sup.Breaker.check b "fp", verdict) with
    | Sup.Breaker.Allow, `Allow
    | Sup.Breaker.Probe, `Probe
    | Sup.Breaker.Quarantined _, `Quarantined ->
      ()
    | got, _ ->
      Alcotest.failf "%s: unexpected verdict %s" what
        (match got with
        | Sup.Breaker.Allow -> "Allow"
        | Sup.Breaker.Probe -> "Probe"
        | Sup.Breaker.Quarantined _ -> "Quarantined")
  in
  expect "fresh fingerprint" `Allow;
  Alcotest.(check bool) "first failure does not trip" false
    (Sup.Breaker.record_failure b "fp" d);
  expect "below threshold" `Allow;
  Alcotest.(check bool) "threshold failure trips" true
    (Sup.Breaker.record_failure b "fp" d);
  Alcotest.(check int) "one quarantined plan" 1 (Sup.Breaker.quarantined b);
  expect "tripped" `Quarantined;
  Thread.delay 0.08;
  expect "after cooldown" `Probe;
  expect "second caller during the probe window" `Quarantined;
  (* A failed probe re-arms the cooldown without re-tripping. *)
  Alcotest.(check bool) "failed probe is not a new trip" false
    (Sup.Breaker.record_failure b "fp" d);
  expect "re-armed" `Quarantined;
  Thread.delay 0.08;
  expect "second probe" `Probe;
  Alcotest.(check bool) "successful probe closes" true (Sup.Breaker.record_success b "fp");
  Alcotest.(check int) "nothing quarantined" 0 (Sup.Breaker.quarantined b);
  expect "closed again" `Allow;
  (* Success on a closed breaker is not a close edge; interleaved
     successes keep resetting the consecutive-failure count. *)
  Alcotest.(check bool) "no close edge when already closed" false
    (Sup.Breaker.record_success b "fp");
  ignore (Sup.Breaker.record_failure b "fp" d);
  ignore (Sup.Breaker.record_success b "fp");
  Alcotest.(check bool) "failure count was reset by the success" false
    (Sup.Breaker.record_failure b "fp" d);
  (* reset_all clears open state and the gauge base. *)
  ignore (Sup.Breaker.record_failure b "fp" d);
  Alcotest.(check int) "tripped again" 1 (Sup.Breaker.quarantined b);
  Sup.Breaker.reset_all b;
  Alcotest.(check int) "reset_all closes everything" 0 (Sup.Breaker.quarantined b);
  expect "after reset_all" `Allow;
  match Sup.Breaker.create ~threshold:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "threshold 0 accepted"

let test_crash_artifact_roundtrip () =
  let p =
    Ir.Pipeline.create ~name:"artifact" ~width:8 ~height:6 ~inputs:[ "src" ]
      [ Ir.Kernel.map ~name:"m" ~inputs:[ "src" ] Ir.Expr.(input "src" * Const 2.0) ]
  in
  let diag = Kfuse_util.Diag.errorf Kfuse_util.Diag.Exec_crashed "fixture crashed with SIGSEGV" in
  let dir = Filename.temp_file "kfuse_crashdir" "" in
  Sys.remove dir;
  let path =
    match Sup.save_crash_artifact ~dir ~seed:7 ~toolchain:"cc-fixture" ~diag p with
    | Ok path -> path
    | Error e -> Alcotest.failf "save_crash_artifact failed: %s" e
  in
  (* Idempotent per pipeline: a second save is the same file. *)
  (match Sup.save_crash_artifact ~dir ~seed:7 ~toolchain:"cc-fixture" ~diag p with
  | Ok again -> Alcotest.(check string) "idempotent" path again
  | Error e -> Alcotest.failf "second save failed: %s" e);
  (* The artifact is a loadable fuzz-corpus entry carrying provenance. *)
  match Fz.Corpus.load_file path with
  | Error e -> Alcotest.failf "corpus cannot load the crash artifact: %s" e
  | Ok entry ->
    Alcotest.(check (option int)) "seed recorded" (Some 7) entry.Fz.Corpus.seed;
    Alcotest.(check (option string)) "oracle recorded" (Some "exec-supervisor")
      entry.Fz.Corpus.oracle;
    (match entry.Fz.Corpus.detail with
    | Some d ->
      Alcotest.(check bool) "detail carries the diagnostic" true (contains "KF0906" d);
      Alcotest.(check bool) "detail carries the toolchain id" true
        (contains "cc-fixture" d)
    | None -> Alcotest.fail "detail missing");
    let norm q = Kfuse_cache.Fingerprint.structural (Fz.Corpus.normalize q) in
    Alcotest.(check string) "pipeline round-trips" (norm p)
      (norm entry.Fz.Corpus.pipeline)

(* Workers of one daemon, and the shards of a fleet, share one crash
   directory: concurrent saves of one artifact must not share a temp
   file, or one can rename another's half-written file or find it gone. *)
let test_crash_artifact_concurrent () =
  let p =
    Ir.Pipeline.create ~name:"racing" ~width:8 ~height:6 ~inputs:[ "src" ]
      [ Ir.Kernel.map ~name:"m" ~inputs:[ "src" ] Ir.Expr.(input "src" + Const 1.0) ]
  in
  let diag = Kfuse_util.Diag.errorf Kfuse_util.Diag.Exec_crashed "fixture crashed" in
  let dir = Filename.temp_file "kfuse_crashdir" "" in
  Sys.remove dir;
  let gate = Atomic.make 0 in
  let results = Array.make 8 (Error "not run") in
  let threads =
    Array.init 8 (fun i ->
        Thread.create
          (fun () ->
            Atomic.incr gate;
            while Atomic.get gate < 8 do
              Thread.yield ()
            done;
            results.(i) <- Sup.save_crash_artifact ~dir ~seed:i ~toolchain:"cc-fixture" ~diag p)
          ())
  in
  Array.iter Thread.join threads;
  let paths =
    Array.to_list results
    |> List.map (function
         | Ok path -> path
         | Error e -> Alcotest.failf "a concurrent save failed: %s" e)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "one artifact path" 1 (List.length paths);
  Alcotest.(check (list string)) "no temp file left" [ Filename.basename (List.hd paths) ]
    (Array.to_list (Sys.readdir dir));
  match Fz.Corpus.load_file (List.hd paths) with
  | Error e -> Alcotest.failf "corpus cannot load the raced artifact: %s" e
  | Ok entry ->
    let norm q = Kfuse_cache.Fingerprint.structural (Fz.Corpus.normalize q) in
    Alcotest.(check string) "pipeline round-trips" (norm p) (norm entry.Fz.Corpus.pipeline)

let test_deadline_between_samples () =
  let _ = require_toolchain () in
  let _, fused = fused_app "sobel" ~width:12 ~height:10 in
  with_cache_dir @@ fun cache_dir ->
  let inputs = inputs_for fused in
  (* Warm the artifact cache so the deadline check hits the sampling
     loop, not the compile. *)
  (match Exec.Native.run ~mode:Exec.Native.Dlopen ~cache_dir fused inputs with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "warm-up failed: %s" (Kfuse_util.Diag.to_string d));
  (* Dlopen: sample 1 always runs, the deadline check between samples
     stops the loop with a typed KF0905 naming the progress made. *)
  (match
     Exec.Native.run ~mode:Exec.Native.Dlopen ~cache_dir
       ~deadline:(Deadline.after_ms 0.) ~repeat:3 fused inputs
   with
  | Ok _ -> Alcotest.fail "expired deadline should stop the sampling loop"
  | Error d ->
    Alcotest.(check string) "typed KF0905" "KF0905"
      (Kfuse_util.Diag.code_id d.Kfuse_util.Diag.code);
    Alcotest.(check bool) "names the sample progress" true
      (contains "timing samples" (Kfuse_util.Diag.to_string d)));
  (* Subprocess: the supervisor refuses to even spawn under an expired
     deadline. *)
  match
    Exec.Native.run ~mode:Exec.Native.Subprocess ~cache_dir
      ~deadline:(Deadline.after_ms 0.) fused inputs
  with
  | Ok _ -> Alcotest.fail "expired deadline should stop the subprocess run"
  | Error d ->
    Alcotest.(check string) "typed KF0905" "KF0905"
      (Kfuse_util.Diag.code_id d.Kfuse_util.Diag.code)

let test_policy_string_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "policy_of_string inverts policy_to_string" true
        (Sup.policy_of_string (Sup.policy_to_string p) = Some p))
    [ Sup.Sandboxed; Sup.Dlopen_trusted ];
  Alcotest.(check bool) "unknown policy rejected" true (Sup.policy_of_string "chroot" = None);
  Alcotest.(check bool) "the removed \"off\" policy is rejected" true
    (Sup.policy_of_string "off" = None)

(* ---- line-buffered taps ---- *)

(* [l = log(in + c)] under a 3x3 box: min-cut fuses the point producer
   into the box, so its log lands at nine taps of one kernel. *)
let logbox ~border ~width ~height =
  let src =
    Printf.sprintf
      "pipeline logbox(in) {\n  size 64 64\n  l   = log(in + 0.5)\n  out = conv(l, mean3, %s)\n}\n"
      border
  in
  match Kfuse_dsl.Elaborate.parse_pipeline ~width ~height src with
  | Error e -> Alcotest.failf "logbox (%s): %s" border e
  | Ok p -> (F.Driver.run F.Config.default F.Driver.Mincut p).F.Driver.fused

let logbox_borders = [ "clamp"; "mirror"; "repeat"; "constant(0.25)" ]

(* Extents whose rows split into tiny or uneven strips. *)
let strip_sizes = [ (3, 3); (5, 17); (1023, 7) ]

let hoists (p : Ir.Pipeline.t) =
  Array.to_list p.Ir.Pipeline.kernels
  |> List.concat_map (fun (k : Ir.Kernel.t) ->
         match k.Ir.Kernel.op with
         | Ir.Kernel.Map body -> Cg.Line_buffer.hoists (Cg.Line_buffer.analyse body)
         | Ir.Kernel.Reduce _ -> [])

(* The rule fires on enhance's nine log taps and nowhere in the other
   paper apps: their stencil interiors keep the one parallel-for loop. *)
let test_line_buffer_fires () =
  let _, enhance = fused_app "enhance" ~width:64 ~height:48 in
  (match hoists enhance with
  | [ h ] ->
    Alcotest.(check int) "nine tap positions" 9 (List.length h.Cg.Line_buffer.positions)
  | hs -> Alcotest.failf "enhance: expected one hoist, got %d" (List.length hs));
  let src = Cg.Lower_cpu.emit_pipeline ~prec:Cg.Lower_common.Double enhance in
  check_fragments "enhance line buffer" src
    [
      "static inline void* kf_malloc(size_t n)";
      "if (!p) abort();";
      "static inline void kf_strip(int n, int* lo, int* hi)";
      "kf_strip(height, (&kf_y0), (&kf_y1));";
      "double* kf_lb = kf_malloc(((sizeof(double) * 3) * width));";
      (* the fill's log runs in a loop of its own over a row temporary,
         and a call-free loop copies the result into the ring *)
      "kf_rt0[x] = (img_in[((kf_yy * width) + x)] + 9.9999999999999995e-07);";
      "kf_rt0[x] = log(kf_rt0[x]);";
      "const double kf_c1 = kf_rt0[x];";
      "kf_row[x] = kf_c1;";
      "kf_t0_0[(x - 1)]";
      "free(kf_lb);";
    ];
  if contains "img_in[(((y - 1) * width)" src then
    Alcotest.failf "enhance interior still loads its taps:\n%s" src;
  List.iter
    (fun name ->
      let _, fused = fused_app name ~width:64 ~height:48 in
      Alcotest.(check int) (name ^ ": nothing hoisted") 0 (List.length (hoists fused));
      let src = Cg.Lower_cpu.emit_pipeline ~prec:Cg.Lower_common.Double fused in
      List.iter
        (fun bad -> if contains bad src then Alcotest.failf "%s emits %s:\n%s" name bad src)
        [ "kf_strip(height"; "kf_lb" ];
      (* Night's scoto calls exp and pow, so it allocates the per-thread
         row temporaries of its call loops and nothing else; the other
         apps call none of them and allocate nothing. *)
      let allocs = occurrences src "kf_malloc((" in
      let row_temps = occurrences src "double* kf_rt = kf_malloc((" in
      if name = "night" && (row_temps = 0 || allocs <> row_temps) then
        Alcotest.failf "night: %d allocations, %d of them row temporaries:\n%s" allocs row_temps
          src
      else if name <> "night" && allocs > 0 then
        Alcotest.failf "%s allocates %d buffers:\n%s" name allocs src)
    [ "sobel"; "unsharp"; "motion"; "night"; "harris"; "shitomasi" ];
  List.iter
    (fun border ->
      Alcotest.(check int) ("logbox " ^ border ^ ": one hoist") 1
        (List.length (hoists (logbox ~border ~width:16 ~height:12))))
    logbox_borders

(* Enhance and the fused log-box under every border mode, at extents
   whose strips are tiny or uneven, bit-exact in process. *)
let test_line_buffer_exact () =
  let _ = require_toolchain () in
  let pipelines =
    List.concat_map
      (fun (width, height) ->
        snd (fused_app "enhance" ~width ~height)
        :: List.map (fun border -> logbox ~border ~width ~height) logbox_borders)
      strip_sizes
  in
  precompile (List.map (fun p -> (Exec.Native.Dlopen, p)) pipelines);
  List.iter (fun p -> ignore (run_exact ~mode:Exec.Native.Dlopen p)) pipelines

(* ---- the driver's workspace ---- *)

let seeded_inputs seed (p : Ir.Pipeline.t) =
  let rng = Kfuse_util.Rng.create seed in
  List.map
    (fun n ->
      ( n,
        Img.Image.random rng ~width:p.Ir.Pipeline.width ~height:p.Ir.Pipeline.height ~lo:0.0
          ~hi:1.0 ))
    p.Ir.Pipeline.inputs

let prepare_dlopen ~cache_dir p =
  match Exec.Native.prepare ~cache_dir ~mode:Exec.Native.Dlopen p with
  | Ok plan -> plan
  | Error d -> Alcotest.failf "prepare failed: %s" (Kfuse_util.Diag.to_string d)

let run_plan_diff plan inputs reference =
  match Exec.Native.run_plan plan inputs with
  | Error d -> Error (Kfuse_util.Diag.to_string d)
  | Ok r ->
    Ok
      (List.fold_left2
         (fun acc (_, a) (_, b) -> Float.max acc (Img.Image.max_abs_diff a b))
         0.0 reference r.Exec.Native.outputs)

(* A pinned plan keeps its intermediates in one workspace across calls:
   a second call on other inputs must not see the first call's state. *)
let test_workspace_calls_independent () =
  let _ = require_toolchain () in
  let _, fused = fused_app "harris" ~width:40 ~height:30 in
  Alcotest.(check bool) "harris keeps intermediates" true
    (Cg.Lower_cpu.workspace_scalars fused > 0);
  with_cache_dir @@ fun cache_dir ->
  let plan = prepare_dlopen ~cache_dir fused in
  Fun.protect ~finally:(fun () -> Exec.Native.release plan) @@ fun () ->
  List.iter
    (fun seed ->
      let inputs = seeded_inputs seed fused in
      let reference = Ir.Eval.run_outputs fused (Ir.Eval.env_of_list inputs) in
      match run_plan_diff plan inputs reference with
      | Error e -> Alcotest.failf "seed %d: %s" seed e
      | Ok d -> Alcotest.(check (float 0.0)) (Printf.sprintf "seed %d bit-exact" seed) 0.0 d)
    [ 11; 12 ]

(* Two threads interleave 20 runs each, first on a pinned plan of their
   own (one artifact, two workspaces), then both on one shared plan,
   whose calls take turns on its workspace. *)
let test_workspace_threads () =
  let _ = require_toolchain () in
  (* Large enough that the two threads' calls overlap. *)
  let _, fused = fused_app "harris" ~width:384 ~height:256 in
  with_cache_dir @@ fun cache_dir ->
  let cases =
    Array.init 4 (fun i ->
        let inputs = seeded_inputs (100 + i) fused in
        (inputs, Ir.Eval.run_outputs fused (Ir.Eval.env_of_list inputs)))
  in
  let hammer plans =
    let failures = ref [] and lock = Mutex.create () in
    let worker t =
      for i = 1 to 20 do
        let inputs, reference = cases.((i + t) mod Array.length cases) in
        let verdict =
          match run_plan_diff plans.(t) inputs reference with
          | Ok 0.0 -> None
          | Ok d -> Some (Printf.sprintf "thread %d run %d differs by %g" t i d)
          | Error e -> Some (Printf.sprintf "thread %d run %d: %s" t i e)
        in
        Option.iter (fun f -> Mutex.protect lock (fun () -> failures := f :: !failures)) verdict
      done
    in
    List.iter Thread.join (List.init 2 (Thread.create worker));
    match !failures with [] -> () | fs -> Alcotest.fail (String.concat "\n" fs)
  in
  let a = prepare_dlopen ~cache_dir fused and b = prepare_dlopen ~cache_dir fused in
  Fun.protect
    ~finally:(fun () -> List.iter Exec.Native.release [ a; b ])
    (fun () ->
      hammer [| a; b |];
      hammer [| a; a |])

(* ---- min and max: the generated helpers are Float.min and Float.max ---- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Values where min and max semantics part ways: signed zeros,
   infinities, NaNs of both signs with payloads (a signalling one too),
   subnormals and ordinary numbers. *)
let min_max_special =
  let nan bits = Int64.float_of_bits bits in
  [|
    0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan; nan 0xFFF8000000000000L;
    nan 0x7FF8000000000123L; nan 0xFFF80000DEADBEEFL; nan 0x7FF0000000000001L; 5e-324; -5e-324;
    1.0; -1.0; 2.5;
  |]

let min_max_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> min_max_special.(i)) (int_bound (Array.length min_max_special - 1));
        float_range (-3.0) 3.0;
      ])

(* One pinned plan of [mn = min(a, b)], [mx = max(a, b)] and the
   min/max reductions of [a] over a 61 x 3 space: the Map rows run the
   vectorized body and its scalar epilogue, the reductions the serial
   fold. *)
let min_max_width = 61
let min_max_height = 3

let min_max_plan =
  lazy
    (let open Ir.Expr in
     let p =
       Ir.Pipeline.create ~name:"minmax" ~width:min_max_width ~height:min_max_height
         ~inputs:[ "a"; "b" ]
         [
           Ir.Kernel.map ~name:"mn" ~inputs:[ "a"; "b" ] (Binop (Min, input "a", input "b"));
           Ir.Kernel.map ~name:"mx" ~inputs:[ "a"; "b" ] (Binop (Max, input "a", input "b"));
           Ir.Kernel.reduce ~name:"rmn" ~inputs:[ "a" ] ~init:Float.infinity ~combine:Min
             (input "a");
           Ir.Kernel.reduce ~name:"rmx" ~inputs:[ "a" ] ~init:Float.neg_infinity ~combine:Max
             (input "a");
         ]
     in
     let cache_dir = Lazy.force shared_cache_dir in
     match Exec.Native.prepare ~cache_dir ~mode:Exec.Native.Dlopen p with
     | Ok plan -> (p, plan)
     | Error d -> failwith (Kfuse_util.Diag.to_string d))

let prop_min_max_helpers =
  let n = min_max_width * min_max_height in
  let gen = QCheck.Gen.(pair (array_size (return n) min_max_value) (array_size (return n) min_max_value))
  in
  let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  let print (a, b) =
    String.concat " " (Array.to_list (Array.map2 (fun x y -> "(" ^ bits x ^ "," ^ bits y ^ ")") a b))
  in
  QCheck.Test.make ~count:100 ~name:"kf_min/kf_max = Float.min/Float.max, bit for bit"
    (QCheck.make ~print gen)
    (fun (a, b) ->
      match Exec.Toolchain.find () with
      | Error _ -> QCheck.assume_fail ()
      | Ok _ ->
        let p, plan = Lazy.force min_max_plan in
        let img d =
          Img.Image.unsafe_of_flat ~width:min_max_width ~height:min_max_height (Array.copy d)
        in
        let inputs = [ ("a", img a); ("b", img b) ] in
        (match Exec.Native.run_plan plan inputs with
        | Error d -> failwith (Kfuse_util.Diag.to_string d)
        | Ok r ->
          let out name = Img.Image.unsafe_data (List.assoc name r.Exec.Native.outputs) in
          let want = Ir.Eval.run_outputs p (Ir.Eval.env_of_list inputs) in
          Array.for_all2 same_bits (out "mn") (Array.map2 Float.min a b)
          && Array.for_all2 same_bits (out "mx") (Array.map2 Float.max a b)
          && List.for_all2 (fun (_, w) (_, g) -> Img.Image.equal w g) want r.Exec.Native.outputs))

(* ---- the seeded draw and the fold (kfuse_arena.h) ---- *)

module Rng = Kfuse_util.Rng

(* A NaN sum is NaN on both sides; which NaN is the hardware's choice. *)
let same_sum a b = same_bits a b || (Float.is_nan a && Float.is_nan b)

let same_summary (a : Exec.Native.summary) (b : Exec.Native.summary) =
  a.Exec.Native.width = b.Exec.Native.width
  && a.Exec.Native.height = b.Exec.Native.height
  && same_bits a.Exec.Native.min b.Exec.Native.min
  && same_bits a.Exec.Native.max b.Exec.Native.max
  && same_sum a.Exec.Native.sum b.Exec.Native.sum

(* Extents either side of the stubs' stable-array length, and odd ones. *)
let arena_extents =
  [ (1, 1); (7, 3); (1023, 517); (4095, 1); (4096, 1); (4097, 1); (4096, 2); (91, 90) ]

(* [n] images drawn one after another, as a pipeline's inputs are. *)
let random_images rng n ~width ~height ~lo ~hi =
  let rec draw k acc =
    if k = n then List.rev acc
    else draw (k + 1) (Img.Image.random rng ~width ~height ~lo ~hi :: acc)
  in
  draw 0 []

let bound_gen =
  QCheck.Gen.(
    oneof [ float_range (-1000.) 1000.; oneofl [ 0.0; -0.0; 1.0; -1e308; 1e308; 1e-300 ] ])

(* A pipeline of [n] inputs, each copied to an output, at [width] x
   [height]. *)
let copies ?(reduce = false) n ~width ~height =
  let names = List.init n (fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) in
  let copy x = Ir.Kernel.map ~name:("k" ^ x) ~inputs:[ x ] Ir.Expr.(input x * Const 1.0) in
  let last = List.nth names (n - 1) in
  Ir.Pipeline.create ~name:"copies" ~width ~height ~inputs:names
    (List.map copy names
    @
    if reduce then
      [
        Ir.Kernel.reduce ~name:"kr" ~inputs:[ last ] ~init:0.0 ~combine:Ir.Expr.Add
          (Ir.Expr.input last);
      ]
    else [])

let prop_synthesis_identity =
  let gen =
    QCheck.Gen.(tup4 int (oneofl arena_extents) (int_range 1 3) (pair bound_gen bound_gen))
  in
  let print (seed, (w, h), n, (lo, hi)) =
    Printf.sprintf "seed %d, %dx%d, %d inputs, lo %h hi %h" seed w h n lo hi
  in
  QCheck.Test.make ~count:40 ~name:"arena synthesis = Image.random: bits and Rng state"
    (QCheck.make ~print gen)
    (fun (seed, (width, height), n_in, (lo, hi)) ->
      let drawn = Rng.create seed and reference = Rng.create seed in
      let got =
        Exec.Native.materialize (copies n_in ~width ~height)
          (Exec.Native.Random { rng = drawn; lo; hi })
      in
      let want = random_images reference n_in ~width ~height ~lo ~hi in
      List.for_all2
        (fun (_, a) b ->
          Array.for_all2 same_bits (Img.Image.unsafe_data a) (Img.Image.unsafe_data b))
        got want
      && Bytes.equal (Rng.save drawn) (Rng.save reference))

(* The min/max/row-major-sum loop in OCaml: what the reply carried
   before the C fold replaced it. *)
let reference_summary ~width ~height a =
  let lo = ref Float.infinity and hi = ref Float.neg_infinity and sum = ref 0.0 in
  Array.iter
    (fun v ->
      if v < !lo then lo := v;
      if v > !hi then hi := v;
      sum := !sum +. v)
    a;
  { Exec.Native.width; height; min = !lo; max = !hi; sum = !sum }

(* Pixels of mixed magnitude, so any other summation order shows, with
   NaN, infinities and signed zeros at [specials] in 8. *)
let summary_pixels ~seed ~specials n =
  let rng = Rng.create seed in
  let odd = [| Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0 |] in
  Array.init n (fun _ ->
      if Rng.int rng 8 < specials then odd.(Rng.int rng (Array.length odd))
      else (Rng.float rng 2.0 -. 1.0) *. (10. ** float_of_int (Rng.int rng 24 - 12)))

let prop_summary_identity =
  let gen = QCheck.Gen.(triple int (oneofl arena_extents) (oneofl [ 0; 1; 8 ])) in
  let print (seed, (w, h), specials) =
    Printf.sprintf "seed %d, %dx%d, %d/8 special" seed w h specials
  in
  QCheck.Test.make ~count:40 ~name:"C summary = OCaml min/max/row-major sum, bit for bit"
    (QCheck.make ~print gen)
    (fun (seed, (width, height), specials) ->
      let a = summary_pixels ~seed ~specials (width * height) in
      same_summary
        (reference_summary ~width ~height a)
        (Exec.Native.summarize (Img.Image.unsafe_of_flat ~width ~height a)))

(* The runner's own draw and fold against the OCaml reference: plans of
   one and two inputs (one with a reduction) at odd pixel counts, drawn
   in the runner's arena at each request's first exchange and folded at
   its last, with repeat 1 and 3.  The pixels are Image.random's, the
   generator ends where Image.random leaves it, and each summary is
   fold_floats' of the interpreter's output. *)
let test_runner_draw_fold_exact () =
  let _ = require_toolchain () in
  with_cache_dir @@ fun cache_dir ->
  List.iter
    (fun (n_in, (width, height), repeat) ->
      let p = copies ~reduce:(n_in = 2) n_in ~width ~height in
      let what = Printf.sprintf "%d inputs, %dx%d, repeat %d" n_in width height repeat in
      let lo = -1.5 and hi = 2.5 in
      let reference = Rng.create 11 in
      let inputs = List.combine p.Ir.Pipeline.inputs (random_images reference n_in ~width ~height ~lo ~hi) in
      let want = Ir.Eval.run_outputs p (Ir.Eval.env_of_list inputs) in
      let run output =
        let rng = Rng.create 11 in
        match
          Exec.Native.execute ~mode:Exec.Native.Subprocess ~cache_dir ~repeat p
            (Exec.Native.Random { rng; lo; hi }) output
        with
        | Error d -> Alcotest.failf "%s: %s" what (Kfuse_util.Diag.to_string d)
        | Ok r ->
          Alcotest.(check bool) (what ^ ": the generator ends where Image.random leaves it") true
            (Bytes.equal (Rng.save rng) (Rng.save reference));
          Alcotest.(check int) (what ^ ": one kernel time per exchange") repeat
            (List.length r.Exec.Native.samples_ms);
          r.Exec.Native.outputs
      in
      List.iter
        (fun (n, img) ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s pixels" what n) true
            (Img.Image.equal (List.assoc n want) img))
        (run Exec.Native.Pixels);
      List.iter
        (fun (n, s) ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s summary" what n) true
            (same_summary (Exec.Native.summarize (List.assoc n want)) s))
        (run Exec.Native.Summaries))
    [ (1, (37, 23), 1); (1, (1, 9), 3); (2, (5, 71), 1); (2, (37, 23), 3) ]

(* A seeded run through the real runner and the in-process entry point:
   two inputs drawn straight into the arena are the pixels Image.random
   draws from the same seed, the generator ends where it would, and the
   summaries (a reduction's 1x1) are those of the pixel outputs. *)
let test_seeded_run_exact () =
  let _ = require_toolchain () in
  let width = 130 and height = 70 and lo = -2.0 and hi = 3.0 in
  let copy n = Ir.Kernel.map ~name:("k" ^ n) ~inputs:[ n ] Ir.Expr.(input n * Const 1.0) in
  let p =
    Ir.Pipeline.create ~name:"twin" ~width ~height ~inputs:[ "a"; "b" ]
      [
        copy "a";
        copy "b";
        Ir.Kernel.reduce ~name:"kr" ~inputs:[ "b" ] ~init:0.0 ~combine:Ir.Expr.Add
          (Ir.Expr.input "b");
      ]
  in
  let reference = Rng.create 5 in
  let inputs = List.combine [ "a"; "b" ] (random_images reference 2 ~width ~height ~lo ~hi) in
  let want = Ir.Eval.run_outputs p (Ir.Eval.env_of_list inputs) in
  with_cache_dir @@ fun cache_dir ->
  List.iter
    (fun mode ->
      let what = Exec.Native.mode_to_string mode in
      let run output =
        let rng = Rng.create 5 in
        match
          Exec.Native.execute ~mode ~cache_dir p (Exec.Native.Random { rng; lo; hi }) output
        with
        | Error d -> Alcotest.failf "%s: %s" what (Kfuse_util.Diag.to_string d)
        | Ok r ->
          Alcotest.(check bool) (what ^ ": the generator ends where Image.random leaves it") true
            (Bytes.equal (Rng.save rng) (Rng.save reference));
          r.Exec.Native.outputs
      in
      let pixels = run Exec.Native.Pixels in
      List.iter
        (fun (n, img) ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s bit-exact" what n) true
            (Img.Image.equal (List.assoc n want) img))
        pixels;
      Alcotest.(check (list (pair int int))) (what ^ ": input copies full size, reduction 1x1")
        [ (width, height); (width, height); (1, 1) ]
        (List.map (fun (_, img) -> (Img.Image.width img, Img.Image.height img)) pixels);
      List.iter2
        (fun (n, img) (m, s) ->
          Alcotest.(check string) "same output order" n m;
          Alcotest.(check bool) (Printf.sprintf "%s: %s summary" what n) true
            (same_summary (Exec.Native.summarize img) s))
        pixels (run Exec.Native.Summaries))
    [ Exec.Native.Subprocess; Exec.Native.Dlopen ]

(* ---- the opt-in fuzz oracle ---- *)

let test_oracle_native_exec () =
  let _ = require_toolchain () in
  let p =
    Ir.Pipeline.create ~name:"orc" ~width:11 ~height:9 ~inputs:[ "src" ]
      [
        Ir.Kernel.map ~name:"g" ~inputs:[ "src" ]
          (Ir.Expr.conv ~border:Img.Border.Mirror Img.Mask.gaussian_3x3 "src");
        Ir.Kernel.map ~name:"sq" ~inputs:[ "g" ]
          Ir.Expr.(Binop (Pow, input "g", Const 2.0));
      ]
  in
  with_cache_dir @@ fun cache_dir ->
  let r =
    Fz.Oracle.check ~which:[ Fz.Oracle.Native_exec ] ~cache_dir F.Config.default p
  in
  (match r.Fz.Oracle.failure with
  | None -> ()
  | Some f -> Alcotest.failf "native oracle failed: %s" f.Fz.Oracle.detail);
  Alcotest.(check bool) "name round-trips" true
    (Fz.Oracle.name_of_string "native-exec" = Some Fz.Oracle.Native_exec);
  Alcotest.(check bool) "opt-in: not in the default bank" false
    (List.mem Fz.Oracle.Native_exec Fz.Oracle.all)

(* ---- generated-C names ---- *)

(* Pipelines whose user names collide in generated C unless every name
   is mangled apart: a kernel named after a C keyword, a generator
   local, a libc function, a generator helper or a parameter's C name
   (these clash only under the baseline partition, where the
   intermediate survives fusion); a kernel beside its halo suffix; a
   kernel named like its pipeline or a parameter; and, through the
   OCaml API, names that only an injective escape keeps apart or that
   would close a C comment. *)
let name_collision_rows () =
  let dsl src =
    match Kfuse_dsl.Elaborate.parse_pipeline src with
    | Ok p -> p
    | Error e -> Alcotest.failf "%s:\n%s" e src
  in
  let clash name =
    ( "kernel " ^ name,
      dsl
        (Printf.sprintf
           "pipeline t(in) {\n\
           \  size 16 16\n\
           \  param gain = 2\n\
           \  conv0 = conv(in, gauss3, clamp)\n\
           \  %s = conv0 + 1\n\
           \  res = %s * gain\n\
            }"
           name name) )
  in
  List.map clash [ "const"; "width"; "free"; "kf_malloc"; "p_gain" ]
  @ [
      ( "a -> a_halo -> b",
        dsl
          "pipeline t(src) {\n\
          \  size 16 16\n\
          \  a = conv(src, gauss5, clamp)\n\
          \  a_halo = conv(a, gauss5, clamp)\n\
          \  b = conv(a_halo, gauss5, clamp)\n\
           }" );
      ("pipeline run, kernel run", dsl "pipeline run(in) {\n  size 16 16\n  run = in * 2\n}");
      ( "pipeline p_a, param a_b, kernel b",
        dsl "pipeline p_a(in) {\n  size 16 16\n  param a_b = 3\n  b = in * a_b\n}" );
      ( "images a.b and a_b",
        Ir.Pipeline.create ~name:"dots" ~width:16 ~height:16 ~inputs:[ "a.b"; "a_b" ]
          [
            Ir.Kernel.map ~name:"d" ~inputs:[ "a.b"; "a_b" ]
              Ir.Expr.(conv Img.Mask.gaussian_3x3 "a.b" - input "a_b");
          ] );
      ( "kernel x*/y",
        Ir.Pipeline.create ~name:"comment" ~width:16 ~height:16 ~inputs:[ "in" ]
          [ Ir.Kernel.map ~name:"x*/y" ~inputs:[ "in" ] Ir.Expr.(Const 2.0 * input "in") ] );
    ]

let test_name_collisions_exact () =
  let _ = require_toolchain () in
  let strategies = [ F.Driver.Baseline; F.Driver.Mincut ] in
  let modes = [ Exec.Native.Dlopen; Exec.Native.Subprocess ] in
  let fused strategy p = (F.Driver.run F.Config.default strategy p).F.Driver.fused in
  precompile
    (List.concat_map
       (fun (_, p) ->
         List.concat_map
           (fun strategy -> List.map (fun mode -> (mode, fused strategy p)) modes)
           strategies)
       (name_collision_rows ()));
  with_cache_dir @@ fun cache_dir ->
  List.iter
    (fun (row, p) ->
      let inputs = inputs_for p in
      let reference = Ir.Eval.run_outputs p (Ir.Eval.env_of_list inputs) in
      List.iter
        (fun strategy ->
          let fused = fused strategy p in
          List.iter
            (fun mode ->
              let what =
                Printf.sprintf "%s, %s, %s" row
                  (F.Driver.strategy_to_string strategy)
                  (Exec.Native.mode_to_string mode)
              in
              match Exec.Native.run ~mode ~cache_dir fused inputs with
              | Error d -> Alcotest.failf "%s: %s" what (Kfuse_util.Diag.to_string d)
              | Ok r ->
                Alcotest.(check (float 0.0)) what 0.0 (max_diff reference r.Exec.Native.outputs))
            modes)
        strategies)
    (name_collision_rows ())

let suite =
  [
    Alcotest.test_case "emit golden: map + reduce + broadcast" `Quick
      test_emit_golden_map_reduce;
    Alcotest.test_case "emit golden: region split, double" `Quick
      test_emit_golden_region_split;
    Alcotest.test_case "emit golden: border helpers" `Quick test_emit_border_helpers;
    Alcotest.test_case "emit: non-finite and negative literals" `Quick
      test_emit_nonfinite_literals;
    Alcotest.test_case "emit: nonpositive for-step rejected" `Quick
      test_for_step_validated;
    Alcotest.test_case "generated C compiles under -Wall -Werror" `Slow
      test_emit_compiles_warning_free;
    Alcotest.test_case "halo bodies keep -ffp-contract=off" `Slow test_halo_keeps_fp_contract;
    Alcotest.test_case "native: every app and variant bitwise at edge extents" `Slow
      test_apps_matrix_exact;
    Alcotest.test_case "native dlopen matches interpreter bitwise" `Slow
      test_native_dlopen_exact;
    Alcotest.test_case "native subprocess matches interpreter bitwise" `Slow
      test_native_subprocess_exact;
    Alcotest.test_case "sandbox runner: 3-in/3-out, params, reduction, no inputs" `Slow
      test_runner_layouts_exact;
    Alcotest.test_case "native compile cache hits" `Slow test_native_compile_cache;
    Alcotest.test_case "pow(x,2) stays on libm (regression)" `Slow
      test_native_pow_faithful;
    Alcotest.test_case "interior margin is the reach, not the radius" `Slow
      test_native_reach_beyond_radius;
    Alcotest.test_case "hostile user names compile and run bit-exact (regression)" `Slow
      test_name_collisions_exact;
    Alcotest.test_case "+ reduction sums in row-major order (regression)" `Slow
      test_native_sum_reduce_order;
    Alcotest.test_case "malformed native calls raise" `Slow test_native_bad_calls_raise;
    Alcotest.test_case "exec mode string roundtrip" `Quick test_mode_string_roundtrip;
    Alcotest.test_case "supervisor: crash classifies KF0906" `Slow
      test_supervisor_crash_kf0906;
    Alcotest.test_case "supervisor: watchdog timeout classifies KF0905" `Slow
      test_supervisor_timeout_kf0905;
    Alcotest.test_case "supervisor: RLIMIT_AS abort classifies KF0907" `Slow
      test_supervisor_oom_kf0907;
    Alcotest.test_case "supervisor: RLIMIT_CPU classifies KF0907" `Slow
      test_supervisor_cpu_limit_kf0907;
    Alcotest.test_case "supervisor: nonzero exit and spawn failures" `Quick
      test_supervisor_exit_and_spawn;
    Alcotest.test_case "supervisor: expired deadline never spawns" `Quick
      test_supervisor_expired_deadline;
    Alcotest.test_case "supervisor: stderr tail captured and capped" `Quick
      test_supervisor_stderr_tail;
    Alcotest.test_case "sandbox runner: truncated input frame is KF0904" `Slow
      test_runner_truncated_input;
    Alcotest.test_case "sandbox runner: RLIMIT_FSIZE above the output region is KF0907"
      `Slow test_runner_fsize_limit;
    Alcotest.test_case "sandbox runner: a workspace past RLIMIT_AS is KF0907" `Slow
      test_runner_workspace_limit;
    Alcotest.test_case "sandbox runner: short output is KF0904, no SIGBUS" `Slow
      test_runner_short_output;
    Alcotest.test_case "supervisor: exec.* chaos fault points kill and respawn the runner"
      `Slow test_exec_fault_points;
    Alcotest.test_case "sandbox runner: reuse is bit-exact" `Slow test_runner_reuse_exact;
    Alcotest.test_case "sandbox runner: the CPU cap is per request" `Slow
      test_runner_cpu_per_request;
    Alcotest.test_case "sandbox runner: no leaked runner, pipe or fd" `Slow
      test_runner_no_leaks;
    Alcotest.test_case "sandbox runner: a failure's stderr is its own request's" `Slow
      test_runner_stderr_per_request;
    Alcotest.test_case "toolchain: find is single-flight across threads" `Slow
      test_toolchain_find_single_flight;
    Alcotest.test_case "supervisor: circuit breaker lifecycle" `Quick
      test_breaker_lifecycle;
    Alcotest.test_case "supervisor: crash artifact is a corpus entry" `Quick
      test_crash_artifact_roundtrip;
    Alcotest.test_case "supervisor: concurrent saves of one crash artifact" `Quick
      test_crash_artifact_concurrent;
    Alcotest.test_case "native: deadline between timing samples" `Slow
      test_deadline_between_samples;
    Alcotest.test_case "sandbox policy string roundtrip" `Quick
      test_policy_string_roundtrip;
    Alcotest.test_case "fuzz oracle: native-exec" `Slow test_oracle_native_exec;
    Alcotest.test_case "line buffer: fires on enhance and the log-box only" `Quick
      test_line_buffer_fires;
    Alcotest.test_case "line buffer: bit-exact on tiny and uneven strips" `Slow
      test_line_buffer_exact;
    Alcotest.test_case "workspace: a pinned plan's calls are independent" `Slow
      test_workspace_calls_independent;
    Alcotest.test_case "workspace: two threads never share one" `Slow
      test_workspace_threads;
    Alcotest.test_case "arena: a seeded run is Image.random's, pixels and summaries" `Slow
      test_seeded_run_exact;
    Alcotest.test_case "runner: its draw and fold are Image.random's and fold_floats'" `Slow
      test_runner_draw_fold_exact;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |]))
      [ prop_min_max_helpers; prop_synthesis_identity; prop_summary_identity ]
