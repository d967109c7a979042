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
      "#pragma omp parallel for collapse(2) schedule(static)";
      (* neg of a negative literal must not paste into the "--" token *)
      "(- -0.25f)";
      "float acc = 0.0f;";
      (* the reduction broadcast-fills its whole output buffer *)
      "for (int i = 0; i < (width * height); ++i)";
      "out[i] = acc;";
      "void run_redsum(const kf_scalar* src, kf_scalar* total)";
      "kf_malloc((size_t)width * height * sizeof(kf_scalar))";
      "free(neg);";
    ];
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
      let name = Cg.Lower_common.func_name fused k in
      let halo = name ^ "_halo" in
      let entry = block_after src ("void " ^ name ^ "(") in
      match k.Ir.Kernel.op with
      | Ir.Kernel.Map body when Ir.Expr.reach body > 0 ->
        incr stencils;
        let r = Ir.Expr.reach body in
        Alcotest.(check int)
          (halo ^ " defined once")
          1
          (occurrences src ("static __attribute__((noinline)) void " ^ halo ^ "("));
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
        check_fragments (name ^ " interior") interior [ "img_"; "out[((y * width) + x)] =" ]
      | Ir.Kernel.Map _ | Ir.Kernel.Reduce _ ->
        Alcotest.(check int) (name ^ " has no halo function") 0 (occurrences src halo);
        check_fragments (name ^ " loop shape") entry
          [ "#pragma omp parallel for collapse(2) schedule(static)" ])
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
        [ "harris"; "night"; "shitomasi" ])

(* ---- native execution end to end ---- *)

let rng = Kfuse_util.Rng.create 9002

let inputs_for (p : Ir.Pipeline.t) =
  List.map
    (fun n ->
      ( n,
        Img.Image.random rng ~width:p.Ir.Pipeline.width ~height:p.Ir.Pipeline.height
          ~lo:0.0 ~hi:1.0 ))
    p.Ir.Pipeline.inputs

let with_cache_dir f =
  let dir = Filename.temp_file "kfuse_exec_cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  f dir

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
      "bit-exact against the interpreter" 0.0
      (max_diff reference r.Exec.Native.outputs);
    r

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
  with_cache_dir @@ fun cache_dir ->
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
  List.iter
    (fun (width, height) ->
      let p =
        Ir.Pipeline.create ~name:"reach" ~width ~height ~inputs:[ "a" ]
          (List.map
             (fun (name, border) -> Ir.Kernel.map ~name ~inputs:[ "a" ] (body border))
             modes)
      in
      ignore (run_exact ~mode:Exec.Native.Dlopen p))
    extents

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
    Sup.run ~fault_injection:false
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
  let r = Sup.run ~fault_injection:false ~argv:[ bin ] () in
  (match expect_failure r with
  | Sup.Crashed { signal } ->
    Alcotest.(check string) "crash signal named" "SIGSEGV" signal
  | _ -> Alcotest.fail "expected Crashed");
  Alcotest.(check string) "typed KF0906" "KF0906" (diag_code r)

let test_supervisor_timeout_kf0905 () =
  let bin = compile_fixture "looper" "int main(void) { for (;;); return 0; }\n" in
  let r =
    Sup.run ~fault_injection:false
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
    Sup.run ~fault_injection:false
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
    Sup.run ~fault_injection:false
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
  let r = Sup.run ~fault_injection:false ~argv:[ "false" ] () in
  (match expect_failure r with
  | Sup.Nonzero_exit { code } -> Alcotest.(check int) "exit code" 1 code
  | _ -> Alcotest.fail "expected Nonzero_exit");
  Alcotest.(check string) "nonzero exit stays KF0904" "KF0904" (diag_code r);
  let r = Sup.run ~fault_injection:false ~argv:[ "/nonexistent/kfuse-no-such" ] () in
  (match expect_failure r with
  | Sup.Spawn_failed _ -> ()
  | _ -> Alcotest.fail "expected Spawn_failed");
  let r = Sup.run ~fault_injection:false ~argv:[] () in
  match expect_failure r with
  | Sup.Spawn_failed { reason } ->
    Alcotest.(check string) "empty argv refused" "empty argv" reason
  | _ -> Alcotest.fail "expected Spawn_failed on empty argv"

let test_supervisor_expired_deadline () =
  (* An already-expired deadline must not even spawn the child. *)
  let r =
    Sup.run ~fault_injection:false ~deadline:(Deadline.after_ms 0.) ~argv:[ "false" ] ()
  in
  (match expect_failure r with
  | Sup.Timeout { wall_ms; escalated } ->
    Alcotest.(check (float 0.0)) "no wall time spent" 0.0 wall_ms;
    Alcotest.(check bool) "nothing to escalate" false escalated
  | _ -> Alcotest.fail "expected Timeout");
  Alcotest.(check string) "typed KF0905" "KF0905" (diag_code r)

let test_supervisor_stderr_tail () =
  (* A real child's stderr is captured... *)
  let r = Sup.run ~fault_injection:false ~argv:[ "ls"; "/nonexistent/kfuse-tail" ] () in
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

(* ---- the sandbox runner's failure paths ---- *)

let diag_id (d : Kfuse_util.Diag.t) = Kfuse_util.Diag.code_id d.Kfuse_util.Diag.code

let test_runner_truncated_input () =
  let _ = require_toolchain () in
  let _, fused = fused_app "unsharp" ~width:16 ~height:12 in
  Alcotest.(check (pair int int)) "one input, one param" (1, 1)
    (List.length fused.Ir.Pipeline.inputs, List.length fused.Ir.Pipeline.params);
  with_cache_dir @@ fun cache_dir ->
  let artifact =
    match Exec.Native.compile ~cache_dir ~mode:Exec.Native.Subprocess fused with
    | Ok (path, _, _) -> path
    | Error d -> Alcotest.failf "compile failed: %s" (Kfuse_util.Diag.to_string d)
  in
  let run_on ~doubles =
    let in_path = Filename.concat cache_dir "in.f64" in
    Out_channel.with_open_bin in_path (fun oc ->
        output_string oc (String.make (8 * doubles) '\000'));
    Sup.run ~fault_injection:false
      ~argv:[ artifact; in_path; Filename.concat cache_dir "out.f64" ]
      ()
  in
  let npix = 16 * 12 in
  let r = run_on ~doubles:(npix - 1) in
  Alcotest.(check string) "short image is KF0904" "KF0904" (diag_code r);
  Alcotest.(check bool) "says truncated input" true (contains "truncated input" r.Sup.stderr_tail);
  let r = run_on ~doubles:npix in
  Alcotest.(check string) "missing param is KF0904" "KF0904" (diag_code r);
  Alcotest.(check bool) "says truncated parameters" true
    (contains "truncated parameters" r.Sup.stderr_tail);
  let r = run_on ~doubles:(npix + 1) in
  match r.Sup.status with
  | Ok () -> ()
  | Error _ -> Alcotest.failf "a complete input failed: %s" r.Sup.stderr_tail

(* The runner sizes its output with ftruncate: RLIMIT_FSIZE must stop it
   there. *)
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
  (match run (out_bytes - 8) with
  | Ok _ -> Alcotest.fail "an output past RLIMIT_FSIZE was accepted"
  | Error d ->
    Alcotest.(check string) "typed KF0907" "KF0907" (diag_id d);
    Alcotest.(check bool) "names RLIMIT_FSIZE" true
      (contains "RLIMIT_FSIZE" (Kfuse_util.Diag.to_string d)));
  match run out_bytes with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "an output at the limit failed: %s" (Kfuse_util.Diag.to_string d)

(* The parent checks the output's size before reading it: a child that
   exits 0 with a short file is a typed KF0904. *)
let test_runner_short_output () =
  let _ = require_toolchain () in
  let _, fused = fused_app "sobel" ~width:16 ~height:12 in
  with_cache_dir @@ fun cache_dir ->
  match Exec.Native.prepare ~cache_dir ~mode:Exec.Native.Subprocess fused with
  | Error d -> Alcotest.failf "prepare failed: %s" (Kfuse_util.Diag.to_string d)
  | Ok plan -> (
    Fun.protect ~finally:(fun () -> Exec.Native.release plan) @@ fun () ->
    let fixture =
      compile_fixture "shortout"
        "#include <stdio.h>\n\
         int main(int argc, char** argv) {\n\
        \  double d = 1.0;\n\
        \  FILE* f = argc == 3 ? fopen(argv[2], \"wb\") : NULL;\n\
        \  if (!f || fwrite(&d, sizeof d, 1, f) != 1) return 1;\n\
        \  return fclose(f) != 0;\n\
         }\n"
    in
    Sys.rename fixture (Exec.Native.plan_artifact plan);
    match Exec.Native.run_plan plan (inputs_for fused) with
    | Ok _ -> Alcotest.fail "a short output file was accepted"
    | Error d ->
      Alcotest.(check string) "typed KF0904" "KF0904" (diag_id d);
      Alcotest.(check bool) "reports the short size" true
        (contains "wrote 8 bytes" (Kfuse_util.Diag.to_string d)))

let test_exec_fault_points () =
  (* The exec.* chaos points misbehave in the child, so no toolchain and
     no real crashing binary are needed: the victim argv is /bin/true. *)
  Faults.with_spec "exec.crash@1" (fun () ->
      let r = Sup.run ~argv:[ "true" ] () in
      match expect_failure r with
      | Sup.Crashed { signal } -> Alcotest.(check string) "chaos crash" "SIGSEGV" signal
      | _ -> Alcotest.fail "exec.crash: expected Crashed");
  Faults.with_spec "exec.hang@1" (fun () ->
      let r =
        Sup.run ~limits:{ Sup.no_limits with Sup.wall_ms = Some 200. } ~argv:[ "true" ] ()
      in
      (match expect_failure r with
      | Sup.Timeout _ -> ()
      | _ -> Alcotest.fail "exec.hang: expected Timeout");
      Alcotest.(check string) "typed KF0905" "KF0905" (diag_code r));
  Faults.with_spec "exec.oom@1" (fun () ->
      let r = Sup.run ~argv:[ "true" ] () in
      (match expect_failure r with
      | Sup.Limit _ -> ()
      | _ -> Alcotest.fail "exec.oom: expected Limit");
      Alcotest.(check string) "typed KF0907" "KF0907" (diag_code r));
  (* The compile path runs with fault injection off: an armed point must
     not fire there. *)
  Faults.with_spec "exec.crash@1" (fun () ->
      let r = Sup.run ~fault_injection:false ~argv:[ "true" ] () in
      match r.Sup.status with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "fault_injection:false must ignore armed points")

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
    Alcotest.test_case "sandbox runner: truncated input is KF0904" `Slow
      test_runner_truncated_input;
    Alcotest.test_case "sandbox runner: RLIMIT_FSIZE at ftruncate is KF0907" `Slow
      test_runner_fsize_limit;
    Alcotest.test_case "sandbox runner: short output is KF0904, no SIGBUS" `Slow
      test_runner_short_output;
    Alcotest.test_case "supervisor: exec.* chaos fault points" `Quick
      test_exec_fault_points;
    Alcotest.test_case "supervisor: circuit breaker lifecycle" `Quick
      test_breaker_lifecycle;
    Alcotest.test_case "supervisor: crash artifact is a corpus entry" `Quick
      test_crash_artifact_roundtrip;
    Alcotest.test_case "native: deadline between timing samples" `Slow
      test_deadline_between_samples;
    Alcotest.test_case "sandbox policy string roundtrip" `Quick
      test_policy_string_roundtrip;
    Alcotest.test_case "fuzz oracle: native-exec" `Slow test_oracle_native_exec;
  ]
