(* Tests for Kfuse_codegen: expression printing and CUDA lowering. *)

module C = Kfuse_codegen.Cuda_ast
module Emit = Kfuse_codegen.Emit
module Lower = Kfuse_codegen.Lower
module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Mask = Kfuse_image.Mask
module Border = Kfuse_image.Border

let render_expr e = Format.asprintf "%a" Emit.expr e

let test_emit_expr () =
  let open C in
  Alcotest.(check string) "binop" "(a + 1)" (render_expr (ident "a" +: int_lit 1));
  Alcotest.(check string) "float literal" "2.5f" (render_expr (float_lit 2.5));
  Alcotest.(check string) "integral float" "3.0f" (render_expr (float_lit 3.0));
  Alcotest.(check string) "call" "fminf(x, y)"
    (render_expr (call "fminf" [ ident "x"; ident "y" ]));
  Alcotest.(check string) "index" "a[(y * w)]"
    (render_expr (index (ident "a") (ident "y" *: ident "w")));
  Alcotest.(check string) "ternary" "((a < b) ? a : b)"
    (render_expr (Ternary (ident "a" <: ident "b", ident "a", ident "b")))

let test_emit_stmt () =
  let open C in
  let s = Decl { ctype = "const float"; name = "v"; init = Some (float_lit 1.0) } in
  Alcotest.(check string) "decl" "const float v = 1.0f;\n"
    (Format.asprintf "%a" Emit.stmt s)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

let simple_pipeline =
  Pipeline.create ~name:"demo" ~width:32 ~height:32 ~params:[ ("k", 2.0) ]
    ~inputs:[ "src" ]
    [
      Kernel.map ~name:"g" ~inputs:[ "src" ]
        (Expr.conv ~border:Border.Mirror Mask.gaussian_3x3 "src");
      Kernel.map ~name:"scale" ~inputs:[ "g" ] Expr.(param "k" * input "g");
    ]

let test_kernel_func_shape () =
  let f = Lower.kernel_func simple_pipeline (Pipeline.kernel simple_pipeline 0) in
  Alcotest.(check string) "name" "k_g" f.C.name;
  Alcotest.(check (list string)) "qualifiers" [ "__global__" ] f.C.qualifiers;
  let param_names = List.map (fun (p : C.param) -> p.C.name) f.C.params in
  Alcotest.(check (list string)) "params"
    [ "img_g"; "img_src"; "width"; "height" ]
    param_names

let test_kernel_func_params_passed () =
  let f = Lower.kernel_func simple_pipeline (Pipeline.kernel simple_pipeline 1) in
  let param_names = List.map (fun (p : C.param) -> p.C.name) f.C.params in
  Alcotest.(check bool) "scalar param present" true (List.mem "p_k" param_names)

let test_emit_pipeline_contents () =
  let cu = Lower.emit_pipeline simple_pipeline in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains ~needle cu))
    [
      "__global__ void k_g";
      "__global__ void k_scale";
      "idx_mirror";
      "read_mirror";
      "read_clamp";
      "void run_demo(";
      "cudaMalloc";
      "cudaFree";
      "k_g<<<grid, block>>>(img_g, img_src, width, height)";
      "float p_k";
    ]

let test_emit_only_needed_helpers () =
  let cu = Lower.emit_pipeline simple_pipeline in
  Alcotest.(check bool) "no repeat helper" false (contains ~needle:"idx_repeat" cu);
  Alcotest.(check bool) "no atomics" false (contains ~needle:"atomicCAS" cu)

let test_fused_kernel_lowering () =
  (* A fused local-to-local kernel lowers Shift+exchange into index
     remapping, and Let into a register declaration. *)
  let module F = Kfuse_fusion in
  let p =
    Pipeline.create ~name:"cc" ~width:16 ~height:16 ~inputs:[ "in" ]
      [
        Kernel.map ~name:"c1" ~inputs:[ "in" ]
          (Expr.conv ~border:Border.Clamp Mask.gaussian_3x3 "in");
        Kernel.map ~name:"c2" ~inputs:[ "c1" ]
          (Expr.conv ~border:Border.Clamp Mask.gaussian_3x3 "c1");
      ]
  in
  let fused = F.Transform.apply p [ Helpers.set_of [ 0; 1 ] ] in
  let cu = Lower.emit_pipeline fused in
  Alcotest.(check bool) "index exchange lowered" true (contains ~needle:"idx_clamp((x + " cu);
  (* Only one kernel and no intermediate allocation remains. *)
  Alcotest.(check bool) "no cudaMalloc" false (contains ~needle:"cudaMalloc" cu)

let test_let_lowering () =
  let p =
    Pipeline.create ~name:"lt" ~width:8 ~height:8 ~inputs:[ "in" ]
      [
        Kernel.map ~name:"k" ~inputs:[ "in" ]
          Expr.(let_ "v" (input "in" * Const 2.0) (var "v" * var "v"));
      ]
  in
  let cu = Lower.emit_pipeline p in
  Alcotest.(check bool) "register decl" true (contains ~needle:"const float r1_v =" cu)

let test_reduce_lowering () =
  let p =
    Pipeline.create ~name:"rd" ~width:8 ~height:8 ~inputs:[ "in" ]
      [
        Kernel.reduce ~name:"peak" ~inputs:[ "in" ] ~init:Float.neg_infinity
          ~combine:Expr.Max (Expr.input "in");
      ]
  in
  let cu = Lower.emit_pipeline p in
  Alcotest.(check bool) "atomic max helper" true (contains ~needle:"atomicMaxFloat" cu);
  Alcotest.(check bool) "atomic call" true (contains ~needle:"atomicMaxFloat(img_peak" cu)

let test_constant_border_lowering () =
  let p =
    Pipeline.create ~name:"cb" ~width:8 ~height:8 ~inputs:[ "in" ]
      [
        Kernel.map ~name:"k" ~inputs:[ "in" ]
          (Expr.conv ~border:(Border.Constant 0.5) Mask.gaussian_3x3 "in");
      ]
  in
  let cu = Lower.emit_pipeline p in
  Alcotest.(check bool) "constant reader" true (contains ~needle:"read_constant" cu);
  Alcotest.(check bool) "constant passed" true (contains ~needle:"0.5f)" cu)

let test_emission_deterministic () =
  Alcotest.(check string) "same text twice" (Lower.emit_pipeline simple_pipeline)
    (Lower.emit_pipeline simple_pipeline)

(* ---- the generated-C name mangler ---- *)

module LC = Kfuse_codegen.Lower_common

(* Test-only inverse of [Lower_common.ident]: the kind from the tag (and
   the halo suffix), the name by undoing the escape.  [decode (ident k n)
   = Some (k, n)] for every kind and byte string proves [ident]
   injective across all kinds together. *)
let decode s =
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  let unescape e =
    let n = String.length e in
    let b = Buffer.create n in
    let rec go i =
      if i = n then Some (Buffer.contents b)
      else
        match e.[i] with
        | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9') as c ->
          Buffer.add_char b c;
          go (i + 1)
        | '_' when i + 1 < n && e.[i + 1] = '_' ->
          Buffer.add_char b '_';
          go (i + 2)
        | '_' when i + 2 < n && is_hex e.[i + 1] && is_hex e.[i + 2] ->
          Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub e (i + 1) 2)));
          go (i + 3)
        | _ -> None
    in
    go 0
  in
  let after tag =
    if String.starts_with ~prefix:tag s then
      Some (String.sub s (String.length tag) (String.length s - String.length tag))
    else None
  in
  let as_kind k e = Option.map (fun n -> (k, n)) (unescape e) in
  match (after "img_", after "p_", after "run_", after "k_") with
  | Some e, _, _, _ -> as_kind LC.Image e
  | _, Some e, _, _ -> as_kind LC.Param e
  | _, _, Some e, _ -> as_kind LC.Runner e
  | _, _, _, Some e when String.ends_with ~suffix:"_halo" e ->
    as_kind LC.Halo_fn (String.sub e 0 (String.length e - 5))
  | _, _, _, Some e -> as_kind LC.Kernel_fn e
  | None, None, None, None -> (
    let digits = ref 1 in
    while !digits < String.length s && s.[!digits] >= '0' && s.[!digits] <= '9' do
      incr digits
    done;
    match String.index_from_opt s 0 '_' with
    | Some u when s.[0] = 'r' && u = !digits && u > 1 ->
      as_kind (LC.Let_temp (int_of_string (String.sub s 1 (u - 1))))
        (String.sub s (u + 1) (String.length s - u - 1))
    | _ -> None)

let c11_keywords =
  [ "auto"; "break"; "case"; "char"; "const"; "continue"; "default"; "do"; "double";
    "else"; "enum"; "extern"; "float"; "for"; "goto"; "if"; "inline"; "int"; "long";
    "register"; "restrict"; "return"; "short"; "signed"; "sizeof"; "static"; "struct";
    "switch"; "typedef"; "union"; "unsigned"; "void"; "volatile"; "while"; "_Alignas";
    "_Alignof"; "_Atomic"; "_Bool"; "_Complex"; "_Generic"; "_Imaginary"; "_Noreturn";
    "_Static_assert"; "_Thread_local" ]

(* Library functions the generated C and its wrappers call. *)
let library_names =
  [ "malloc"; "free"; "abort"; "read"; "write"; "close"; "mmap"; "perror"; "raise";
    "pause"; "setrlimit"; "fprintf"; "stderr"; "sqrt"; "sqrtf"; "fabs"; "fabsf"; "exp"; "expf";
    "log"; "logf"; "sin"; "sinf"; "cos"; "cosf"; "floor"; "floorf"; "fmin"; "fminf";
    "fmax"; "fmaxf"; "pow"; "powf"; "cudaMalloc"; "cudaFree"; "atomicAdd"; "atomicCAS";
    "__float_as_int"; "__int_as_float" ]

(* Names the generator spells itself: kernel and runner locals, helper
   functions and their parameters, the loader entry point, the
   subprocess wrapper's locals and the CUDA launch names. *)
let generator_names =
  [ "width"; "height"; "x"; "y"; "i"; "out"; "acc"; "kf_malloc"; "kf_scalar";
    "kf_scalar_is_f64"; "kfuse_entry"; "main"; "ins"; "outs"; "params"; "kf_io"; "fd";
    "buf"; "done"; "k"; "npix"; "in_bytes"; "out_bytes"; "arena"; "kf_in"; "kf_out"; "req";
    "r"; "rl"; "rep"; "kf_ws"; "kf_strip"; "kf_lb"; "kf_y0"; "kf_y1"; "kf_yy"; "kf_row";
    "kf_next0"; "kf_t0_0"; "lo"; "hi"; "t"; "nt"; "q"; "rem";
    "read_clamp"; "read_mirror"; "read_repeat"; "read_constant"; "read_raw"; "idx_clamp";
    "idx_mirror"; "idx_repeat"; "atomicMinFloat"; "atomicMaxFloat"; "img"; "w"; "h"; "c";
    "n"; "p"; "period"; "m"; "addr"; "iaddr"; "old"; "assumed"; "value"; "block"; "grid";
    "dim3"; "blockIdx"; "blockDim"; "threadIdx"; "sx1"; "sy1"; "ex1"; "ey1"; "gx1";
    "gy1"; "ge1" ]

let reserved = c11_keywords @ library_names @ generator_names

let is_c_identifier s =
  let start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let rest c = start c || (c >= '0' && c <= '9') in
  s <> "" && start s.[0] && String.for_all rest s

(* The lowering's fresh locals: [sx1], [gy2], ... *)
let is_fresh_local s =
  String.length s > 2
  && List.mem (String.sub s 0 2) [ "sx"; "sy"; "ex"; "ey"; "gx"; "gy"; "ge" ]
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 2 (String.length s - 2))

let kind_arb =
  let print = function
    | LC.Image -> "Image"
    | LC.Param -> "Param"
    | LC.Kernel_fn -> "Kernel_fn"
    | LC.Halo_fn -> "Halo_fn"
    | LC.Runner -> "Runner"
    | LC.Let_temp n -> Printf.sprintf "Let_temp %d" n
  in
  QCheck.make ~print
    QCheck.Gen.(
      oneof
        [
          oneofl LC.[ Image; Param; Kernel_fn; Halo_fn; Runner ];
          map (fun n -> LC.Let_temp n) (0 -- 10_000);
        ])

(* Arbitrary bytes, and strings over the few bytes that sit on the
   escape's boundaries (the underscore, hex digits, the halo suffix). *)
let name_arb =
  QCheck.(
    oneof
      [
        string;
        string_gen_of_size Gen.(0 -- 12)
          (Gen.oneofl [ '_'; 'h'; 'a'; 'l'; 'o'; '0'; 'f'; 'F'; '.'; '*'; '/'; '\x00' ]);
      ])

let prop_mangler_decodes =
  QCheck.Test.make ~count:2000 ~name:"ident: the decoder inverts it (injective)"
    (QCheck.pair kind_arb name_arb)
    (fun (k, n) -> decode (LC.ident k n) = Some (k, n))

let prop_mangler_c_identifier =
  QCheck.Test.make ~count:2000
    ~name:"ident: a C identifier, never a keyword, library or generator name"
    (QCheck.pair kind_arb name_arb)
    (fun (k, n) ->
      let s = LC.ident k n in
      is_c_identifier s
      && (not (String.starts_with ~prefix:"__" s))
      && (not (List.mem s reserved))
      && (not (String.starts_with ~prefix:"kf_" s))
      && not (is_fresh_local s))

(* Every output decodes, so a name that does not decode is never an
   output — for each reserved name, that settles it outright. *)
let test_reserved_never_produced () =
  List.iter
    (fun r ->
      if decode r <> None then Alcotest.failf "reserved name %S is in ident's image" r)
    reserved

let test_mangler_spelling () =
  List.iter
    (fun (k, n, want) -> Alcotest.(check string) want want (LC.ident k n))
    LC.
      [
        (Image, "in", "img_in");
        (Image, "a_b", "img_a__b");
        (Image, "a.b", "img_a_2eb");
        (Param, "gain", "p_gain");
        (Kernel_fn, "x*/y", "k_x_2a_2fy");
        (Halo_fn, "a", "k_a_halo");
        (Kernel_fn, "a_halo", "k_a__halo");
        (Runner, "run", "run_run");
        (Let_temp 3, "v", "r3_v");
      ]

let suite =
  [
    Alcotest.test_case "emit expressions" `Quick test_emit_expr;
    Alcotest.test_case "emit statements" `Quick test_emit_stmt;
    Alcotest.test_case "kernel function shape" `Quick test_kernel_func_shape;
    Alcotest.test_case "scalar params passed" `Quick test_kernel_func_params_passed;
    Alcotest.test_case "pipeline emission contents" `Quick test_emit_pipeline_contents;
    Alcotest.test_case "only needed helpers" `Quick test_emit_only_needed_helpers;
    Alcotest.test_case "fused kernel lowering" `Quick test_fused_kernel_lowering;
    Alcotest.test_case "let lowering" `Quick test_let_lowering;
    Alcotest.test_case "reduce lowering" `Quick test_reduce_lowering;
    Alcotest.test_case "constant border lowering" `Quick test_constant_border_lowering;
    Alcotest.test_case "emission deterministic" `Quick test_emission_deterministic;
    Alcotest.test_case "ident: spelling" `Quick test_mangler_spelling;
    Alcotest.test_case "ident: reserved names never produced" `Quick
      test_reserved_never_produced;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |]))
      [ prop_mangler_decodes; prop_mangler_c_identifier ]
