(* Execution tests of the CPU backend: compile the generated C with the
   system compiler, run it, and compare pixel-for-pixel against the
   reference interpreter.  This closes the loop the paper closes with
   CUDA on hardware: generated fused code computes the same image as the
   unfused semantics, including the halo region.

   Skipped gracefully when no C compiler is available. *)

module F = Kfuse_fusion
module Ir = Kfuse_ir
module Img = Kfuse_image
module Iset = Kfuse_util.Iset

let cc_available =
  lazy (Sys.command "cc --version > /dev/null 2>&1" = 0)

let require_cc () =
  if not (Lazy.force cc_available) then
    Alcotest.skip ()

(* Emit a main() that feeds fixed input data and prints the outputs. *)
let emit_main buf (p : Ir.Pipeline.t) inputs =
  let b fmt = Printf.bprintf buf fmt in
  b "#include <stdio.h>\n\n";
  List.iter
    (fun (name, img) ->
      b "static const float %s_data[] = {" name;
      for y = 0 to Img.Image.height img - 1 do
        for x = 0 to Img.Image.width img - 1 do
          b "%.9ef," (Img.Image.get img x y)
        done
      done;
      b "};\n")
    inputs;
  let outputs = Ir.Pipeline.outputs p in
  List.iter
    (fun o -> b "static float %s_out[%d];\n" o (p.Ir.Pipeline.width * p.Ir.Pipeline.height))
    outputs;
  b "\nint main(void) {\n";
  let args =
    List.map (fun (name, _) -> name ^ "_data") inputs
    @ List.map (fun o -> o ^ "_out") outputs
    @ List.map (fun (name, _) -> Printf.sprintf "%.9ef" (List.assoc name p.Ir.Pipeline.params))
        p.Ir.Pipeline.params
  in
  b "  run_%s(%s);\n" p.Ir.Pipeline.name (String.concat ", " args);
  List.iter
    (fun o ->
      b "  for (int i = 0; i < %d; ++i) printf(\"%%.9e\\n\", %s_out[i]);\n"
        (p.Ir.Pipeline.width * p.Ir.Pipeline.height)
        o)
    (List.sort String.compare outputs);
  b "  return 0;\n}\n"

let run_generated (p : Ir.Pipeline.t) inputs =
  let dir = Filename.temp_file "kfuse_cc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let src = Filename.concat dir "gen.c" in
  let exe = Filename.concat dir "gen.exe" in
  let out_file = Filename.concat dir "out.txt" in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Kfuse_codegen.Lower_cpu.emit_pipeline p);
  emit_main buf p inputs;
  let oc = open_out src in
  output_string oc (Buffer.contents buf);
  close_out oc;
  (* OpenMP optional: unknown pragmas are ignored by default. *)
  let compile = Printf.sprintf "cc -O1 -o %s %s -lm 2> %s/cc.log" exe src dir in
  if Sys.command compile <> 0 then begin
    let log = In_channel.with_open_text (dir ^ "/cc.log") In_channel.input_all in
    Alcotest.failf "generated C failed to compile:\n%s" log
  end;
  if Sys.command (Printf.sprintf "%s > %s" exe out_file) <> 0 then
    Alcotest.fail "generated binary failed";
  let values =
    In_channel.with_open_text out_file (fun ic ->
        let rec loop acc =
          match In_channel.input_line ic with
          | Some line -> loop (float_of_string (String.trim line) :: acc)
          | None -> List.rev acc
        in
        loop [])
  in
  values

let compare_with_interpreter ?(tol = 1e-4) p inputs =
  let env = Ir.Eval.env_of_list inputs in
  let expected = Ir.Eval.run_outputs p env in
  let actual = run_generated p inputs in
  let expected_flat =
    List.concat_map
      (fun (_, img) ->
        List.init
          (Img.Image.width img * Img.Image.height img)
          (fun i ->
            Img.Image.get img (i mod Img.Image.width img) (i / Img.Image.width img)))
      expected
  in
  Alcotest.(check int) "output count" (List.length expected_flat) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      let scale = Float.max 1.0 (Float.abs e) in
      if Float.abs (e -. a) /. scale > tol then
        Alcotest.failf "pixel %d: interpreter %.9g vs compiled %.9g" i e a)
    (List.combine expected_flat actual)

let rng = Kfuse_util.Rng.create 7001

let input_for (p : Ir.Pipeline.t) =
  List.map
    (fun n ->
      (n, Img.Image.random rng ~width:p.Ir.Pipeline.width ~height:p.Ir.Pipeline.height
            ~lo:0.05 ~hi:1.0))
    p.Ir.Pipeline.inputs

let test_cpu_exec_simple_conv () =
  require_cc ();
  let p =
    Ir.Pipeline.create ~name:"conv1" ~width:12 ~height:9 ~inputs:[ "src" ]
      [
        Ir.Kernel.map ~name:"g" ~inputs:[ "src" ]
          (Ir.Expr.conv ~border:Img.Border.Mirror Img.Mask.gaussian_3x3 "src");
      ]
  in
  compare_with_interpreter p (input_for p)

let test_cpu_exec_fused_apps () =
  require_cc ();
  List.iter
    (fun name ->
      let e = Option.get (Kfuse_apps.Registry.find name) in
      let p = e.Kfuse_apps.Registry.small ~width:16 ~height:12 in
      let fused =
        (F.Driver.run ~optimize:true F.Config.default F.Driver.Mincut p).F.Driver.fused
      in
      compare_with_interpreter fused (input_for p))
    [ "sobel"; "unsharp"; "enhance" ]

let test_cpu_exec_forced_local_chain () =
  (* The hard case: fused local-to-local with index exchange, run as C. *)
  require_cc ();
  let p =
    Ir.Pipeline.create ~name:"chain" ~width:11 ~height:8 ~inputs:[ "src" ]
      [
        Ir.Kernel.map ~name:"c1" ~inputs:[ "src" ]
          (Ir.Expr.conv ~border:Img.Border.Clamp Img.Mask.gaussian_3x3 "src");
        Ir.Kernel.map ~name:"c2" ~inputs:[ "c1" ]
          (Ir.Expr.conv ~border:(Img.Border.Constant 0.25) Img.Mask.gaussian_3x3 "c1");
      ]
  in
  let fused = F.Transform.apply p [ Iset.of_list [ 0; 1 ] ] in
  compare_with_interpreter fused (input_for p)

let test_cpu_exec_reduction () =
  require_cc ();
  let p =
    Ir.Pipeline.create ~name:"redu" ~width:10 ~height:7 ~inputs:[ "src" ]
      [
        Ir.Kernel.reduce ~name:"total" ~inputs:[ "src" ] ~init:0.0 ~combine:Ir.Expr.Add
          (Ir.Expr.input "src");
      ]
  in
  (* The 1x1 reduction output needs special sizing in main(); reuse the
     machinery by comparing manually. *)
  let inputs = input_for p in
  let env = Ir.Eval.env_of_list inputs in
  let expected = snd (List.hd (Ir.Eval.run_outputs p env)) in
  (* Emitting main() with width*height floats for the output buffer is
     harmless (only index 0 is read back). *)
  let actual = run_generated p inputs in
  let first = List.hd actual in
  let e = Img.Image.get expected 0 0 in
  Alcotest.(check bool)
    (Printf.sprintf "reduction %.6g vs %.6g" e first)
    true
    (Float.abs (e -. first) /. Float.max 1.0 (Float.abs e) < 1e-4)

let suite =
  [
    Alcotest.test_case "compiled conv matches interpreter" `Slow test_cpu_exec_simple_conv;
    Alcotest.test_case "compiled fused apps match interpreter" `Slow test_cpu_exec_fused_apps;
    Alcotest.test_case "compiled local chain with exchange" `Slow
      test_cpu_exec_forced_local_chain;
    Alcotest.test_case "compiled reduction" `Slow test_cpu_exec_reduction;
  ]
