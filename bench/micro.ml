(* Bechamel micro-benchmarks of the compiler itself (not a paper table):
   Stoer-Wagner min cut, Algorithm 1 end-to-end, the fusion transform,
   DSL parsing, an incremental lazy replan, plus the daemon's half of a
   sandboxed fuse_exec, its request-to-plan-key step, one synthetic
   stream frame and the interpreter run of a stream's verify push.
   One Test.make per subject, all in one executable. *)

open Bechamel
open Toolkit

module F = Kfuse_fusion
module Wgraph = Kfuse_graph.Wgraph
module Sw = Kfuse_graph.Stoer_wagner
module Iset = Kfuse_util.Iset

(* A reproducible random connected weighted graph with [n] vertices. *)
let random_wgraph n seed =
  let rng = Kfuse_util.Rng.create seed in
  let g = ref Wgraph.empty in
  for i = 1 to n - 1 do
    g := Wgraph.add_edge !g (Kfuse_util.Rng.int rng i) i (1.0 +. Kfuse_util.Rng.float rng 9.0)
  done;
  for _ = 1 to 2 * n do
    let u = Kfuse_util.Rng.int rng n and v = Kfuse_util.Rng.int rng n in
    if u <> v then g := Wgraph.add_edge !g u v (1.0 +. Kfuse_util.Rng.float rng 9.0)
  done;
  !g

let mincut_test n =
  let g = random_wgraph n 42 in
  Test.make ~name:(Printf.sprintf "stoer_wagner/n=%d" n)
    (Staged.stage (fun () -> ignore (Sw.min_cut g)))

let harris = Kfuse_apps.Harris.pipeline ()

let algorithm1_test =
  Test.make ~name:"algorithm1/harris"
    (Staged.stage (fun () -> ignore (F.Mincut_fusion.run Runner.config harris)))

let transform_test =
  let partition = F.Mincut_fusion.partition Runner.config harris in
  Test.make ~name:"transform/harris"
    (Staged.stage (fun () -> ignore (F.Transform.apply harris partition)))

let benefit_test =
  Test.make ~name:"benefit/harris-edges"
    (Staged.stage (fun () -> ignore (F.Benefit.all_edges Runner.config harris)))

let dsl_src =
  {|pipeline edges(img) {
      size 2048 2048
      gx = conv(img, sobelx, clamp)
      gy = conv(img, sobely, clamp)
      mag = sqrt(gx*gx + gy*gy)
    }|}

let dsl_test =
  Test.make ~name:"dsl/parse+elaborate"
    (Staged.stage (fun () ->
         match Kfuse_dsl.Elaborate.parse_pipeline dsl_src with
         | Ok _ -> ()
         | Error e -> failwith e))

let codegen_test =
  Test.make ~name:"codegen/harris"
    (Staged.stage (fun () -> ignore (Kfuse_codegen.Lower.emit_pipeline harris)))

(* The planner's graph queries on kfbench lazy-edit's pipeline: 8
   disconnected 6-kernel chains at 512x512, mixing stencils and point
   kernels.  [replan/param+flush-48] is one [param] edit and one
   incremental flush of a warm lazy session; a parameter edit dirties no
   block, so every iteration does the same work.
   [algorithm1/chains-48] is a scratch min-cut search of the same DAG. *)
module Lz = Kfuse_lazy

let chains_source =
  let b = Buffer.create 4096 in
  let inputs = List.init 8 (Printf.sprintf "in%d") in
  Printf.bprintf b "pipeline edits(%s) {\n  size 512 512\n" (String.concat ", " inputs);
  for c = 0 to 7 do
    let k j = Printf.sprintf "c%d_%d" c j in
    Printf.bprintf b "  %s = conv(in%d, gauss3, mirror)\n" (k 0) c;
    Printf.bprintf b "  %s = %s * 1.25\n" (k 1) (k 0);
    Printf.bprintf b "  %s = conv(%s, gauss5, mirror)\n" (k 2) (k 1);
    Printf.bprintf b "  %s = %s + %s\n" (k 3) (k 2) (k 0);
    Printf.bprintf b "  %s = conv(%s, sobelx, mirror)\n" (k 4) (k 3);
    Printf.bprintf b "  %s = %s * 0.75 + %s\n" (k 5) (k 4) (k 2)
  done;
  Buffer.add_string b "}\n";
  Buffer.contents b

let chains =
  lazy
    (match Kfuse_dsl.Elaborate.parse_pipeline chains_source with
    | Ok p -> p
    | Error e -> failwith e)

let ok = function Ok v -> v | Error d -> failwith (Kfuse_util.Diag.to_string d)

let replan_test =
  let session =
    lazy
      (let lp = Lz.Lazy_pipeline.of_pipeline Runner.config (Lazy.force chains) in
       ignore (ok (Lz.Lazy_pipeline.flush lp));
       lp)
  in
  Test.make ~name:"replan/param+flush-48"
    (Staged.stage (fun () ->
         let lp = Lazy.force session in
         ignore
           (ok (Result.bind (Lz.Command.parse lp "param gain0 1.5") (Lz.Command.apply lp)));
         ignore (ok (Lz.Lazy_pipeline.flush lp))))

let algorithm1_chains_test =
  Test.make ~name:"algorithm1/chains-48"
    (Staged.stage (fun () ->
         ignore (F.Mincut_fusion.run Runner.config (Lazy.force chains))))

(* The data path of a 1024x1024 request with one input and one output.
   [arena/images] is the daemon's path before runners drew and folded
   in place, alone on a memfd like a runner's arena: draw the input as
   an OCaml image, pwrite it, pread the output into a fresh array and
   fold min, max and sum over it in OCaml.  [arena/runner] is a whole
   sandboxed seeded request as the daemon makes it now, against the
   warm runner of a copy kernel (the first run compiles it): the
   artifact lookup, the frame, the runner's draw into its arena, the
   kernel, its fold and the reply. *)
module Native = Kfuse_exec.Native
module Image = Kfuse_image.Image

external memfd : string -> int -> Unix.file_descr = "kfuse_memfd"
external pwrite_floats : Unix.file_descr -> float array -> int -> unit = "kfuse_pwrite_floats"
external pread_floats : Unix.file_descr -> float array -> int -> unit = "kfuse_pread_floats"

let side = 1024
let npix = side * side
let arena = lazy (memfd "kfuse-micro-arena" (16 * npix))

let arena_images_test =
  Test.make ~name:"arena/images"
    (Staged.stage (fun () ->
         let fd = Lazy.force arena in
         let input =
           Image.random (Kfuse_util.Rng.create 1) ~width:side ~height:side ~lo:0.0 ~hi:1.0
         in
         pwrite_floats fd (Image.unsafe_data input) 0;
         let out = Array.create_float npix in
         pread_floats fd out (8 * npix);
         let lo = ref Float.infinity and hi = ref Float.neg_infinity and sum = ref 0.0 in
         for i = 0 to npix - 1 do
           let v = Array.unsafe_get out i in
           if v < !lo then lo := v;
           if v > !hi then hi := v;
           sum := !sum +. v
         done;
         ignore (Sys.opaque_identity (!lo, !hi, !sum))))

let copy_pipeline =
  Kfuse_ir.Pipeline.create ~name:"copy" ~width:side ~height:side ~inputs:[ "a" ]
    [ Kfuse_ir.Kernel.map ~name:"b" ~inputs:[ "a" ] Kfuse_ir.Expr.(input "a" * Const 1.0) ]

let arena_runner_test =
  Test.make ~name:"arena/runner"
    (Staged.stage (fun () ->
         let input = Native.Random { rng = Kfuse_util.Rng.create 1; lo = 0.0; hi = 1.0 } in
         match Native.execute ~mode:Native.Subprocess copy_pipeline input Native.Summaries with
         | Ok r -> ignore (Sys.opaque_identity r.Native.outputs)
         | Error d -> failwith (Kfuse_util.Diag.to_string d)))

(* The request-to-plan-key step of a planning-only [fuse], over texts
   shaped like kfbench plan-mix's pool: one generated DAG of each size
   from 2 to 24 kernels, unparsed to DSL.  Each run keys the next text.
   [plan-key/cold] is what a first-seen text costs: parse, validate and
   fingerprint.  [plan-key/memo-hit] is what a repeated one costs:
   digest its fields and find the key in a warm memo. *)
module Svc = Kfuse_service

let plan_key_pool =
  lazy
    (Array.init 23 (fun i ->
         let want = 2 + i in
         let rec find j =
           let p = Kfuse_fuzz.Gen.case ~max_kernels:24 ~seed:1 ((i * 1000) + j) in
           if Kfuse_ir.Pipeline.num_kernels p = want || j >= 999 then p else find (j + 1)
         in
         match Kfuse_dsl.Unparse.pipeline (find 0) with
         | Ok text ->
           {
             Svc.Protocol.app = None;
             source = Some text;
             strategy = F.Driver.Mincut;
             c_mshared = None;
             gamma = None;
             tg = None;
             optimize = false;
             inline = false;
             strict = false;
             budget_ms = None;
             no_cache = false;
           }
         | Error e -> failwith e))

let cold_key (f : Svc.Protocol.fuse_request) =
  Result.bind (Svc.Server.load_pipeline f) Kfuse_ir.Validate.result
  |> Result.map
       (Kfuse_cache.Fingerprint.plan_key ~config:F.Config.default ~strategy:F.Driver.Mincut)

let cycling pool =
  let next = ref 0 in
  fun () ->
    let pool = Lazy.force pool in
    incr next;
    pool.(!next mod Array.length pool)

let plan_key_cold_test =
  let next = cycling plan_key_pool in
  Test.make ~name:"plan-key/cold" (Staged.stage (fun () -> ignore (ok (cold_key (next ())))))

let plan_key_memo_test =
  let memo =
    lazy
      (let memo = Svc.Key_memo.create () in
       Array.iter
         (fun f -> ignore (Svc.Key_memo.key memo f (fun () -> cold_key f)))
         (Lazy.force plan_key_pool);
       memo)
  in
  let next = cycling plan_key_pool in
  Test.make ~name:"plan-key/memo-hit"
    (Staged.stage (fun () ->
         let f = next () in
         ignore (ok (Svc.Key_memo.key (Lazy.force memo) f (fun () -> failwith "memo miss")))))

(* The server's per-push input: one motion-stream frame. *)
let frames_test =
  Test.make ~name:"frames/synthetic-512"
    (Staged.stage (fun () ->
         ignore (Kfuse_stream.Frames.synthetic ~seed:42 ~width:512 ~height:512 ~index:7)))

(* A motion stream's verify push: the reference interpreter on the
   min-cut fused 512x512 motion plan, as the server runs it. *)
let interp_test =
  let case =
    lazy
      (let p = Kfuse_apps.Motion.pipeline ~width:512 ~height:512 () in
       let fused = (F.Driver.run Runner.config F.Driver.Mincut p).F.Driver.fused in
       let rng = Kfuse_util.Rng.create 7 in
       let inputs =
         List.map
           (fun name -> (name, Image.random rng ~width:512 ~height:512 ~lo:0.0 ~hi:1.0))
           fused.Kfuse_ir.Pipeline.inputs
       in
       (fused, Kfuse_ir.Eval.env_of_list inputs))
  in
  Test.make ~name:"interp/motion-fused-512"
    (Staged.stage (fun () ->
         let fused, env = Lazy.force case in
         ignore (Kfuse_ir.Eval.run_outputs fused env)))

let tests =
  Test.make_grouped ~name:"kfuse"
    [
      mincut_test 8; mincut_test 32; mincut_test 128; algorithm1_test; transform_test;
      benefit_test; dsl_test; codegen_test; replan_test; algorithm1_chains_test;
      arena_images_test; arena_runner_test; plan_key_cold_test; plan_key_memo_test;
      frames_test; interp_test;
    ]

let run () =
  print_endline "=== micro: Bechamel benchmarks of the compiler itself ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> Printf.printf "  %-28s %12.1f ns/run\n" name t
      | Some [] | None -> Printf.printf "  %-28s (no estimate)\n" name)
    (List.sort compare rows);
  print_newline ()
