(* Tests for Kfuse_ir: Expr, Kernel, Pipeline, Cost, Eval. *)

module Border = Kfuse_image.Border
module Image = Kfuse_image.Image
module Mask = Kfuse_image.Mask
module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Cost = Kfuse_ir.Cost
module Eval = Kfuse_ir.Eval
module Iset = Kfuse_util.Iset
module Digraph = Kfuse_graph.Digraph

(* ---- Expr ---- *)

let test_expr_accesses () =
  let open Expr in
  let e = input ~dx:1 ~dy:(-1) "a" + (input "b" * input ~dx:2 "a") in
  Alcotest.(check (list (triple string int int)))
    "accesses in order"
    [ ("a", 1, -1); ("b", 0, 0); ("a", 2, 0) ]
    (accesses e);
  Alcotest.(check (list string)) "images dedup" [ "a"; "b" ] (images e);
  Alcotest.(check int) "radius" 2 (radius e);
  Alcotest.(check (option int)) "radius of b" (Some 0) (radius_of_image e "b");
  Alcotest.(check (option int)) "radius of absent" None (radius_of_image e "zzz")

let test_expr_shift_composes_offsets () =
  let open Expr in
  let inner = input ~dx:1 ~dy:2 "a" in
  let e = Shift { dx = 3; dy = -1; exchange = None; body = inner } in
  Alcotest.(check (list (triple string int int)))
    "total offsets" [ ("a", 4, 1) ] (accesses e);
  Alcotest.(check int) "radius uses total" 4 (radius e)

let test_expr_let_shares () =
  let open Expr in
  let e = let_ "v" (input "a") (var "v" + var "v") in
  (* The bound value's access is reported once. *)
  Alcotest.(check (list (triple string int int))) "one access" [ ("a", 0, 0) ] (accesses e);
  Alcotest.(check (list string)) "no free vars" [] (free_vars e);
  Alcotest.(check (list string)) "free var visible" [ "w" ] (free_vars (var "w" + e))

let test_expr_subst () =
  let open Expr in
  let e = input ~dx:1 "a" + input "b" in
  let replaced =
    subst_inputs
      (fun ~image ~dx ~dy ~border ->
        if String.equal image "a" then Const 5.0 else Input { image; dx; dy; border })
      e
  in
  Alcotest.check Helpers.expr "a replaced" (Const 5.0 + input "b") replaced

let test_expr_rename () =
  let open Expr in
  let e = input "a" + input "b" in
  let renamed = rename_images (fun s -> s ^ "2") e in
  Alcotest.(check (list string)) "renamed" [ "a2"; "b2" ] (images renamed)

let test_expr_params_size () =
  let open Expr in
  let e = param "k" * (param "k" + input "a") in
  Alcotest.(check (list string)) "params dedup" [ "k" ] (params e);
  (* Mul, Param, Add, Param, Input = 5 nodes. *)
  Alcotest.(check int) "size" 5 (size e)

let test_expr_conv_builder () =
  let open Expr in
  let e = conv Mask.sobel_x "img" in
  (* Sobel X has 6 nonzero taps; zero coefficients are skipped. *)
  Alcotest.(check int) "6 accesses" 6 (List.length (accesses e));
  Alcotest.(check int) "radius 1" 1 (radius e)

let test_expr_equal () =
  let open Expr in
  Alcotest.(check bool) "equal" true (equal (input "a" + Const 1.0) (input "a" + Const 1.0));
  Alcotest.(check bool) "offset differs" false (equal (input ~dx:1 "a") (input "a"));
  Alcotest.(check bool) "border differs" false
    (equal (input ~border:Border.Mirror "a") (input "a"))

(* ---- Kernel ---- *)

let test_kernel_patterns () =
  let open Expr in
  let point = Kernel.map ~name:"p" ~inputs:[ "a" ] (input "a" * Const 2.0) in
  let local = Kernel.map ~name:"l" ~inputs:[ "a" ] (conv Mask.gaussian_3x3 "a") in
  let global = Kernel.reduce ~name:"g" ~inputs:[ "a" ] ~init:0.0 ~combine:Expr.Add (input "a") in
  Alcotest.(check bool) "point" true (Kernel.is_point point);
  Alcotest.(check bool) "local" true (Kernel.is_local local);
  Alcotest.(check bool) "global" true (Kernel.is_global global);
  Alcotest.(check int) "point radius" 0 (Kernel.radius point);
  Alcotest.(check int) "local radius" 1 (Kernel.radius local);
  Alcotest.(check int) "mask width" 3 (Kernel.mask_width local);
  Alcotest.(check int) "mask area" 9 (Kernel.mask_area local);
  Alcotest.(check bool) "shared memory" true (Kernel.uses_shared_memory local);
  Alcotest.(check bool) "point no shared" false (Kernel.uses_shared_memory point)

let test_kernel_validation () =
  let open Expr in
  Helpers.expect_invalid "undeclared input" (fun () ->
      Kernel.map ~name:"k" ~inputs:[] (input "a"));
  Helpers.expect_invalid "unread input" (fun () ->
      Kernel.map ~name:"k" ~inputs:[ "a"; "b" ] (input "a"))
 ;
  (match Kernel.map ~name:"k" ~inputs:[ "a" ] (input "a") with
  | _ -> ()
  | exception _ -> Alcotest.fail "valid kernel rejected");
  Alcotest.check_raises "unbound var"
    (Invalid_argument "Kernel.create(k): unbound variable %v") (fun () ->
      ignore (Kernel.map ~name:"k" ~inputs:[] (var "v")));
  Alcotest.check_raises "windowed reduction"
    (Invalid_argument "Kernel.create(r): reduction argument must be a point expression")
    (fun () ->
      ignore
        (Kernel.reduce ~name:"r" ~inputs:[ "a" ] ~init:0.0 ~combine:Expr.Add
           (input ~dx:1 "a")))

let test_kernel_input_radii () =
  let open Expr in
  let k =
    Kernel.map ~name:"k" ~inputs:[ "a"; "b" ] (input ~dx:2 "a" + (input "a" * input "b"))
  in
  Alcotest.(check (list (pair string int)))
    "radii" [ ("a", 2); ("b", 0) ] (Kernel.input_radii k)

(* ---- Pipeline ---- *)

let two_stage ?(width = 8) ?(height = 8) () =
  let open Expr in
  Pipeline.create ~name:"p" ~width ~height ~inputs:[ "in" ]
    [
      Kernel.map ~name:"a" ~inputs:[ "in" ] (input "in" * Const 2.0);
      Kernel.map ~name:"b" ~inputs:[ "a" ] (input "a" + Const 1.0);
    ]

let test_pipeline_basics () =
  let p = two_stage () in
  Alcotest.(check int) "kernels" 2 (Pipeline.num_kernels p);
  Alcotest.(check (option int)) "index_of a" (Some 0) (Pipeline.index_of p "a");
  Alcotest.(check (option int)) "index_of missing" None (Pipeline.index_of p "z");
  Alcotest.(check (list string)) "outputs" [ "b" ] (Pipeline.outputs p);
  Alcotest.(check (option int)) "producer" (Some 0) (Pipeline.producer p "a");
  Alcotest.(check (option int)) "producer of input" None (Pipeline.producer p "in");
  Alcotest.check Helpers.iset "consumers" (Helpers.set_of [ 1 ]) (Pipeline.consumers p 0);
  Alcotest.(check int) "IS" 64 (Pipeline.is_pixels p);
  Alcotest.(check string) "edge image" "a" (Pipeline.edge_image p 0 1)

(* The DAG is built once by [create]: every planner query reads the same
   value.  A reintroduced per-call rebuild fails here, with no timer. *)
let test_pipeline_dag_stored () =
  let p = two_stage () in
  Alcotest.(check bool) "same DAG on every call" true (Pipeline.dag p == Pipeline.dag p);
  let q = Kfuse_apps.Harris.pipeline () in
  Alcotest.(check bool) "same DAG on every call (harris)" true
    (Pipeline.dag q == Pipeline.dag q)

(* The stored DAG over fuzz-campaign pipelines of up to 24 kernels:
   exactly the producer -> consumer edges of the kernels it is stored
   with, and unchanged by a marshal round trip (the plan cache's disk
   tier) or by [with_kernels] over the same kernels.  A failure prints
   the (max_kernels, seed, index) that replays it and the pipeline;
   shrinking lowers the kernel bound and the index. *)
let dag_case_arb =
  let print (max_kernels, seed, index) =
    Format.asprintf "max_kernels=%d seed=%d index=%d@.%a" max_kernels seed index
      Pipeline.pp
      (Kfuse_fuzz.Gen.case ~max_kernels ~seed index)
  in
  let shrink (max_kernels, seed, index) =
    QCheck.Iter.(
      (QCheck.Shrink.int max_kernels
      |> filter (fun m -> m >= 2)
      >|= fun m -> (m, seed, index))
      <+> (QCheck.Shrink.int index >|= fun i -> (max_kernels, seed, i)))
  in
  QCheck.make ~print ~shrink
    QCheck.Gen.(triple (int_range 2 24) (int_range 0 10_000) (int_range 0 200))

(* The edges re-derived from the kernels' reads, by name lookup. *)
let expected_dag (p : Pipeline.t) =
  let g =
    List.fold_left Digraph.add_vertex Digraph.empty
      (List.init (Pipeline.num_kernels p) Fun.id)
  in
  Array.to_list p.Pipeline.kernels
  |> List.mapi (fun j (k : Kernel.t) -> (j, k))
  |> List.fold_left
       (fun g (j, (k : Kernel.t)) ->
         List.fold_left
           (fun g img ->
             match Pipeline.index_of p img with
             | Some i -> Digraph.add_edge g i j
             | None -> g)
           g k.Kernel.inputs)
       g

let prop_stored_dag =
  QCheck.Test.make ~count:300
    ~name:"Pipeline dag: producer edges, kept by marshal and with_kernels" dag_case_arb
    (fun (max_kernels, seed, index) ->
      let p = Kfuse_fuzz.Gen.case ~max_kernels ~seed index in
      let g = Pipeline.dag p in
      let kernels = Array.to_list p.Pipeline.kernels in
      let marshaled : Pipeline.t = Marshal.from_string (Marshal.to_string p []) 0 in
      let reversed = Pipeline.with_kernels p (List.rev kernels) in
      Iset.equal (Digraph.vertices g)
        (Iset.of_list (List.init (Pipeline.num_kernels p) Fun.id))
      && Digraph.equal g (expected_dag p)
      && Digraph.equal g (Pipeline.dag marshaled)
      && Digraph.equal g (Pipeline.dag (Pipeline.with_kernels p kernels))
      && Digraph.equal (Pipeline.dag reversed) (expected_dag reversed))

let test_pipeline_topo_reorder () =
  (* Kernels given out of order are stored topologically sorted. *)
  let open Expr in
  let p =
    Pipeline.create ~name:"p" ~width:4 ~height:4 ~inputs:[ "in" ]
      [
        Kernel.map ~name:"late" ~inputs:[ "early" ] (input "early");
        Kernel.map ~name:"early" ~inputs:[ "in" ] (input "in");
      ]
  in
  Alcotest.(check string) "first is early" "early" (Pipeline.kernel p 0).Kernel.name

let test_pipeline_validation () =
  let open Expr in
  Helpers.expect_invalid "unknown image" (fun () ->
      Pipeline.create ~name:"p" ~width:4 ~height:4 ~inputs:[]
        [ Kernel.map ~name:"a" ~inputs:[ "ghost" ] (input "ghost") ])
 ;
  Helpers.expect_invalid "duplicate names" (fun () ->
      Pipeline.create ~name:"p" ~width:4 ~height:4 ~inputs:[ "in" ]
        [
          Kernel.map ~name:"a" ~inputs:[ "in" ] (input "in");
          Kernel.map ~name:"a" ~inputs:[ "in" ] (input "in");
        ])
 ;
  Helpers.expect_invalid "name clashes input" (fun () ->
      Pipeline.create ~name:"p" ~width:4 ~height:4 ~inputs:[ "in" ]
        [ Kernel.map ~name:"in" ~inputs:[ "in" ] (input "in") ])
 ;
  Helpers.expect_invalid "missing param default" (fun () ->
      Pipeline.create ~name:"p" ~width:4 ~height:4 ~inputs:[ "in" ]
        [ Kernel.map ~name:"a" ~inputs:[ "in" ] (param "k" * input "in") ])
 ;
  Helpers.expect_invalid "global consumed" (fun () ->
      Pipeline.create ~name:"p" ~width:4 ~height:4 ~inputs:[ "in" ]
        [
          Kernel.reduce ~name:"r" ~inputs:[ "in" ] ~init:0.0 ~combine:Expr.Add (input "in");
          Kernel.map ~name:"b" ~inputs:[ "r" ] (input "r");
        ])
 ;
  Helpers.expect_invalid "nonpositive extent" (fun () ->
      Pipeline.create ~name:"p" ~width:0 ~height:4 ~inputs:[ "in" ]
        [ Kernel.map ~name:"a" ~inputs:[ "in" ] (input "in") ])
 ;
  Helpers.expect_invalid "param shadows kernel" (fun () ->
      Pipeline.create ~name:"p" ~width:4 ~height:4 ~params:[ ("a", 1.0) ]
        ~inputs:[ "in" ]
        [ Kernel.map ~name:"a" ~inputs:[ "in" ] (input "in") ]);
  Helpers.expect_invalid "param shadows input" (fun () ->
      Pipeline.create ~name:"p" ~width:4 ~height:4 ~params:[ ("in", 1.0) ]
        ~inputs:[ "in" ]
        [ Kernel.map ~name:"a" ~inputs:[ "in" ] (input "in") ]);
  ()

let test_pipeline_multi_output () =
  let open Expr in
  let p =
    Pipeline.create ~name:"p" ~width:4 ~height:4 ~inputs:[ "in" ]
      [
        Kernel.map ~name:"a" ~inputs:[ "in" ] (input "in" * Const 2.0);
        Kernel.map ~name:"b" ~inputs:[ "in" ] (input "in" + Const 1.0);
      ]
  in
  Alcotest.(check (list string)) "two sinks" [ "a"; "b" ] (Pipeline.outputs p)

(* ---- Cost ---- *)

let test_cost_op_counts () =
  let open Expr in
  let e = sqrt (input "a" + (input "a" * input "a")) in
  let c = Cost.op_counts e in
  Alcotest.(check int) "alu" 2 c.Cost.alu;
  Alcotest.(check int) "sfu" 1 c.Cost.sfu

let test_cost_kernel_counts_paper_convention () =
  (* The squaring kernels of the Harris example count n_ALU = 2
     (Section III-B): one multiply plus the output store. *)
  let open Expr in
  let sx = Kernel.map ~name:"sx" ~inputs:[ "dx" ] (input "dx" * input "dx") in
  let c = Cost.kernel_op_counts sx in
  Alcotest.(check int) "alu = 2" 2 c.Cost.alu;
  Alcotest.(check int) "sfu = 0" 0 c.Cost.sfu

let test_cost_let_counts_once () =
  let open Expr in
  let shared = let_ "v" (input "a" * input "a") (var "v" + var "v") in
  let dup = (input "a" * input "a") + (input "a" * input "a") in
  Alcotest.(check int) "let counts value once" 2 (Cost.op_counts shared).Cost.alu;
  Alcotest.(check int) "duplicated counts twice" 3 (Cost.op_counts dup).Cost.alu

let test_cost_cost_op () =
  Alcotest.check (Helpers.float_close ()) "eq 6" 72.0
    (Cost.cost_op ~c_alu:4.0 ~c_sfu:16.0 { Cost.alu = 10; sfu = 2 })

let test_cost_tiles () =
  let block = { Cost.bx = 32; by = 4 } in
  let tile0 = 32 * 4 * 4 and tile1 = 34 * 6 * 4 in
  Alcotest.(check int) "radius 0" tile0 (Cost.tile_bytes block ~radius:0);
  Alcotest.(check int) "radius 1" tile1 (Cost.tile_bytes block ~radius:1);
  let open Expr in
  let local = Kernel.map ~name:"l" ~inputs:[ "a" ] (conv Mask.gaussian_3x3 "a") in
  let point = Kernel.map ~name:"p" ~inputs:[ "a" ] (input "a") in
  Alcotest.(check int) "local tile" tile1 (Cost.kernel_shared_bytes block local);
  Alcotest.(check int) "point none" 0 (Cost.kernel_shared_bytes block point)

let test_register_estimate () =
  let open Expr in
  let x = input "a" in
  (* Leaves need one register. *)
  Alcotest.(check int) "leaf" 1 (Cost.register_estimate x);
  (* A left-leaning sum reuses the accumulator. *)
  Alcotest.(check int) "chain" 2 (Cost.register_estimate (((x + x) + x) + x));
  (* A balanced tree of depth d needs d + 1 (Sethi-Ullman). *)
  Alcotest.(check int) "balanced" 3 (Cost.register_estimate ((x + x) + (x + x)));
  (* A Let holds its value across the body. *)
  Alcotest.(check int) "let" 3
    (Cost.register_estimate (let_ "v" (x + x) (var "v" + (x + x))));
  (* Nested lets each pin a register for their whole body (the estimate
     is scope-based, not liveness-based, so the dead v3 still counts). *)
  Alcotest.(check int) "nested lets" 5
    (Cost.register_estimate
       (let_ "v1" x (let_ "v2" x (let_ "v3" x (var "v1" + var "v2")))))

let test_register_estimate_fusion_claim () =
  (* Section II-B.1: "We did not observe any increase in register
     pressure during kernel fusion" — point-based fusion of a chain adds
     at most one live register per forwarded value. *)
  let p =
    let open Expr in
    Pipeline.create ~name:"chain" ~width:8 ~height:8 ~inputs:[ "in" ]
      [
        Kernel.map ~name:"a" ~inputs:[ "in" ] (input "in" * input "in");
        Kernel.map ~name:"b" ~inputs:[ "a" ] (input "a" + input "a");
        Kernel.map ~name:"c" ~inputs:[ "b" ] (sqrt (input "b") * input "b");
      ]
  in
  let module F = Kfuse_fusion in
  let fused = F.Transform.fuse_block p (Kfuse_util.Iset.of_list [ 0; 1; 2 ]) in
  let per_stage =
    Array.fold_left
      (fun acc k -> Stdlib.max acc (Cost.kernel_registers k))
      0 p.Pipeline.kernels
  in
  Alcotest.(check bool) "fusion adds at most a few registers" true
    (Cost.kernel_registers fused <= per_stage + 3)

(* ---- Eval ---- *)

let test_eval_point_pipeline () =
  let p = two_stage ~width:3 ~height:2 () in
  let img = Helpers.ramp ~width:3 ~height:2 in
  let out = Helpers.run_single p [ ("in", img) ] in
  (* b = 2 * in + 1 *)
  Alcotest.check Helpers.image_exact "affine"
    (Image.map (fun v -> (v *. 2.0) +. 1.0) img)
    out

let test_eval_conv_matches_reference () =
  let open Expr in
  let p =
    Pipeline.create ~name:"p" ~width:7 ~height:6 ~inputs:[ "in" ]
      [
        Kernel.map ~name:"g" ~inputs:[ "in" ]
          (conv ~border:Border.Mirror Mask.gaussian_3x3 "in");
      ]
  in
  let img = Helpers.ramp ~width:7 ~height:6 in
  let out = Helpers.run_single p [ ("in", img) ] in
  let expected = Kfuse_image.Convolve.apply ~border:Border.Mirror Mask.gaussian_3x3 img in
  Alcotest.check (Helpers.image_close ~eps:1e-12 ()) "conv" expected out

let test_eval_params () =
  let open Expr in
  let p =
    Pipeline.create ~name:"p" ~width:2 ~height:2 ~params:[ ("k", 3.0) ] ~inputs:[ "in" ]
      [ Kernel.map ~name:"a" ~inputs:[ "in" ] (param "k" * input "in") ]
  in
  let img = Image.const ~width:2 ~height:2 2.0 in
  let out = Helpers.run_single p [ ("in", img) ] in
  Alcotest.check (Helpers.float_close ()) "default" 6.0 (Image.get out 0 0);
  let env = Eval.env_of_list [ ("in", img) ] in
  let out2 = Eval.Env.find "a" (Eval.run ~params:[ ("k", 10.0) ] p env) in
  Alcotest.check (Helpers.float_close ()) "override" 20.0 (Image.get out2 0 0)

let test_eval_reduce () =
  let open Expr in
  let p =
    Pipeline.create ~name:"p" ~width:3 ~height:2 ~inputs:[ "in" ]
      [ Kernel.reduce ~name:"sum" ~inputs:[ "in" ] ~init:0.0 ~combine:Expr.Add (input "in") ]
  in
  let img = Helpers.ramp ~width:3 ~height:2 in
  let out = Helpers.run_single p [ ("in", img) ] in
  Alcotest.(check int) "1x1" 1 (Image.width out);
  Alcotest.check (Helpers.float_close ()) "sum" (Image.fold ( +. ) 0.0 img)
    (Image.get out 0 0)

let test_eval_select () =
  let open Expr in
  let body = select Expr.Lt (input "in") (Const 5.0) (Const 0.0) (Const 1.0) in
  let p =
    Pipeline.create ~name:"p" ~width:2 ~height:1 ~inputs:[ "in" ]
      [ Kernel.map ~name:"thr" ~inputs:[ "in" ] body ]
  in
  let img = Image.of_rows [ [ 3.0; 9.0 ] ] in
  let out = Helpers.run_single p [ ("in", img) ] in
  Alcotest.check (Helpers.float_close ()) "below" 0.0 (Image.get out 0 0);
  Alcotest.check (Helpers.float_close ()) "above" 1.0 (Image.get out 1 0)

let test_eval_shift_exchange () =
  (* Shift with exchange clamps the evaluation position into the
     iteration space. *)
  let open Expr in
  let body =
    Shift { dx = -10; dy = 0; exchange = Some Border.Clamp; body = input "in" }
  in
  let p =
    Pipeline.create ~name:"p" ~width:4 ~height:1 ~inputs:[ "in" ]
      [ Kernel.map ~name:"s" ~inputs:[ "in" ] body ]
  in
  let img = Image.of_rows [ [ 1.; 2.; 3.; 4. ] ] in
  let out = Helpers.run_single p [ ("in", img) ] in
  (* Every position shifts far left and clamps to x = 0. *)
  Alcotest.check Helpers.image_exact "all clamp to first" (Image.const ~width:4 ~height:1 1.0) out

let test_eval_shift_constant_exchange () =
  let open Expr in
  let body =
    Shift { dx = -10; dy = 0; exchange = Some (Border.Constant 7.0); body = input "in" }
  in
  let p =
    Pipeline.create ~name:"p" ~width:2 ~height:1 ~inputs:[ "in" ]
      [ Kernel.map ~name:"s" ~inputs:[ "in" ] body ]
  in
  let img = Image.of_rows [ [ 1.; 2. ] ] in
  let out = Helpers.run_single p [ ("in", img) ] in
  Alcotest.check (Helpers.float_close ()) "constant" 7.0 (Image.get out 0 0)

let test_eval_let_scoping () =
  let open Expr in
  (* Inner let shadows the outer binding. *)
  let body = let_ "v" (Const 1.0) (let_ "v" (Const 2.0) (var "v") + var "v") in
  let p =
    Pipeline.create ~name:"p" ~width:1 ~height:1 ~inputs:[ "in" ]
      [ Kernel.map ~name:"k" ~inputs:[ "in" ] (body + (Const 0.0 * input "in")) ]
  in
  let out = Helpers.run_single p [ ("in", Image.const ~width:1 ~height:1 0.0) ] in
  Alcotest.check (Helpers.float_close ()) "shadowing" 3.0 (Image.get out 0 0)

(* The row evaluator runs each Select branch only on the lanes that
   take it.  A mask guards the last column off an Undefined read one
   pixel to the right (a tap, then an index exchange): neither read
   happens, as in the scalar interpreter. *)
let test_eval_untaken_branch_never_reads () =
  let width = 5 and height = 3 in
  let mask = Image.init ~width ~height (fun x _ -> if x = width - 1 then 1.0 else 0.0) in
  let env = Eval.env_of_list [ ("in", Helpers.ramp ~width ~height); ("mask", mask) ] in
  List.iter
    (fun right ->
      let body =
        Expr.(select Lt (input "mask") (Const 0.5) right (Const (-1.0)))
      in
      let p =
        Pipeline.create ~name:"p" ~width ~height ~inputs:[ "in"; "mask" ]
          [ Kernel.map ~name:"k" ~inputs:[ "in"; "mask" ] body ]
      in
      let out = Eval.Env.find "k" (Eval.run p env) in
      for y = 0 to height - 1 do
        for x = 0 to width - 1 do
          Alcotest.(check (float 0.0))
            (Printf.sprintf "(%d, %d)" x y)
            (Eval.eval_expr ~env ~params:[] ~width ~height ~x ~y body)
            (Image.get out x y)
        done
      done)
    [
      Expr.input ~border:Border.Undefined ~dx:1 "in";
      Expr.Shift { dx = 1; dy = 0; exchange = Some Border.Undefined; body = Expr.input "in" };
    ]

(* An Undefined index exchange that some pixel reaches raises
   Invalid_argument, whether its lanes are the whole row or a compacted
   Select branch. *)
let test_eval_reachable_undefined_exchange_raises () =
  let off =
    Expr.Shift { dx = 0; dy = 1; exchange = Some Border.Undefined; body = Expr.input "in" }
  in
  List.iter
    (fun (what, body) ->
      let p =
        Pipeline.create ~name:"p" ~width:4 ~height:3 ~inputs:[ "in" ]
          [ Kernel.map ~name:"k" ~inputs:[ "in" ] body ]
      in
      let env = Eval.env_of_list [ ("in", Helpers.ramp ~width:4 ~height:3) ] in
      Helpers.expect_invalid (what ^ ": eval_expr") (fun () ->
          Eval.eval_expr ~env ~params:[] ~width:4 ~height:3 ~x:3 ~y:2 body);
      Helpers.expect_invalid (what ^ ": run") (fun () -> Eval.run p env))
    [
      ("whole row", off);
      (* the ramp's last row reads 27, 34, 41, 48: two lanes take [off] *)
      ("compacted branch", Expr.(select Lt (input "in") (Const 40.0) (Const 0.0) off));
    ]

(* A Reduce folds in row-major order with the same combine as a scalar
   left fold over eval_expr: equal bit for bit, for every combine. *)
let test_eval_reduce_bit_exact () =
  let width = 7 and height = 5 in
  let arg = Expr.(sqrt (input "in" + Const 0.1) * input "in") in
  let img = Image.random (Kfuse_util.Rng.create 3) ~width ~height ~lo:0.5 ~hi:1.5 in
  let env = Eval.env_of_list [ ("in", img) ] in
  List.iter
    (fun (combine, f) ->
      let p =
        Pipeline.create ~name:"p" ~width ~height ~inputs:[ "in" ]
          [ Kernel.reduce ~name:"r" ~inputs:[ "in" ] ~init:0.75 ~combine arg ]
      in
      let acc = ref 0.75 in
      for y = 0 to height - 1 do
        for x = 0 to width - 1 do
          acc := f !acc (Eval.eval_expr ~env ~params:[] ~width ~height ~x ~y arg)
        done
      done;
      let got = Image.get (Eval.Env.find "r" (Eval.run p env)) 0 0 in
      Alcotest.(check int64) "bits" (Int64.bits_of_float !acc) (Int64.bits_of_float got))
    [
      (Expr.Add, ( +. )); (Expr.Sub, ( -. )); (Expr.Mul, ( *. )); (Expr.Div, ( /. ));
      (Expr.Min, Float.min); (Expr.Max, Float.max); (Expr.Pow, Float.pow);
    ]

(* The interpreter allocates per row, not per pixel: running the
   min-cut fused motion plan at 64x64 (compilation included) stays
   under 16 minor words per pixel; the per-pixel closure tree it
   replaced took ~256. *)
let test_eval_allocation_per_pixel () =
  let size = 64 in
  let p = Kfuse_apps.Motion.pipeline ~width:size ~height:size () in
  let fused =
    (Kfuse_fusion.Driver.run Kfuse_fusion.Config.default Kfuse_fusion.Driver.Mincut p)
      .Kfuse_fusion.Driver.fused
  in
  let rng = Kfuse_util.Rng.create 5 in
  let env =
    Eval.env_of_list
      (List.map
         (fun name -> (name, Image.random rng ~width:size ~height:size ~lo:0.0 ~hi:1.0))
         fused.Pipeline.inputs)
  in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Eval.run fused env));
  let per_pixel = (Gc.minor_words () -. before) /. float_of_int (size * size) in
  if per_pixel >= 16.0 then
    Alcotest.failf "Eval.run allocates %.1f minor words per pixel (bound 16)" per_pixel

let test_eval_input_validation () =
  let p = two_stage ~width:3 ~height:2 () in
  Helpers.expect_invalid "missing input" (fun () ->
      Eval.run p (Eval.env_of_list []))
 ;
  Helpers.expect_invalid "wrong size" (fun () ->
      Eval.run p (Eval.env_of_list [ ("in", Image.const ~width:9 ~height:9 0.0) ]))
 ;
  Helpers.expect_invalid "extra binding" (fun () ->
      Eval.run p
        (Eval.env_of_list
           [ ("in", Image.const ~width:3 ~height:2 0.0); ("junk", Image.const ~width:3 ~height:2 0.0) ]))
 ;
  ()

let suite =
  [
    Alcotest.test_case "Expr accesses/images/radius" `Quick test_expr_accesses;
    Alcotest.test_case "Expr shift composes offsets" `Quick test_expr_shift_composes_offsets;
    Alcotest.test_case "Expr let shares" `Quick test_expr_let_shares;
    Alcotest.test_case "Expr subst_inputs" `Quick test_expr_subst;
    Alcotest.test_case "Expr rename_images" `Quick test_expr_rename;
    Alcotest.test_case "Expr params/size" `Quick test_expr_params_size;
    Alcotest.test_case "Expr conv builder" `Quick test_expr_conv_builder;
    Alcotest.test_case "Expr equal" `Quick test_expr_equal;
    Alcotest.test_case "Kernel patterns" `Quick test_kernel_patterns;
    Alcotest.test_case "Kernel validation" `Quick test_kernel_validation;
    Alcotest.test_case "Kernel input radii" `Quick test_kernel_input_radii;
    Alcotest.test_case "Pipeline basics" `Quick test_pipeline_basics;
    Alcotest.test_case "Pipeline dag is stored, not rebuilt" `Quick test_pipeline_dag_stored;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |]) prop_stored_dag;
    Alcotest.test_case "Pipeline topo reorder" `Quick test_pipeline_topo_reorder;
    Alcotest.test_case "Pipeline validation" `Quick test_pipeline_validation;
    Alcotest.test_case "Pipeline multi-output" `Quick test_pipeline_multi_output;
    Alcotest.test_case "Cost op counts" `Quick test_cost_op_counts;
    Alcotest.test_case "Cost paper n_ALU convention" `Quick test_cost_kernel_counts_paper_convention;
    Alcotest.test_case "Cost let counts once" `Quick test_cost_let_counts_once;
    Alcotest.test_case "Cost Eq. 6" `Quick test_cost_cost_op;
    Alcotest.test_case "Cost tiles and shared bytes" `Quick test_cost_tiles;
    Alcotest.test_case "Cost register estimate" `Quick test_register_estimate;
    Alcotest.test_case "Cost fusion register claim" `Quick test_register_estimate_fusion_claim;
    Alcotest.test_case "Eval point pipeline" `Quick test_eval_point_pipeline;
    Alcotest.test_case "Eval conv matches reference" `Quick test_eval_conv_matches_reference;
    Alcotest.test_case "Eval params" `Quick test_eval_params;
    Alcotest.test_case "Eval reduce" `Quick test_eval_reduce;
    Alcotest.test_case "Eval select" `Quick test_eval_select;
    Alcotest.test_case "Eval shift exchange" `Quick test_eval_shift_exchange;
    Alcotest.test_case "Eval shift constant exchange" `Quick test_eval_shift_constant_exchange;
    Alcotest.test_case "Eval let scoping" `Quick test_eval_let_scoping;
    Alcotest.test_case "Eval input validation" `Quick test_eval_input_validation;
    Alcotest.test_case "Eval untaken Select branch never reads" `Quick
      test_eval_untaken_branch_never_reads;
    Alcotest.test_case "Eval reachable undefined exchange raises" `Quick
      test_eval_reachable_undefined_exchange_raises;
    Alcotest.test_case "Eval reduce is bit-exact" `Quick test_eval_reduce_bit_exact;
    Alcotest.test_case "Eval allocation per pixel" `Quick test_eval_allocation_per_pixel;
  ]
