(* Tests for the IR optimization passes: Simplify and Cse. *)

module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Simplify = Kfuse_ir.Simplify
module Cse = Kfuse_ir.Cse
module Cost = Kfuse_ir.Cost
module Eval = Kfuse_ir.Eval
module Image = Kfuse_image.Image
module Border = Kfuse_image.Border
module Mask = Kfuse_image.Mask

let simp = Simplify.expr

(* ---- Simplify ---- *)

let test_constant_folding () =
  let open Expr in
  Alcotest.check Helpers.expr "add" (Const 5.0) (simp (Const 2.0 + Const 3.0));
  Alcotest.check Helpers.expr "nested" (Const 14.0)
    (simp (Const 2.0 * (Const 3.0 + Const 4.0)));
  Alcotest.check Helpers.expr "unop" (Const 3.0) (simp (sqrt (Const 9.0)));
  Alcotest.check Helpers.expr "pow" (Const 8.0) (simp (pow (Const 2.0) (Const 3.0)))

let test_identities () =
  let open Expr in
  let x = input "a" in
  Alcotest.check Helpers.expr "x+0" x (simp (x + Const 0.0));
  Alcotest.check Helpers.expr "0+x" x (simp (Const 0.0 + x));
  Alcotest.check Helpers.expr "x-0" x (simp (x - Const 0.0));
  Alcotest.check Helpers.expr "x*1" x (simp (x * Const 1.0));
  Alcotest.check Helpers.expr "1*x" x (simp (Const 1.0 * x));
  Alcotest.check Helpers.expr "x*0" (Const 0.0) (simp (x * Const 0.0));
  Alcotest.check Helpers.expr "x/1" x (simp (x / Const 1.0));
  Alcotest.check Helpers.expr "pow x 1" x (simp (pow x (Const 1.0)));
  Alcotest.check Helpers.expr "pow x 0" (Const 1.0) (simp (pow x (Const 0.0)));
  Alcotest.check Helpers.expr "neg neg" x (simp (neg (neg x)));
  Alcotest.check Helpers.expr "abs abs" (abs x) (simp (abs (abs x)))

let test_cascading () =
  let open Expr in
  (* (a * 0) + (2 + 3) * 1 -> 5, requires a fixpoint. *)
  Alcotest.check Helpers.expr "cascade" (Const 5.0)
    (simp ((input "a" * Const 0.0) + ((Const 2.0 + Const 3.0) * Const 1.0)))

let test_select_folding () =
  let open Expr in
  let x = input "a" in
  Alcotest.check Helpers.expr "taken" x
    (simp (select Expr.Lt (Const 1.0) (Const 2.0) x (Const 9.0)));
  Alcotest.check Helpers.expr "not taken" (Const 9.0)
    (simp (select Expr.Lt (Const 2.0) (Const 1.0) x (Const 9.0)));
  Alcotest.check Helpers.expr "same branches" x (simp (select Expr.Lt x (Const 0.0) x x))

let test_let_cleanup () =
  let open Expr in
  let x = input "a" in
  (* dead let *)
  Alcotest.check Helpers.expr "dead let" x (simp (let_ "v" (input "b") x));
  (* trivial value inlined *)
  Alcotest.check Helpers.expr "const inlined" (Const 4.0)
    (simp (let_ "v" (Const 2.0) (var "v" + var "v")));
  (* single use inlined *)
  Alcotest.check Helpers.expr "single use" (x * x) (simp (let_ "v" (x * x) (var "v")));
  (* multi-use nontrivial kept *)
  let kept = simp (let_ "v" (x * x) (var "v" + var "v")) in
  (match kept with
  | Let _ -> ()
  | _ -> Alcotest.fail "multi-use binding must be kept")

let test_let_shift_no_unsound_inline () =
  let open Expr in
  (* A position-dependent single-use value must NOT be inlined under a
     Shift: that would change its evaluation position. *)
  let e =
    let_ "v" (input "a") (Shift { dx = 1; dy = 0; exchange = None; body = var "v" })
  in
  let simplified = simp e in
  let p =
    Pipeline.create ~name:"p" ~width:3 ~height:1 ~inputs:[ "a" ]
      [ Kernel.map ~name:"k" ~inputs:[ "a" ] simplified ]
  in
  let img = Image.of_rows [ [ 1.; 2.; 3. ] ] in
  let out = Helpers.run_single p [ ("a", img) ] in
  (* Correct semantics: v = a[x], body yields v regardless of the shift. *)
  Alcotest.check Helpers.image_exact "position preserved" img out

let test_shift_zero_removed () =
  let open Expr in
  let x = input "a" in
  Alcotest.check Helpers.expr "zero shift"
    x
    (simp (Shift { dx = 0; dy = 0; exchange = Some Border.Clamp; body = x }))

let test_shift_constant_exchange_kept () =
  let open Expr in
  (* Constant exchange must keep the Shift: out-of-bounds yields 7, not 3. *)
  let e =
    Shift { dx = -10; dy = 0; exchange = Some (Border.Constant 7.0); body = Const 3.0 }
  in
  (match simp e with
  | Shift _ -> ()
  | other -> Alcotest.failf "should keep shift, got %s" (Format.asprintf "%a" Expr.pp other));
  (* Remapping exchange with a constant body is the identity. *)
  let e2 = Shift { dx = -10; dy = 0; exchange = Some Border.Clamp; body = Const 3.0 } in
  Alcotest.check Helpers.expr "clamp exchange lifts constant" (Const 3.0) (simp e2)

let test_simplify_kernel_prunes_inputs () =
  let open Expr in
  let k = Kernel.map ~name:"k" ~inputs:[ "a"; "b" ] (input "a" + (input "b" * Const 0.0)) in
  let k' = Simplify.kernel k in
  Alcotest.(check (list string)) "b dropped" [ "a" ] k'.Kernel.inputs

(* ---- Cse ---- *)

let count_lets e =
  let rec go n = function
    | Expr.Let { value; body; _ } -> go (go (n + 1) value) body
    | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ -> n
    | Expr.Unop (_, a) -> go n a
    | Expr.Binop (_, a, b) -> go (go n a) b
    | Expr.Select { lhs; rhs; if_true; if_false; _ } ->
      List.fold_left go n [ lhs; rhs; if_true; if_false ]
    | Expr.Shift { body; _ } -> go n body
  in
  go 0 e

let eval1 e bindings =
  let p =
    Pipeline.create ~name:"p" ~width:4 ~height:3
      ~inputs:(List.map fst bindings)
      [ Kernel.map ~name:"k" ~inputs:(Expr.images e) e ]
  in
  Helpers.run_single p bindings

let test_cse_basic_sharing () =
  let open Expr in
  let t = input "a" * input "a" in
  let e = (t + Const 1.0) * (t + Const 2.0) in
  let shared = Cse.expr ~min_size:2 e in
  Alcotest.(check bool) "introduced a let" true (count_lets shared >= 1);
  (* semantics preserved *)
  let img = Helpers.ramp ~width:4 ~height:3 in
  Alcotest.check Helpers.image_exact "same result" (eval1 e [ ("a", img) ])
    (eval1 shared [ ("a", img) ])

let test_cse_input_loads () =
  let open Expr in
  (* Repeated loads of the same pixel collapse to one access. *)
  let e = input "a" + (input "a" * input "a") in
  let shared = Cse.expr e in
  Alcotest.(check int) "one access left" 1 (List.length (accesses shared))

let test_cse_respects_shift_frames () =
  let open Expr in
  (* Structurally equal subtrees in different shift frames are different
     values and must not merge. *)
  let t = input "a" * input "a" in
  let e = t + Shift { dx = 1; dy = 0; exchange = None; body = t } in
  let shared = Cse.expr ~min_size:2 e in
  let img = Helpers.ramp ~width:4 ~height:3 in
  Alcotest.check Helpers.image_exact "frames preserved" (eval1 e [ ("a", img) ])
    (eval1 shared [ ("a", img) ]);
  (* Equal subtrees in the SAME frame inside each shift body still share. *)
  let inner = t + t in
  let e2 = Shift { dx = 1; dy = 0; exchange = None; body = inner } in
  Alcotest.(check bool) "inner frame shares" true (count_lets (Cse.expr ~min_size:2 e2) >= 1)

let test_cse_whole_shift_shared () =
  let open Expr in
  (* Two identical Shift subtrees at the same outer position are the same
     value and do share. *)
  let s = Shift { dx = 1; dy = 1; exchange = Some Border.Clamp; body = input "a" } in
  let e = s + s in
  let shared = Cse.expr ~min_size:1 e in
  Alcotest.(check bool) "shift shared" true (count_lets shared >= 1);
  let img = Helpers.ramp ~width:4 ~height:3 in
  Alcotest.check Helpers.image_exact "semantics" (eval1 e [ ("a", img) ])
    (eval1 shared [ ("a", img) ])

let test_cse_free_vars_untouched () =
  let open Expr in
  let e = let_ "v" (input "a") ((var "v" * var "v") + (var "v" * var "v")) in
  (* v*v repeats but contains a free var within the frame scan at the top
     level... the pass must not hoist it above its binder. *)
  let shared = Cse.expr ~min_size:2 e in
  let img = Helpers.ramp ~width:4 ~height:3 in
  Alcotest.check Helpers.image_exact "no capture" (eval1 e [ ("a", img) ])
    (eval1 shared [ ("a", img) ])

let rec count_exp = function
  | Expr.Unop (Expr.Exp, a) -> 1 + count_exp a
  | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ -> 0
  | Expr.Let { value; body; _ } -> count_exp value + count_exp body
  | Expr.Unop (_, a) | Expr.Shift { body = a; _ } -> count_exp a
  | Expr.Binop (_, a, b) -> count_exp a + count_exp b
  | Expr.Select { lhs; rhs; if_true; if_false; _ } ->
    count_exp lhs + count_exp rhs + count_exp if_true + count_exp if_false

(* A repeat that reads a [let] variable is bound inside the [let]'s
   body: [exp (-. v)] is computed once. *)
let test_cse_under_let () =
  let open Expr in
  let t = exp (neg (var "v")) in
  let e = let_ "v" (input "a" + Const 1.0) ((t * input "a") + t) in
  let shared = Cse.expr ~min_size:2 e in
  Alcotest.(check int) "one exp left" 1 (count_exp shared);
  let img = Helpers.ramp ~width:4 ~height:3 in
  Alcotest.check Helpers.image_exact "same result" (eval1 e [ ("a", img) ])
    (eval1 shared [ ("a", img) ])

(* Two [let]s of one name: [v * a] under the inner one reads the inner
   binding, so it must not merge with the outer one's. *)
let test_cse_shadowed_let () =
  let open Expr in
  let t = var "v" * input "a" in
  let e = let_ "v" (input "a" + Const 1.0) (let_ "v" (input "a" * Const 3.0) t + t) in
  let shared = Cse.expr ~min_size:2 e in
  let img = Helpers.ramp ~width:4 ~height:3 in
  Alcotest.check Helpers.image_exact "each binding read" (eval1 e [ ("a", img) ])
    (eval1 shared [ ("a", img) ])

let test_cse_on_harris_hc () =
  (* hc reuses gx and gy several times: CSE reduces its distinct loads to
     three. *)
  let p = Kfuse_apps.Harris.pipeline ~width:8 ~height:8 () in
  let hc = Pipeline.kernel p (Option.get (Pipeline.index_of p "hc")) in
  let shared = Cse.kernel hc in
  Alcotest.(check int) "three loads" 3
    (List.length (Expr.accesses (Kernel.body shared)))

let test_optimize_flag_in_driver () =
  let module F = Kfuse_fusion in
  let p = Kfuse_apps.Unsharp.pipeline ~width:16 ~height:16 () in
  let plain = F.Driver.run F.Config.default F.Driver.Mincut p in
  let optimized = F.Driver.run ~optimize:true F.Config.default F.Driver.Mincut p in
  let body r = Kernel.body (Pipeline.kernel r.F.Driver.fused 0) in
  (* CSE trades AST nodes (Let/Var bookkeeping) for fewer distinct loads
     and ops; accesses and op counts are the meaningful metrics. *)
  Alcotest.(check bool) "optimized body loads fewer pixels" true
    (List.length (Expr.accesses (body optimized))
    <= List.length (Expr.accesses (body plain)));
  Alcotest.(check bool) "optimized body costs no more ops" true
    ((Cost.kernel_op_counts (Pipeline.kernel optimized.F.Driver.fused 0)).Cost.alu
    <= (Cost.kernel_op_counts (Pipeline.kernel plain.F.Driver.fused 0)).Cost.alu);
  (* and still correct *)
  let rng = Kfuse_util.Rng.create 9 in
  let img = Image.random rng ~width:16 ~height:16 ~lo:0.0 ~hi:1.0 in
  let env = Eval.env_of_list [ ("in", img) ] in
  let a = snd (List.hd (Eval.run_outputs p env)) in
  let b = snd (List.hd (Eval.run_outputs optimized.F.Driver.fused env)) in
  Alcotest.(check bool) "optimized exact" true (Image.max_abs_diff a b < 1e-9)

let test_simplify_reduces_fused_ops () =
  (* Fused Sobel carries mask constants; folding plus CSE lowers the
     counted work. *)
  let module F = Kfuse_fusion in
  let p = Kfuse_apps.Sobel.pipeline ~width:16 ~height:16 () in
  let r = F.Driver.run F.Config.default F.Driver.Mincut p in
  let k = Pipeline.kernel r.F.Driver.fused 0 in
  let k' = Cse.kernel (Simplify.kernel k) in
  let before = (Cost.kernel_op_counts k).Cost.alu in
  let after = (Cost.kernel_op_counts k').Cost.alu in
  Alcotest.(check bool) "not more ops" true (after <= before);
  Alcotest.(check bool) "fewer loads" true
    (List.length (Expr.accesses (Kernel.body k'))
    <= List.length (Expr.accesses (Kernel.body k)))

let suite =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "identities" `Quick test_identities;
    Alcotest.test_case "cascading folds" `Quick test_cascading;
    Alcotest.test_case "select folding" `Quick test_select_folding;
    Alcotest.test_case "let cleanup" `Quick test_let_cleanup;
    Alcotest.test_case "no unsound inline under shift" `Quick test_let_shift_no_unsound_inline;
    Alcotest.test_case "zero shift removed" `Quick test_shift_zero_removed;
    Alcotest.test_case "constant-exchange shift kept" `Quick test_shift_constant_exchange_kept;
    Alcotest.test_case "kernel input pruning" `Quick test_simplify_kernel_prunes_inputs;
    Alcotest.test_case "cse basic sharing" `Quick test_cse_basic_sharing;
    Alcotest.test_case "cse merges input loads" `Quick test_cse_input_loads;
    Alcotest.test_case "cse respects shift frames" `Quick test_cse_respects_shift_frames;
    Alcotest.test_case "cse shares whole shifts" `Quick test_cse_whole_shift_shared;
    Alcotest.test_case "cse leaves free vars" `Quick test_cse_free_vars_untouched;
    Alcotest.test_case "cse on Harris hc" `Quick test_cse_on_harris_hc;
    Alcotest.test_case "cse binds a repeat under its let" `Quick test_cse_under_let;
    Alcotest.test_case "cse keeps shadowed lets apart" `Quick test_cse_shadowed_let;
    Alcotest.test_case "driver optimize flag" `Quick test_optimize_flag_in_driver;
    Alcotest.test_case "passes reduce fused work" `Quick test_simplify_reduces_fused_ops;
  ]
