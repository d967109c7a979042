(* Property-based tests (qcheck, registered through QCheck_alcotest).

   The heavyweight invariants live here: Stoer-Wagner against brute
   force, Algorithm 1 postconditions on random pipelines, and semantic
   preservation of the fusion transform on random pipelines and images. *)

module F = Kfuse_fusion
module Iset = Kfuse_util.Iset
module Wgraph = Kfuse_graph.Wgraph
module Sw = Kfuse_graph.Stoer_wagner
module Partition = Kfuse_graph.Partition
module Digraph = Kfuse_graph.Digraph
module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Eval = Kfuse_ir.Eval
module Image = Kfuse_image.Image
module Border = Kfuse_image.Border
module Mask = Kfuse_image.Mask
module Region = Kfuse_image.Region

let config = F.Config.default

(* ---- generators ---- *)

(* A connected random weighted graph: a spanning path plus extra edges. *)
let wgraph_gen =
  QCheck.Gen.(
    let* n = int_range 2 8 in
    let* extra = list_size (int_range 0 10) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    let* weights = list_repeat (n + 10) (float_range 0.1 10.0) in
    let weights = Array.of_list weights in
    let g = ref Wgraph.empty in
    let wi = ref 0 in
    let next_w () =
      let w = weights.(!wi mod Array.length weights) in
      incr wi;
      w
    in
    for i = 0 to n - 2 do
      g := Wgraph.add_edge !g i (i + 1) (next_w ())
    done;
    List.iter (fun (u, v) -> if u <> v then g := Wgraph.add_edge !g u v (next_w ())) extra;
    return !g)

let wgraph_arb =
  QCheck.make wgraph_gen ~print:(fun g -> Format.asprintf "%a" Wgraph.pp g)

(* Random pipelines: a chain of 2-6 kernels over one input, mixing point
   arithmetic, shared-input reads, and 3x3 convolutions with random
   borders.  Every kernel reads at least one prior image, so the DAG is
   connected enough to exercise the algorithms. *)
let border_gen =
  QCheck.Gen.oneofl [ Border.Clamp; Border.Mirror; Border.Repeat; Border.Constant 0.5 ]

let pipeline_gen =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* seeds = list_repeat n (pair (int_range 0 2) (pair (int_range 0 100) border_gen)) in
    let kernels = ref [] in
    let names = ref [ "in" ] in
    List.iteri
      (fun i (kind, (pick, border)) ->
        let name = Printf.sprintf "k%d" i in
        let prev = List.nth !names (pick mod List.length !names) in
        let body =
          match kind with
          | 0 ->
            (* point arithmetic on one prior image + the pipeline input *)
            Expr.(input prev + (input "in" * Const 0.5))
          | 1 ->
            (* squaring point kernel *)
            Expr.(input prev * input prev)
          | _ ->
            (* 3x3 convolution with a random border mode *)
            Expr.conv ~border Mask.gaussian_3x3 prev
        in
        let inputs = Expr.images body in
        kernels := Kernel.map ~name ~inputs body :: !kernels;
        names := name :: !names)
      seeds;
    return (List.rev !kernels))

let pipeline_of_kernels kernels =
  Pipeline.create ~name:"rand" ~width:13 ~height:11 ~inputs:[ "in" ] kernels

let pipeline_arb =
  QCheck.make pipeline_gen ~print:(fun ks ->
      Format.asprintf "%a" Pipeline.pp (pipeline_of_kernels ks))

(* ---- properties ---- *)

let prop_stoer_wagner_matches_brute =
  QCheck.Test.make ~count:200 ~name:"Stoer-Wagner = brute-force min cut" wgraph_arb
    (fun g ->
      let w_exact, side = Sw.min_cut g in
      let w_brute, _ = Sw.min_cut_brute g in
      Float.abs (w_exact -. w_brute) < 1e-6
      && Float.abs (Wgraph.cut_weight g side -. w_exact) < 1e-6)

let prop_mincut_partition_valid =
  QCheck.Test.make ~count:200 ~name:"Algorithm 1 yields a valid legal partition"
    pipeline_arb (fun kernels ->
      let p = pipeline_of_kernels kernels in
      let r = F.Mincut_fusion.run config p in
      let g = Pipeline.dag p in
      Partition.is_valid g r.F.Mincut_fusion.partition
      && List.for_all
           (fun b ->
             Iset.cardinal b = 1
             || F.Mincut_fusion.block_legal config p r.F.Mincut_fusion.edges b)
           r.F.Mincut_fusion.partition)

let prop_objective_conservation =
  QCheck.Test.make ~count:200 ~name:"Eq. 13: beta + crossing = total weight"
    pipeline_arb (fun kernels ->
      let p = pipeline_of_kernels kernels in
      let r = F.Mincut_fusion.run config p in
      let weight u v =
        match
          List.find_opt
            (fun (e : F.Benefit.edge_report) -> e.F.Benefit.src = u && e.F.Benefit.dst = v)
            r.F.Mincut_fusion.edges
        with
        | Some e -> e.F.Benefit.weight
        | None -> 0.0
      in
      let g = Pipeline.dag p in
      let total =
        List.fold_left (fun acc (u, v) -> acc +. weight u v) 0.0 (Digraph.edges g)
      in
      let beta = Partition.objective weight g r.F.Mincut_fusion.partition in
      let crossing = Partition.crossing_weight weight g r.F.Mincut_fusion.partition in
      Float.abs (total -. (beta +. crossing)) < 1e-6)

let run_all (p : Pipeline.t) env = Eval.run_outputs p env

let prop_fusion_preserves_semantics =
  QCheck.Test.make ~count:120 ~name:"fusion preserves interpreter semantics"
    (QCheck.pair pipeline_arb QCheck.small_int) (fun (kernels, seed) ->
      let p = pipeline_of_kernels kernels in
      let rng = Kfuse_util.Rng.create seed in
      let img = Image.random rng ~width:13 ~height:11 ~lo:0.0 ~hi:1.0 in
      let env = Eval.env_of_list [ ("in", img) ] in
      let reference = run_all p env in
      List.for_all
        (fun s ->
          let r = F.Driver.run config s p in
          let outs = run_all r.F.Driver.fused env in
          List.for_all2
            (fun (_, a) (_, b) -> Image.max_abs_diff a b < 1e-6)
            reference outs)
        F.Driver.all_strategies)

let prop_forced_pair_fusion_exact =
  (* Even ignoring profitability: force-fusing any legal pair preserves
     semantics (exercises local-to-local paths the strategies avoid). *)
  QCheck.Test.make ~count:120 ~name:"forced legal pair fusion is exact"
    (QCheck.pair pipeline_arb QCheck.small_int) (fun (kernels, seed) ->
      let p = pipeline_of_kernels kernels in
      let g = Pipeline.dag p in
      let rng = Kfuse_util.Rng.create (seed + 17) in
      let img = Image.random rng ~width:13 ~height:11 ~lo:0.0 ~hi:1.0 in
      let env = Eval.env_of_list [ ("in", img) ] in
      let reference = run_all p env in
      List.for_all
        (fun (u, v) ->
          let block = Iset.of_list [ u; v ] in
          match F.Legality.check config p block with
          | Error _ -> true
          | Ok () ->
            let rest =
              Digraph.fold_vertices
                (fun w acc -> if w = u || w = v then acc else Iset.singleton w :: acc)
                g []
            in
            let fused = F.Transform.apply p (block :: rest) in
            let outs = run_all fused env in
            List.for_all2
              (fun (_, a) (_, b) -> Image.max_abs_diff a b < 1e-6)
              reference outs)
        (Digraph.edges g))

let prop_border_axis_in_range =
  QCheck.Test.make ~count:500 ~name:"border axis resolution lands in range"
    QCheck.(triple (int_range 1 20) (int_range (-100) 100) (int_range 0 2))
    (fun (n, i, mode_idx) ->
      let mode = List.nth [ Border.Clamp; Border.Mirror; Border.Repeat ] mode_idx in
      match Border.resolve_axis mode n i with
      | Some j -> j >= 0 && j < n
      | None -> false)

let prop_border_identity_inside =
  QCheck.Test.make ~count:500 ~name:"in-range coordinates resolve to themselves"
    QCheck.(pair (int_range 1 20) (int_range 0 2))
    (fun (n, mode_idx) ->
      let mode = List.nth [ Border.Clamp; Border.Mirror; Border.Repeat ] mode_idx in
      List.for_all (fun i -> Border.resolve_axis mode n i = Some i)
        (List.init n (fun i -> i)))

let prop_region_tiling =
  QCheck.Test.make ~count:300 ~name:"interior + halo tile the image"
    QCheck.(triple (int_range 1 30) (int_range 1 30) (int_range 0 5))
    (fun (width, height, radius) ->
      let interior = Region.interior_count ~width ~height ~radius in
      let halo = Region.halo_count ~width ~height ~radius in
      (* counts agree with pointwise classification *)
      let counted = ref 0 in
      for y = 0 to height - 1 do
        for x = 0 to width - 1 do
          match Region.classify ~width ~height ~radius x y with
          | Region.Interior -> incr counted
          | Region.Halo | Region.Exterior -> ()
        done
      done;
      interior + halo = width * height && !counted = interior)

let prop_grown_mask_consistent =
  QCheck.Test.make ~count:100 ~name:"Eq. 9 equals radius addition"
    QCheck.(pair (int_range 0 4) (int_range 0 4))
    (fun (r_src, r_dst) ->
      let w_src = (2 * r_src) + 1 and w_dst = (2 * r_dst) + 1 in
      let g =
        F.Benefit.grown_mask_area ~sz_src:(w_src * w_src) ~sz_dst:(w_dst * w_dst)
      in
      let fused_width = (2 * (r_src + r_dst)) + 1 in
      g = fused_width * fused_width)

let prop_stats_ordering =
  QCheck.Test.make ~count:300 ~name:"summary statistics are ordered"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range 0.0 100.0))
    (fun samples ->
      let s = Kfuse_util.Stats.summarize (Array.of_list samples) in
      let open Kfuse_util.Stats in
      s.min <= s.p25 && s.p25 <= s.median && s.median <= s.p75 && s.p75 <= s.max
      && s.min <= s.mean && s.mean <= s.max)

(* Random kernel bodies for the row evaluator, over inputs "a" and "b"
   and parameter "p": taps in all five border modes, Select, Let (also
   under Shift, where a Var must read the value bound at its own output
   pixel) and Shifts with and without index exchange in every mode. *)
let mode_gen =
  (* Undefined is rarer: a case where some pixel raises compares only
     that both evaluators raise. *)
  QCheck.Gen.frequencyl
    [ (3, Border.Clamp); (3, Border.Mirror); (3, Border.Repeat); (3, Border.Constant 0.25);
      (1, Border.Undefined) ]

let body_gen =
  QCheck.Gen.(
    let off = int_range (-2) 2 in
    let rec gen depth vars =
      let input =
        map3
          (fun image (dx, dy) border -> Expr.Input { image; dx; dy; border })
          (oneofl [ "a"; "b" ]) (pair off off) mode_gen
      in
      let leaf =
        frequency
          ([ (1, map Expr.const (float_range (-2.0) 2.0)); (1, return (Expr.Param "p"));
             (4, input) ]
          @ if vars = [] then [] else [ (3, map (fun v -> Expr.Var v) (oneofl vars)) ])
      in
      if depth = 0 then leaf
      else
        let sub = gen (depth - 1) vars in
        let var = Printf.sprintf "v%d" depth in
        frequency
          [
            (2, leaf);
            ( 1,
              map2
                (fun op a -> Expr.Unop (op, a))
                (oneofl Expr.[ Neg; Abs; Sqrt; Floor; Sin ])
                sub );
            ( 3,
              map3
                (fun op a b -> Expr.Binop (op, a, b))
                (oneofl Expr.[ Add; Sub; Mul; Div; Min; Max; Pow ])
                sub sub );
            ( 2,
              let* cmp = oneofl Expr.[ Lt; Le; Eq ] in
              (* lhs == rhs sometimes: Eq must hold on NaN, as Float.equal *)
              let* lhs = sub and* rhs = sub and* same = bool in
              let rhs = if same then lhs else rhs in
              map2
                (fun if_true if_false -> Expr.Select { cmp; lhs; rhs; if_true; if_false })
                sub sub );
            ( 2,
              map2
                (fun value body -> Expr.Let { var; value; body })
                sub
                (gen (depth - 1) (var :: vars)) );
            ( 3,
              map3
                (fun (dx, dy) exchange body -> Expr.Shift { dx; dy; exchange; body })
                (pair off off) (opt mode_gen) sub );
          ]
    in
    let* depth = int_range 1 5 in
    let* extent =
      oneof
        [ return (13, 11); map (fun k -> (1, k)) (int_range 1 6);
          map (fun k -> (k, 1)) (int_range 1 6) ]
    in
    map (fun body -> (extent, body)) (gen depth []))

let body_arb =
  QCheck.make body_gen ~print:(fun ((w, h), e) ->
      Format.asprintf "%dx%d: %a" w h Expr.pp e)

(* [Ok image] or [Error ()] when any position raises Invalid_argument. *)
let whole_image f =
  match f () with v -> Ok v | exception Invalid_argument _ -> Error ()

let bits_equal a b =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

let prop_compile_matches_interpreter =
  (* The row evaluator against the tree-walking specification over whole
     images: bit for bit where eval_expr returns, Invalid_argument
     wherever eval_expr raises on some pixel. *)
  QCheck.Test.make ~count:500 ~name:"Compile.expr = Eval.eval_expr"
    (QCheck.pair body_arb QCheck.small_int) (fun (((width, height), body), seed) ->
      let rng = Kfuse_util.Rng.create (seed + 31) in
      let image () = Image.random rng ~width ~height ~lo:(-1.0) ~hi:1.0 in
      let env = Eval.env_of_list [ ("a", image ()); ("b", image ()) ] in
      let params = [ ("p", 0.125) ] in
      let scalar =
        whole_image (fun () ->
            Array.init (width * height) (fun i ->
                Eval.eval_expr ~env ~params ~width ~height ~x:(i mod width) ~y:(i / width)
                  body))
      in
      let rows =
        whole_image (fun () ->
            let c =
              Kfuse_ir.Compile.expr ~width ~height ~params
                ~lookup:(fun n -> Eval.Env.find n env)
                body
            in
            Array.concat (List.init height (fun y -> Array.copy (Kfuse_ir.Compile.row c y))))
      in
      match (scalar, rows) with
      | Ok a, Ok b -> bits_equal a b
      | Error (), Error () -> true
      | Ok _, Error () | Error (), Ok _ -> false)

let prop_mincut_near_oracle =
  QCheck.Test.make ~count:60 ~name:"Algorithm 1 bounded by the exhaustive optimum"
    pipeline_arb (fun kernels ->
      let p = pipeline_of_kernels kernels in
      let heuristic = (F.Mincut_fusion.run config p).F.Mincut_fusion.objective in
      let optimal = F.Exhaustive_fusion.optimal_objective config p in
      heuristic <= optimal +. 1e-9)

let prop_opt_passes_preserve_semantics =
  QCheck.Test.make ~count:120 ~name:"simplify + cse preserve semantics"
    (QCheck.pair pipeline_arb QCheck.small_int) (fun (kernels, seed) ->
      let p = pipeline_of_kernels kernels in
      let rng = Kfuse_util.Rng.create (seed + 99) in
      let img = Image.random rng ~width:13 ~height:11 ~lo:0.0 ~hi:1.0 in
      let env = Eval.env_of_list [ ("in", img) ] in
      (* Optimize the *fused* pipeline: its bodies exercise Shift/Let. *)
      let fused = (F.Driver.run config F.Driver.Mincut p).F.Driver.fused in
      let optimized = Kfuse_ir.Cse.pipeline (Kfuse_ir.Simplify.pipeline fused) in
      let a = run_all fused env and b = run_all optimized env in
      List.for_all2 (fun (_, x) (_, y) -> Image.max_abs_diff x y < 1e-6) a b)

let prop_simplify_never_grows =
  QCheck.Test.make ~count:200 ~name:"simplify never grows an expression"
    pipeline_arb (fun kernels ->
      let p = pipeline_of_kernels kernels in
      Array.for_all
        (fun (k : Kernel.t) ->
          match k.Kernel.op with
          | Kernel.Map e -> Expr.size (Kfuse_ir.Simplify.expr e) <= Expr.size e
          | Kernel.Reduce _ -> true)
        p.Pipeline.kernels)

let prop_transform_radius_additive =
  QCheck.Test.make ~count:50 ~name:"fused chain radius is the sum of radii"
    (QCheck.pair (QCheck.int_range 0 2) (QCheck.int_range 0 2))
    (fun (r1, r2) ->
      let mask r = if r = 0 then None else Some (Mask.mean ((2 * r) + 1)) in
      let body name r =
        match mask r with
        | None -> Expr.(input name * Const 2.0)
        | Some m -> Expr.conv m name
      in
      let p =
        Pipeline.create ~name:"chain" ~width:16 ~height:16 ~inputs:[ "in" ]
          [
            Kernel.map ~name:"a" ~inputs:[ "in" ] (body "in" r1);
            Kernel.map ~name:"b" ~inputs:[ "a" ] (body "a" r2);
          ]
      in
      let fused = F.Transform.fuse_block p (Iset.of_list [ 0; 1 ]) in
      Kernel.radius fused = r1 + r2)

let prop_dsl_parser_total =
  (* The parser is total: arbitrary input either parses or reports a
     positioned error — it never raises anything else or loops. *)
  QCheck.Test.make ~count:500 ~name:"DSL parser is total on junk"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 200) QCheck.Gen.printable)
    (fun src ->
      match Kfuse_dsl.Parser.parse_result src with Ok _ | Error _ -> true)

let prop_dsl_parser_total_tokens =
  (* Same, over strings built from DSL-ish fragments (more likely to get
     deep into the grammar than raw printable noise). *)
  QCheck.Test.make ~count:500 ~name:"DSL parser is total on token soup"
    QCheck.(
      list_of_size (QCheck.Gen.int_range 0 40)
        (QCheck.oneofl
           [ "pipeline"; "size"; "param"; "let"; "in"; "reduce"; "conv"; "select";
             "("; ")"; "{"; "}"; "["; "]"; ","; "="; "@"; ":"; "+"; "-"; "*"; "/";
             "x"; "img"; "3"; "2.5"; "gauss3"; "clamp"; "sum" ]))
    (fun tokens ->
      let src = String.concat " " tokens in
      match Kfuse_dsl.Parser.parse_result src with Ok _ | Error _ -> true)

let prop_pgm_decoder_total =
  QCheck.Test.make ~count:500 ~name:"PGM decoder is total"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 300) QCheck.Gen.char)
    (fun data ->
      match Kfuse_image.Pgm.of_string data with
      | _ -> true
      | exception Invalid_argument _ -> true)

let prop_pgm_roundtrip =
  QCheck.Test.make ~count:200 ~name:"PGM 16-bit roundtrip within quantization"
    (QCheck.pair (QCheck.int_range 1 20) (QCheck.int_range 1 20))
    (fun (w, h) ->
      let rng = Kfuse_util.Rng.create ((w * 31) + h) in
      let img = Image.random rng ~width:w ~height:h ~lo:0.0 ~hi:1.0 in
      let back = Kfuse_image.Pgm.of_string (Kfuse_image.Pgm.to_string ~maxval:65535 img) in
      Image.equal_eps ~eps:(0.5 /. 65535.0 +. 1e-9) img back)

let prop_unparse_roundtrip =
  (* Random (unfused) pipelines print to DSL text that parses back to the
     same semantics. *)
  QCheck.Test.make ~count:100 ~name:"unparse/parse roundtrip on random pipelines"
    (QCheck.pair pipeline_arb QCheck.small_int) (fun (kernels, seed) ->
      let p = pipeline_of_kernels kernels in
      match Kfuse_dsl.Unparse.pipeline p with
      | Error _ -> false
      | Ok text -> (
        match Kfuse_dsl.Elaborate.parse_pipeline text with
        | Error _ -> false
        | Ok p2 ->
          let rng = Kfuse_util.Rng.create (seed + 777) in
          let img = Image.random rng ~width:13 ~height:11 ~lo:0.0 ~hi:1.0 in
          let env = Eval.env_of_list [ ("in", img) ] in
          let a = run_all p env and b = run_all p2 env in
          List.for_all2 (fun (_, x) (_, y) -> Image.equal x y) a b))

let prop_distribute_preserves_semantics =
  (* Splitting any splittable kernel of a random pipeline is exact. *)
  QCheck.Test.make ~count:100 ~name:"kernel distribution preserves semantics"
    (QCheck.pair pipeline_arb QCheck.small_int) (fun (kernels, seed) ->
      let p = pipeline_of_kernels kernels in
      let p', _ = F.Distribute.split_all p in
      let rng = Kfuse_util.Rng.create (seed + 555) in
      let img = Image.random rng ~width:13 ~height:11 ~lo:0.0 ~hi:1.0 in
      let env = Eval.env_of_list [ ("in", img) ] in
      let a = run_all p env and b = run_all p' env in
      List.for_all2 (fun (_, x) (_, y) -> Image.max_abs_diff x y < 1e-9) a b)

let prop_inline_preserves_semantics =
  QCheck.Test.make ~count:100 ~name:"greedy inlining preserves semantics"
    (QCheck.pair pipeline_arb QCheck.small_int) (fun (kernels, seed) ->
      let p = pipeline_of_kernels kernels in
      let p', _ = F.Inline_fusion.greedy config p in
      let rng = Kfuse_util.Rng.create (seed + 333) in
      let img = Image.random rng ~width:13 ~height:11 ~lo:0.0 ~hi:1.0 in
      let env = Eval.env_of_list [ ("in", img) ] in
      let a = run_all p env and b = run_all p' env in
      List.for_all2 (fun (_, x) (_, y) -> Image.max_abs_diff x y < 1e-9) a b)

(* ---- fuzzer-backed differential properties ----

   The three strongest oracles from lib/fuzz, re-expressed as qcheck
   properties over (seed, index) pairs: qcheck explores the pair space,
   the seeded generator maps each pair to a well-formed pipeline, and a
   failure prints the two integers that replay it exactly (also via
   `kfusec fuzz --seed S`). *)

let fuzz_case_arb =
  QCheck.make
    ~print:(fun (seed, index) -> Printf.sprintf "seed=%d index=%d" seed index)
    QCheck.Gen.(pair (int_range 0 10_000) (int_range 0 200))

let fuzz_oracle_holds which (seed, index) =
  let p = Kfuse_fuzz.Gen.case ~seed index in
  match (Kfuse_fuzz.Oracle.check ~which:[ which ] config p).Kfuse_fuzz.Oracle.failure with
  | None -> true
  | Some { Kfuse_fuzz.Oracle.detail; _ } -> QCheck.Test.fail_report detail

let prop_fuzz_legality =
  QCheck.Test.make ~count:40
    ~name:"fuzz: every strategy's partition is legal and valid" fuzz_case_arb
    (fuzz_oracle_holds Kfuse_fuzz.Oracle.Legality)

let prop_fuzz_beta_never_beats_optimum =
  QCheck.Test.make ~count:25
    ~name:"fuzz: min-cut beta never exceeds the exhaustive optimum" fuzz_case_arb
    (fuzz_oracle_holds Kfuse_fuzz.Oracle.Beta_optimal)

let prop_fuzz_eval_exact =
  QCheck.Test.make ~count:20
    ~name:"fuzz: fused evaluation is pixel-exact, borders included" fuzz_case_arb
    (fuzz_oracle_holds Kfuse_fuzz.Oracle.Eval_exact)

(* ---- lazy-fusion incremental replanning ----

   The three strongest invariants of the lazy frontend (lib/lazy),
   each over a seeded random edit sequence: a failure prints the
   (seed, edits) pair that replays it exactly. *)

let lazy_case_arb =
  QCheck.make
    ~print:(fun (seed, edits) -> Printf.sprintf "seed=%d edits=%d" seed edits)
    QCheck.Gen.(pair (int_range 0 10_000) (int_range 0 25))

let lazy_builder seed edits =
  let lp =
    Kfuse_lazy.Lazy_pipeline.create ~name:"prop" ~width:24 ~height:18
      ~inputs:[ "in"; "aux" ]
      ~params:[ ("gain", 1.5) ]
      config
    |> Result.get_ok
  in
  let rng = Kfuse_util.Rng.create seed in
  (* two flush points exercise the cross-flush memo, not just one plan *)
  let _ = Kfuse_lazy.Edits.random_sequence rng lp (edits / 2) in
  let _ = Kfuse_lazy.Lazy_pipeline.flush lp in
  let _ = Kfuse_lazy.Edits.random_sequence rng lp (edits - (edits / 2)) in
  lp

let lazy_plan what = function
  | Ok (plan : Kfuse_lazy.Replan.plan) -> plan
  | Error d ->
    QCheck.Test.fail_report (Format.asprintf "%s failed: %a" what Kfuse_util.Diag.pp d)

let prop_lazy_incremental_matches_scratch =
  QCheck.Test.make ~count:60
    ~name:"lazy: incremental flush is bit-identical to scratch" lazy_case_arb
    (fun (seed, edits) ->
      let lp = lazy_builder seed edits in
      let inc = lazy_plan "flush" (Kfuse_lazy.Lazy_pipeline.flush lp) in
      let scr = lazy_plan "scratch" (Kfuse_lazy.Lazy_pipeline.flush_scratch lp) in
      (not inc.stats.fell_back) && String.equal inc.fingerprint scr.fingerprint)

let prop_lazy_flush_idempotent =
  QCheck.Test.make ~count:60
    ~name:"lazy: reflushing an unedited builder replans zero blocks" lazy_case_arb
    (fun (seed, edits) ->
      let lp = lazy_builder seed edits in
      let first = lazy_plan "flush" (Kfuse_lazy.Lazy_pipeline.flush lp) in
      let again = lazy_plan "reflush" (Kfuse_lazy.Lazy_pipeline.flush lp) in
      again.stats.blocks_replanned = 0
      && String.equal first.fingerprint again.fingerprint)

let prop_lazy_partition_always_legal =
  QCheck.Test.make ~count:60
    ~name:"lazy: every flushed partition passes the whole-result check"
    lazy_case_arb (fun (seed, edits) ->
      let lp = lazy_builder seed edits in
      let plan = lazy_plan "flush" (Kfuse_lazy.Lazy_pipeline.flush lp) in
      match F.Legality.check_partition config plan.pipeline plan.partition with
      | Ok () -> true
      | Error d ->
        QCheck.Test.fail_report (Format.asprintf "illegal: %a" Kfuse_util.Diag.pp d))

(* A fixed seed keeps `dune runtest` reproducible (override with
   QCHECK_SEED to explore). *)
let suite =
  List.map
    (fun test -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260706 |]) test)
    [
      prop_dsl_parser_total;
      prop_dsl_parser_total_tokens;
      prop_pgm_decoder_total;
      prop_pgm_roundtrip;
      prop_unparse_roundtrip;
      prop_distribute_preserves_semantics;
      prop_inline_preserves_semantics;
      prop_stoer_wagner_matches_brute;
      prop_mincut_partition_valid;
      prop_objective_conservation;
      prop_fusion_preserves_semantics;
      prop_forced_pair_fusion_exact;
      prop_border_axis_in_range;
      prop_border_identity_inside;
      prop_region_tiling;
      prop_grown_mask_consistent;
      prop_stats_ordering;
      prop_compile_matches_interpreter;
      prop_mincut_near_oracle;
      prop_opt_passes_preserve_semantics;
      prop_simplify_never_grows;
      prop_transform_radius_additive;
      prop_lazy_incremental_matches_scratch;
      prop_lazy_flush_idempotent;
      prop_lazy_partition_always_legal;
      prop_fuzz_legality;
      prop_fuzz_beta_never_beats_optimum;
      prop_fuzz_eval_exact;
    ]
