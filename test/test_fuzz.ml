(* The fuzzer itself: deterministic replay, the oracle bank on known
   pipelines, the shrinker's contract, corpus persistence, and pinned
   reproducers for the engine bugs the fuzzer has already caught.

   The campaign-scale runs live in CI (`kfusec fuzz`); here every case
   is small and fixed-seed so `dune runtest` stays fast and exact. *)

module F = Kfuse_fusion
module Fz = Kfuse_fuzz
module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Simplify = Kfuse_ir.Simplify
module Cse = Kfuse_ir.Cse
module Validate = Kfuse_ir.Validate
module Fingerprint = Kfuse_cache.Fingerprint
module Faults = Kfuse_util.Faults

let config = F.Config.default

let with_temp_dir = Support.with_temp_dir

(* ---- generator ---- *)

let test_seed_determinism () =
  for i = 0 to 9 do
    let a = Fz.Gen.case ~seed:5 i and b = Fz.Gen.case ~seed:5 i in
    Alcotest.(check string)
      (Printf.sprintf "case %d replays bit-identically" i)
      (Fingerprint.exact a) (Fingerprint.exact b)
  done

let test_seeds_differ () =
  let differs =
    List.exists
      (fun i ->
        Fingerprint.exact (Fz.Gen.case ~seed:1 i)
        <> Fingerprint.exact (Fz.Gen.case ~seed:2 i))
      [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "different seeds generate different pipelines" true differs

let test_generated_validate () =
  for i = 0 to 19 do
    let p = Fz.Gen.case ~seed:11 i in
    Alcotest.(check int)
      (Printf.sprintf "case %d passes Validate.pipeline" i)
      0
      (List.length (Validate.pipeline p))
  done

(* unparse-then-parse is the identity on the normal form: [normalize]
   resolves what the DSL cannot spell apart (zero-offset borders,
   negated literals), and on its image the round-trip is exact. *)
let test_generated_roundtrip () =
  for i = 0 to 19 do
    let p = Fz.Gen.case ~seed:13 i in
    let norm = Fz.Corpus.normalize p in
    match Kfuse_dsl.Unparse.pipeline norm with
    | Error e -> Alcotest.failf "case %d has no DSL rendering: %s" i e
    | Ok text -> (
      match Kfuse_dsl.Elaborate.parse_pipeline text with
      | Error e -> Alcotest.failf "case %d does not parse back: %s" i e
      | Ok reloaded ->
        Alcotest.(check string)
          (Printf.sprintf "case %d round-trips to its normal form" i)
          (Fingerprint.exact norm) (Fingerprint.exact reloaded))
  done

let test_max_kernels_respected () =
  for i = 0 to 9 do
    let p = Fz.Gen.case ~max_kernels:4 ~seed:3 i in
    let n = Pipeline.num_kernels p in
    Alcotest.(check bool)
      (Printf.sprintf "case %d has 2..4 kernels (got %d)" i n)
      true
      (n >= 2 && n <= 4)
  done

(* Every name a pipeline declares or binds: inputs, parameters,
   kernels and let variables. *)
let declared_names (p : Pipeline.t) =
  let rec lets e =
    match e with
    | Expr.Let { var; value; body } -> (var :: lets value) @ lets body
    | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ -> []
    | Expr.Unop (_, a) | Expr.Shift { body = a; _ } -> lets a
    | Expr.Binop (_, a, b) -> lets a @ lets b
    | Expr.Select { lhs; rhs; if_true; if_false; _ } ->
      List.concat_map lets [ lhs; rhs; if_true; if_false ]
  in
  let kernels = Array.to_list p.Pipeline.kernels in
  ( p.Pipeline.inputs,
    List.map fst p.Pipeline.params,
    List.map (fun (k : Kernel.t) -> k.Kernel.name) kernels,
    List.sort_uniq compare
      (List.concat_map
         (fun (k : Kernel.t) ->
           lets (match k.Kernel.op with Kernel.Map e -> e | Kernel.Reduce { arg; _ } -> arg))
         kernels) )

let plain_name n =
  let numbered prefix =
    String.starts_with ~prefix n
    && String.length n > String.length prefix
    && String.for_all
         (fun c -> c >= '0' && c <= '9')
         (String.sub n (String.length prefix) (String.length n - String.length prefix))
  in
  List.exists numbered [ "in"; "p"; "k"; "prev" ] || n = "t0" || n = "frame"

(* About a third of the cases draw hostile names: C keywords, libc and
   generator names, and lookalikes of the case's own names, among them
   a kernel [k] beside a kernel [k_halo].  None is a DSL keyword. *)
let test_hostile_names () =
  let cases = List.init 60 (Fz.Gen.case ~seed:7) in
  let hostile =
    List.filter
      (fun p ->
        let i, ps, ks, ls = declared_names p in
        not (List.for_all plain_name (i @ ps @ ks @ ls)))
      cases
  in
  Alcotest.(check bool)
    (Printf.sprintf "a fraction of cases is hostile (%d of 60)" (List.length hostile))
    true
    (List.length hostile >= 10 && List.length hostile <= 40);
  let some what pred =
    Alcotest.(check bool) what true (List.exists pred hostile)
  in
  let kernels p = let _, _, ks, _ = declared_names p in ks in
  let keywords = [ "const"; "int"; "if"; "for"; "while"; "static" ] in
  some "a kernel named after a C keyword" (fun p ->
      List.exists (fun k -> List.mem k keywords) (kernels p));
  some "a kernel k beside a kernel k_halo" (fun p ->
      List.exists (fun k -> List.mem (k ^ "_halo") (kernels p)) (kernels p));
  some "a kernel named p_<param>" (fun p ->
      List.exists (fun (n, _) -> List.mem ("p_" ^ n) (kernels p)) p.Pipeline.params);
  List.iter
    (fun p ->
      let i, ps, ks, _ = declared_names p in
      let all = i @ ps @ ks in
      Alcotest.(check int) "names are distinct" (List.length all)
        (List.length (List.sort_uniq compare all));
      List.iter
        (fun n ->
          if List.mem n Kfuse_dsl.Unparse.reserved then
            Alcotest.failf "%s: DSL keyword %S drawn as a name" p.Pipeline.name n)
        all)
    hostile

(* ---- oracle bank ---- *)

let test_oracle_bank_clean () =
  for i = 0 to 9 do
    let p = Fz.Gen.case ~seed:17 i in
    match (Fz.Oracle.check config p).Fz.Oracle.failure with
    | None -> ()
    | Some { oracle; detail } ->
      Alcotest.failf "case %d fails %s: %s" i (Fz.Oracle.name_to_string oracle) detail
  done

let test_oracle_names_roundtrip () =
  List.iter
    (fun o ->
      match Fz.Oracle.name_of_string (Fz.Oracle.name_to_string o) with
      | Some o' when o' = o -> ()
      | _ -> Alcotest.failf "oracle name %s does not round-trip" (Fz.Oracle.name_to_string o))
    Fz.Oracle.all

(* ---- shrinker ---- *)

(* Shrink against an artificial predicate: the contract is about the
   output (well-formed, still failing, no larger), not about any real
   engine bug. *)
let test_shrink_well_formed_and_still_failing () =
  let p = Fz.Gen.case ~seed:19 4 in
  let still_fails q = Pipeline.num_kernels q >= 2 in
  let shrunk = Fz.Shrink.run ~still_fails p in
  Alcotest.(check bool) "shrunk pipeline still fails" true (still_fails shrunk);
  Alcotest.(check int) "shrunk pipeline validates" 0
    (List.length (Validate.pipeline shrunk));
  Alcotest.(check bool) "shrinking never grows the pipeline" true
    (Pipeline.num_kernels shrunk <= Pipeline.num_kernels p);
  (* num_kernels >= 2 is satisfiable by a 2-kernel pipeline, and the
     kernel-dropping moves can always reach one. *)
  Alcotest.(check int) "kernel-count predicate shrinks to the minimum" 2
    (Pipeline.num_kernels shrunk)

let test_shrink_identity_when_minimal () =
  let p = Fz.Gen.case ~seed:19 0 in
  let shrunk = Fz.Shrink.run ~still_fails:(fun _ -> true) p in
  (* Everything "fails", so shrinking bottoms out at some valid pipeline;
     it must still be well-formed and no larger. *)
  Alcotest.(check int) "result validates" 0 (List.length (Validate.pipeline shrunk));
  Alcotest.(check bool) "no growth" true
    (Pipeline.num_kernels shrunk <= Pipeline.num_kernels p)

(* Shrinking drops and rewires, but never renames: every name the
   shrunk pipeline declares or binds is one the original gave the same
   role, so a hostile name that triggers a failure survives into the
   reproducer. *)
let test_shrink_keeps_names () =
  let hostile =
    List.filter
      (fun p ->
        let _, _, ks, _ = declared_names p in
        not (List.for_all plain_name ks))
      (List.init 30 (Fz.Gen.case ~seed:7))
  in
  Alcotest.(check bool) "some cases have hostile kernel names" true (hostile <> []);
  List.iter
    (fun p ->
      let _, _, ks, _ = declared_names p in
      let odd = List.filter (fun k -> not (plain_name k)) ks in
      let still_fails q =
        let _, _, ks', _ = declared_names q in
        List.exists (fun k -> List.mem k odd) ks'
      in
      let shrunk = Fz.Shrink.run ~still_fails p in
      let i, ps, ks, ls = declared_names p and i', ps', ks', ls' = declared_names shrunk in
      List.iter
        (fun (role, before, after) ->
          List.iter
            (fun n ->
              if not (List.mem n before) then
                Alcotest.failf "%s: shrinking introduced %s %S" p.Pipeline.name role n)
            after)
        [ ("input", i, i'); ("param", ps, ps'); ("kernel", ks, ks'); ("let variable", ls, ls') ];
      Alcotest.(check bool) "a hostile kernel name survives" true (still_fails shrunk))
    hostile

(* ---- corpus ---- *)

let test_corpus_roundtrip () =
  with_temp_dir @@ fun dir ->
  let p = Fz.Gen.case ~seed:23 1 in
  (match Fz.Corpus.save ~dir ~seed:23 ~index:1 ~oracle:"legality" ~detail:"test entry" p with
  | Error e -> Alcotest.failf "save failed: %s" e
  | Ok path -> Alcotest.(check bool) "saved file exists" true (Sys.file_exists path));
  let entries, errors = Fz.Corpus.load_dir dir in
  Alcotest.(check int) "no unreadable entries" 0 (List.length errors);
  match entries with
  | [ e ] ->
    Alcotest.(check (option int)) "seed recorded" (Some 23) e.Fz.Corpus.seed;
    Alcotest.(check (option int)) "index recorded" (Some 1) e.Fz.Corpus.index;
    Alcotest.(check (option string)) "oracle recorded" (Some "legality") e.Fz.Corpus.oracle;
    Alcotest.(check (option string)) "detail recorded" (Some "test entry") e.Fz.Corpus.detail;
    Alcotest.(check string) "pipeline round-trips through disk"
      (Fingerprint.exact (Fz.Corpus.normalize p))
      (Fingerprint.exact e.Fz.Corpus.pipeline)
  | es -> Alcotest.failf "expected exactly one corpus entry, got %d" (List.length es)

let test_corpus_save_idempotent () =
  with_temp_dir @@ fun dir ->
  let p = Fz.Gen.case ~seed:23 2 in
  let save () = Fz.Corpus.save ~dir ~oracle:"legality" ~detail:"d" p in
  (match (save (), save ()) with
  | Ok a, Ok b -> Alcotest.(check string) "same path twice" a b
  | _ -> Alcotest.fail "save failed");
  let entries, _ = Fz.Corpus.load_dir dir in
  Alcotest.(check int) "still one entry" 1 (List.length entries)

let test_runner_replays_corpus () =
  with_temp_dir @@ fun cache_dir ->
  with_temp_dir @@ fun dir ->
  let p = Fz.Gen.case ~seed:29 0 in
  (match Fz.Corpus.save ~dir ~oracle:"legality" ~detail:"seeded entry" p with
  | Error e -> Alcotest.failf "save failed: %s" e
  | Ok _ -> ());
  let summary =
    Fz.Runner.run
      {
        Fz.Runner.default_options with
        Fz.Runner.cases = 0;
        corpus = Some dir;
        cache_dir = Some cache_dir;
      }
  in
  Alcotest.(check int) "one corpus replay" 1 summary.Fz.Runner.corpus_replayed;
  Alcotest.(check int) "no generated cases" 0 summary.Fz.Runner.cases_run;
  Alcotest.(check bool) "replay of a healthy entry passes" false
    (Fz.Runner.failed summary)

(* A run given no [cache_dir] makes a scratch cache and removes it. *)
let test_runner_removes_its_scratch_cache () =
  let tmp = Support.temp_dir "kfuse-test-fuzz-tmp" in
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name tmp;
  Fun.protect ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      Support.remove_tree tmp)
  @@ fun () ->
  let summary =
    Fz.Runner.run
      {
        Fz.Runner.default_options with
        Fz.Runner.cases = 3;
        seed = 3;
        oracles = Some [ Fz.Oracle.Cache_replay ];
      }
  in
  Alcotest.(check int) "cases run" 3 summary.Fz.Runner.cases_run;
  Alcotest.(check bool) "campaign passes" false (Fz.Runner.failed summary);
  Alcotest.(check (array string)) "no scratch cache left" [||] (Sys.readdir tmp)

(* The incremental-replan oracle's pinned campaign: 200 generated
   cases at seed 7, each edited in bursts and every memoized flush
   compared with a scratch plan. *)
let test_incremental_replan_campaign () =
  with_temp_dir @@ fun cache_dir ->
  let summary =
    Fz.Runner.run
      {
        Fz.Runner.default_options with
        Fz.Runner.cases = 200;
        seed = 7;
        oracles = Some [ Fz.Oracle.Incremental_replan ];
        cache_dir = Some cache_dir;
      }
  in
  Alcotest.(check int) "cases run" 200 summary.Fz.Runner.cases_run;
  List.iter
    (fun (f : Fz.Runner.failure_report) -> Alcotest.failf "%s" f.Fz.Runner.detail)
    summary.Fz.Runner.failures;
  Alcotest.(check bool) "campaign passes" false (Fz.Runner.failed summary)

(* ---- the seeded-bug acceptance check ---- *)

(* With the min-cut legality check corrupted via fault injection, the
   campaign must catch the illegality and shrink it to a tiny
   reproducer.  This is the end-to-end proof that the fuzzer detects a
   real engine bug rather than merely running. *)
let test_fault_armed_campaign_catches_legality_bug () =
  with_temp_dir @@ fun cache_dir ->
  Faults.with_spec "cut.block_legal/1" @@ fun () ->
  let summary =
    Fz.Runner.run
      {
        Fz.Runner.default_options with
        Fz.Runner.cases = 5;
        seed = 7;
        max_failures = 1;
        cache_dir = Some cache_dir;
      }
  in
  match summary.Fz.Runner.failures with
  | [] -> Alcotest.fail "seeded legality bug was not caught"
  | f :: _ ->
    Alcotest.(check string) "caught by the legality oracle" "legality"
      (Fz.Oracle.name_to_string f.Fz.Runner.oracle);
    let shrunk =
      match f.Fz.Runner.shrunk with
      | Some q -> q
      | None -> Alcotest.fail "failure was not shrunk"
    in
    let n = Pipeline.num_kernels shrunk in
    Alcotest.(check bool)
      (Printf.sprintf "shrunk to <= 4 kernels (got %d)" n)
      true (n <= 4);
    Alcotest.(check bool) "shrunk reproducer still fails under the fault" true
      ((Fz.Oracle.check ~which:[ Fz.Oracle.Legality ] config shrunk).Fz.Oracle.failure
      <> None)

(* ---- pinned reproducers for fuzzer-found engine bugs ---- *)

(* Found by the unparse-roundtrip oracle: "(-1.5)" used to elaborate to
   [Neg (Const 1.5)], so a pipeline containing [Const (-1.5)] came back
   structurally different. *)
let test_pinned_negative_literal_roundtrip () =
  let k = Kernel.map ~name:"k0" ~inputs:[] (Expr.const (-1.5)) in
  let p =
    Pipeline.create ~name:"pin_neg" ~width:7 ~height:7 ~channels:1 ~params:[]
      ~inputs:[ "in0" ] [ k ]
  in
  match Kfuse_dsl.Unparse.pipeline p with
  | Error e -> Alcotest.failf "no DSL rendering: %s" e
  | Ok text -> (
    match Kfuse_dsl.Elaborate.parse_pipeline text with
    | Error e -> Alcotest.failf "does not parse back: %s" e
    | Ok reloaded ->
      Alcotest.(check string) "negative literal round-trips exactly"
        (Fingerprint.exact (Fz.Corpus.normalize p))
        (Fingerprint.exact reloaded))

(* Found by the meta-duplicate oracle: wrapping a body in an equal-branch
   select changed the structural fingerprint, through two distinct holes:
   canonical kernel ranks were computed pre-normalization, and CSE's
   let-binding order depended on the image names in scope. *)
let test_pinned_equal_branch_select_fingerprint () =
  let k2 = Kernel.map ~name:"k2" ~inputs:[] (Expr.const 0.25) in
  let k3 =
    Kernel.map ~name:"k3" ~inputs:[ "in0"; "k2" ]
      Expr.(input "in0" + input "in0" + sqrt (abs (input "k2")))
  in
  let k5 =
    Kernel.map ~name:"k5" ~inputs:[ "k2"; "k3" ]
      (Expr.select Expr.Lt (Expr.input "k2") (Expr.const (-0.25)) (Expr.input "k2")
         Expr.(max (input "k3" + const 2.0) (neg (input "k3"))))
  in
  let p =
    Pipeline.create ~name:"pin_sel" ~width:7 ~height:7 ~channels:1 ~params:[]
      ~inputs:[ "in0" ] [ k2; k3; k5 ]
  in
  let wrapped_body =
    let body = Kernel.body k2 in
    Expr.select Expr.Lt (Expr.const 0.0) (Expr.const 1.0) body body
  in
  let k2w = Kernel.map ~name:"k2" ~inputs:[] wrapped_body in
  let pw = Pipeline.with_kernels p [ k2w; k3; k5 ] in
  Alcotest.(check string) "equal-branch select leaves the structural fingerprint"
    (Fingerprint.structural p) (Fingerprint.structural pw)

(* Found by the eval-exact oracle: simplifying [0 * k0] erased the last
   read of [k0], which then had no consumers and silently joined the
   output set. *)
let test_pinned_simplify_preserves_outputs () =
  let k0 = Kernel.map ~name:"k0" ~inputs:[ "in0" ] (Expr.input "in0") in
  let k2 =
    Kernel.map ~name:"k2" ~inputs:[ "k0"; "in0" ]
      Expr.((const 0.0 * input "k0") + (input "in0" + const 0.5))
  in
  let p =
    Pipeline.create ~name:"pin_dce" ~width:7 ~height:7 ~channels:1 ~params:[]
      ~inputs:[ "in0" ] [ k0; k2 ]
  in
  let outputs (q : Pipeline.t) =
    List.filter_map
      (fun i ->
        if Kfuse_util.Iset.is_empty (Pipeline.consumers q i) then
          Some (Pipeline.kernel q i).Kernel.name
        else None)
      (List.init (Pipeline.num_kernels q) Fun.id)
    |> List.sort String.compare
  in
  let simplified = Simplify.pipeline p in
  Alcotest.(check (list string)) "output set is preserved" (outputs p)
    (outputs simplified);
  Alcotest.(check int) "the dead interior kernel is dropped" 1
    (Pipeline.num_kernels simplified)

(* CSE must bind repeated subtrees in first-occurrence order, not in an
   order derived from image names: structural fingerprinting renames
   kernels to canonical ranks and re-runs CSE, so a name-dependent
   binding order leaks unrelated differences into the fingerprint. *)
let test_pinned_cse_order_name_independent () =
  let body a b =
    Expr.(
      select Lt (input a) (const (-0.25)) (input a)
        (max (input b + const 2.0) (neg (input b))))
  in
  let lets e =
    let rec go acc = function
      | Expr.Let { value; body; _ } -> go (value :: acc) body
      | _ -> List.rev acc
    in
    go [] (Cse.expr e)
  in
  (* The scrutinee is the first repeated read in traversal order, so it
     is bound first (innermost); the max operand wraps it.  The order
     must be the same whatever the images are called. *)
  Alcotest.(check (list Helpers.expr)) "binding order for images (a, z)"
    [ Expr.input "z"; Expr.input "a" ]
    (lets (body "a" "z"));
  Alcotest.(check (list Helpers.expr)) "binding order for images (z, a)"
    [ Expr.input "a"; Expr.input "z" ]
    (lets (body "z" "a"))

let suite =
  [
    Alcotest.test_case "generator: same seed, same pipeline" `Quick test_seed_determinism;
    Alcotest.test_case "generator: seeds differentiate" `Quick test_seeds_differ;
    Alcotest.test_case "generator: output validates" `Quick test_generated_validate;
    Alcotest.test_case "generator: DSL round-trip" `Quick test_generated_roundtrip;
    Alcotest.test_case "generator: max_kernels bound" `Quick test_max_kernels_respected;
    Alcotest.test_case "generator: hostile names, DSL-safe" `Quick test_hostile_names;
    Alcotest.test_case "oracle bank: clean on generated cases" `Slow test_oracle_bank_clean;
    Alcotest.test_case "oracle names round-trip" `Quick test_oracle_names_roundtrip;
    Alcotest.test_case "shrinker: well-formed, still failing, minimal" `Quick
      test_shrink_well_formed_and_still_failing;
    Alcotest.test_case "shrinker: no growth on trivial predicate" `Quick
      test_shrink_identity_when_minimal;
    Alcotest.test_case "shrinker: keeps every name" `Quick test_shrink_keeps_names;
    Alcotest.test_case "corpus: disk round-trip with provenance" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus: save is idempotent" `Quick test_corpus_save_idempotent;
    Alcotest.test_case "runner: corpus replays before generation" `Quick
      test_runner_replays_corpus;
    Alcotest.test_case "runner: removes the scratch cache it made" `Quick
      test_runner_removes_its_scratch_cache;
    Alcotest.test_case "incremental-replan campaign: 200 cases at seed 7" `Slow
      test_incremental_replan_campaign;
    Alcotest.test_case "fault-armed campaign catches the seeded bug" `Slow
      test_fault_armed_campaign_catches_legality_bug;
    Alcotest.test_case "pinned: negative literal round-trip" `Quick
      test_pinned_negative_literal_roundtrip;
    Alcotest.test_case "pinned: equal-branch select fingerprint" `Quick
      test_pinned_equal_branch_select_fingerprint;
    Alcotest.test_case "pinned: simplify preserves the output set" `Quick
      test_pinned_simplify_preserves_outputs;
    Alcotest.test_case "pinned: CSE binding order is name-independent" `Quick
      test_pinned_cse_order_name_independent;
  ]
