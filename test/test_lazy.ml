(* The lazy-fusion frontend and its incremental replanner.

   The load-bearing claim: a flush planned through a session's
   cross-flush memo is BIT-IDENTICAL — partition, recursion trace,
   objective, fused pipeline, plan fingerprint — to planning the same
   pipeline from scratch.  The differential harness drives both
   planners through seeded random edit sequences and asserts equality
   after every flush; directed cases cover the seam-check fallback, the
   edge cases (empty builder, single kernel), rejected edits, and the
   memo actually being exercised (reuse on untouched regions,
   parameter-value changes dirtying nothing). *)

module F = Kfuse_fusion
module Lz = Kfuse_lazy
module Iset = Kfuse_util.Iset
module Rng = Kfuse_util.Rng
module Faults = Kfuse_util.Faults
module Partition = Kfuse_graph.Partition
module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Mask = Kfuse_image.Mask

let config = F.Config.default

let ok what = function
  | Ok v -> v
  | Error d -> Alcotest.failf "%s: %s" what (Format.asprintf "%a" Kfuse_util.Diag.pp d)

let render_steps (p : Pipeline.t) steps =
  List.map (Format.asprintf "%a" (F.Mincut_fusion.pp_step p)) steps

(* Each edge report, an illegal edge's with its reason: a replayed
   reason that names the wrong kernel shows here. *)
let render_edges (p : Pipeline.t) edges =
  List.map
    (fun (r : F.Benefit.edge_report) ->
      let why =
        match r.scenario with
        | F.Benefit.Illegal reason -> "; " ^ F.Legality.reason_to_string p reason
        | _ -> ""
      in
      Format.asprintf "%a%s" F.Benefit.pp_report r why)
    edges

(* Bit-identical across every observable of the plan. *)
let same_plan ~ctx (a : Lz.Replan.plan) (b : Lz.Replan.plan) =
  Alcotest.(check bool)
    (ctx ^ ": partition") true
    (Partition.equal a.partition b.partition);
  Alcotest.(check (list string))
    (ctx ^ ": steps") (render_steps b.pipeline b.steps)
    (render_steps a.pipeline a.steps);
  Alcotest.(check (list string))
    (ctx ^ ": edges") (render_edges b.pipeline b.edges) (render_edges a.pipeline a.edges);
  Alcotest.(check string)
    (ctx ^ ": objective")
    (Printf.sprintf "%h" b.objective)
    (Printf.sprintf "%h" a.objective);
  Alcotest.(check string) (ctx ^ ": fingerprint") b.fingerprint a.fingerprint

let new_builder ?(inputs = [ "in" ]) ?(params = [ ("gain", 1.25) ]) () =
  Lz.Lazy_pipeline.create ~name:"lazy" ~width:64 ~height:48 ~inputs ~params config
  |> Result.get_ok

(* ---- the differential harness ---- *)

(* Each seed drives two builders: one over a single input, and one
   over four, whose DAGs fall apart into several weak components. *)
let test_differential_sequences () =
  List.iter
    (fun (seed, inputs) ->
      let rng = Rng.create seed in
      let lp = new_builder ~inputs () in
      for round = 1 to 6 do
        let edits = Lz.Edits.random_sequence rng lp 5 in
        let ctx = Printf.sprintf "seed %d, %d inputs, round %d (%s)" seed
            (List.length inputs) round
            (String.concat "; " (List.map Lz.Edits.to_string edits))
        in
        let inc = ok (ctx ^ " flush") (Lz.Lazy_pipeline.flush lp) in
        let scr = ok (ctx ^ " scratch") (Lz.Lazy_pipeline.flush_scratch lp) in
        same_plan ~ctx inc scr;
        Alcotest.(check bool)
          (ctx ^ ": incremental flush never falls back") false inc.stats.fell_back
      done)
    (List.concat_map
       (fun seed -> [ (seed, [ "in" ]); (seed, [ "in"; "in2"; "in3"; "in4" ]) ])
       [ 1; 2; 3; 4; 5; 6 ])

(* ---- directed cases ---- *)

let chain ?(prefix = "k") lp ~src n =
  let rec go i src =
    if i > n then ()
    else begin
      let name = Printf.sprintf "%s%d" prefix i in
      let body =
        if i mod 2 = 0 then Expr.conv Mask.gaussian_3x3 src
        else Expr.((input src * const 0.5) + const 1.0)
      in
      ok ("add " ^ name)
        (Lz.Lazy_pipeline.add lp (Kernel.map ~name ~inputs:[ src ] body));
      go (i + 1) name
    end
  in
  go 1 src

let test_reflush_fully_memoized () =
  let lp = new_builder () in
  chain lp ~src:"in" 5;
  let first = ok "flush" (Lz.Lazy_pipeline.flush lp) in
  Alcotest.(check bool) "first flush decides blocks" true
    (first.stats.blocks_replanned > 0);
  let again = ok "reflush" (Lz.Lazy_pipeline.flush lp) in
  same_plan ~ctx:"reflush" again first;
  Alcotest.(check int) "reflush replans nothing" 0 again.stats.blocks_replanned;
  Alcotest.(check bool) "reflush reuses blocks" true (again.stats.blocks_reused > 0)

let test_untouched_component_reused () =
  (* Two disconnected chains; an edit in one must not dirty the other. *)
  let lp = new_builder ~inputs:[ "in"; "in2" ] () in
  chain lp ~prefix:"a" ~src:"in" 4;
  chain lp ~prefix:"b" ~src:"in2" 4;
  let _ = ok "flush" (Lz.Lazy_pipeline.flush lp) in
  ok "edit chain b"
    (Lz.Lazy_pipeline.add lp
       (Kernel.map ~name:"b5" ~inputs:[ "b4" ] (Expr.conv Mask.gaussian_5x5 "b4")));
  let inc = ok "reflush" (Lz.Lazy_pipeline.flush lp) in
  let scr = ok "scratch" (Lz.Lazy_pipeline.flush_scratch lp) in
  same_plan ~ctx:"edit in one component" inc scr;
  Alcotest.(check bool) "untouched chain replayed from memo" true
    (inc.stats.blocks_reused > 0);
  Alcotest.(check bool) "dirty chain replanned" true (inc.stats.blocks_replanned > 0)

let test_param_change_dirties_nothing () =
  let lp = new_builder () in
  chain lp ~src:"in" 4;
  ok "use the param"
    (Lz.Lazy_pipeline.add lp
       (Kernel.map ~name:"scaled" ~inputs:[ "k4" ]
          Expr.((input "k4" * param "gain") + const 0.25)));
  let first = ok "flush" (Lz.Lazy_pipeline.flush lp) in
  ok "param edit" (Lz.Lazy_pipeline.set_param lp "gain" 3.5);
  let second = ok "reflush" (Lz.Lazy_pipeline.flush lp) in
  Alcotest.(check int) "planning is parameter-value independent" 0
    second.stats.blocks_replanned;
  Alcotest.(check bool) "partition unchanged" true
    (Partition.equal first.partition second.partition);
  (* ... but the plan names a different pipeline (new default), so the
     exact-content fingerprint must differ. *)
  Alcotest.(check bool) "plan fingerprint tracks the new default" true
    (first.fingerprint <> second.fingerprint)

let test_empty_and_single () =
  let lp = new_builder () in
  let empty = ok "empty flush" (Lz.Lazy_pipeline.flush lp) in
  Alcotest.(check int) "empty partition" 0 (List.length empty.partition);
  Alcotest.(check int) "empty fused" 0 (Pipeline.num_kernels empty.fused);
  let scr = ok "empty scratch" (Lz.Lazy_pipeline.flush_scratch lp) in
  same_plan ~ctx:"empty" empty scr;
  ok "add one"
    (Lz.Lazy_pipeline.add lp
       (Kernel.map ~name:"only" ~inputs:[ "in" ] (Expr.conv Mask.gaussian_3x3 "in")));
  let one = ok "single flush" (Lz.Lazy_pipeline.flush lp) in
  Alcotest.(check bool) "singleton partition" true
    (Partition.equal one.partition [ Iset.singleton 0 ]);
  same_plan ~ctx:"single" one (ok "single scratch" (Lz.Lazy_pipeline.flush_scratch lp))

let test_rejected_edits_leave_state () =
  let lp = new_builder () in
  chain lp ~src:"in" 3;
  let gen = Lz.Lazy_pipeline.generation lp in
  let reject what = function
    | Ok () -> Alcotest.failf "%s: unexpectedly accepted" what
    | Error (_ : Kfuse_util.Diag.t) -> ()
  in
  (* k1 is consumed by k2: deleting it would dangle *)
  reject "delete consumed" (Lz.Lazy_pipeline.remove lp "k1");
  reject "delete unknown" (Lz.Lazy_pipeline.remove lp "nope");
  (* retargeting k1 to read k3 closes a cycle *)
  reject "cycle retarget" (Lz.Lazy_pipeline.retarget lp ~kernel:"k1" ~from_:"in" ~to_:"k3");
  reject "retarget unknown read"
    (Lz.Lazy_pipeline.retarget lp ~kernel:"k2" ~from_:"in" ~to_:"k1");
  reject "dangling retarget"
    (Lz.Lazy_pipeline.retarget lp ~kernel:"k1" ~from_:"in" ~to_:"ghost");
  reject "duplicate kernel"
    (Lz.Lazy_pipeline.add lp
       (Kernel.map ~name:"k2" ~inputs:[ "in" ] (Expr.input "in")));
  reject "duplicate input" (Lz.Lazy_pipeline.add_input lp "in");
  Alcotest.(check int) "builder unchanged" gen (Lz.Lazy_pipeline.generation lp);
  (* and the state still flushes identically to scratch *)
  same_plan ~ctx:"after rejections"
    (ok "flush" (Lz.Lazy_pipeline.flush lp))
    (ok "scratch" (Lz.Lazy_pipeline.flush_scratch lp))

let test_seam_fault_falls_back () =
  let lp = new_builder () in
  chain lp ~src:"in" 5;
  let _ = ok "warm flush" (Lz.Lazy_pipeline.flush lp) in
  let degraded =
    Faults.with_spec (Lz.Replan.seam_fault ^ "@1") (fun () ->
        ok "faulted flush" (Lz.Lazy_pipeline.flush lp))
  in
  Alcotest.(check bool) "fell back to scratch" true degraded.stats.fell_back;
  Alcotest.(check int) "memo was discarded first" 0 degraded.stats.blocks_reused;
  (* the degraded plan is still the right plan *)
  same_plan ~ctx:"seam fallback" degraded
    (ok "scratch" (Lz.Lazy_pipeline.flush_scratch lp));
  (* and the fallback repopulated the memo: the next flush is clean *)
  let after = ok "flush after fallback" (Lz.Lazy_pipeline.flush lp) in
  Alcotest.(check bool) "recovered" false after.stats.fell_back;
  Alcotest.(check int) "memo repopulated" 0 after.stats.blocks_replanned

let test_seam_legality_edit () =
  (* Directed seam case: a fused chain gains a second consumer of an
     interior kernel (fig. 2c external-output shape) — the dirtied
     region must replan and still match scratch. *)
  let lp = new_builder () in
  chain lp ~src:"in" 4;
  let first = ok "flush" (Lz.Lazy_pipeline.flush lp) in
  ok "tap an interior kernel"
    (Lz.Lazy_pipeline.add lp
       (Kernel.map ~name:"tap" ~inputs:[ "k2" ] (Expr.conv Mask.gaussian_3x3 "k2")));
  let inc = ok "reflush" (Lz.Lazy_pipeline.flush lp) in
  same_plan ~ctx:"external-output edit" inc
    (ok "scratch" (Lz.Lazy_pipeline.flush_scratch lp));
  Alcotest.(check bool) "partition actually changed" false
    (Partition.equal first.partition inc.partition
    && first.pipeline.Pipeline.kernels == inc.pipeline.Pipeline.kernels)

let test_retarget_differential () =
  let lp = new_builder ~inputs:[ "in"; "in2" ] () in
  chain lp ~prefix:"a" ~src:"in" 3;
  chain lp ~prefix:"b" ~src:"in2" 3;
  let _ = ok "flush" (Lz.Lazy_pipeline.flush lp) in
  ok "cross-link the chains"
    (Lz.Lazy_pipeline.retarget lp ~kernel:"b1" ~from_:"in2" ~to_:"a3");
  let inc = ok "reflush" (Lz.Lazy_pipeline.flush lp) in
  same_plan ~ctx:"retarget" inc (ok "scratch" (Lz.Lazy_pipeline.flush_scratch lp));
  ok "revert" (Lz.Lazy_pipeline.retarget lp ~kernel:"b1" ~from_:"a3" ~to_:"in2");
  let reverted = ok "reverted flush" (Lz.Lazy_pipeline.flush lp) in
  Alcotest.(check int) "revert replays everything from memo" 0
    reverted.stats.blocks_replanned

let test_of_pipeline_roundtrip () =
  let p =
    Pipeline.create ~name:"seeded" ~width:32 ~height:32 ~inputs:[ "img" ]
      [
        Kernel.map ~name:"blur" ~inputs:[ "img" ] (Expr.conv Mask.gaussian_3x3 "img");
        Kernel.map ~name:"gain" ~inputs:[ "blur" ] Expr.(input "blur" * const 2.0);
      ]
  in
  let lp = Lz.Lazy_pipeline.of_pipeline config p in
  let plan = ok "flush" (Lz.Lazy_pipeline.flush lp) in
  let direct = ok "scratch" (Lz.Replan.scratch config p) in
  same_plan ~ctx:"of_pipeline" plan direct;
  Alcotest.(check (option string)) "last" (Some plan.fingerprint)
    (Option.map (fun (pl : Lz.Replan.plan) -> pl.Lz.Replan.fingerprint)
       (Lz.Lazy_pipeline.last lp))

(* The 48-kernel replan DAG: 8 disconnected 6-kernel chains, each
   mixing stencils and pointwise kernels so it fuses non-trivially on
   its own, built through the repl command grammar.  Every one of the
   32 single-kernel edits (param, retarget, append, delete on each
   chain) dirties at most one chain, so the other seven must replay
   from the memo, and every incremental flush must equal scratch. *)
let chains_session chains =
  let lp = Lz.Lazy_pipeline.create ~name:"replan" ~width:64 ~height:48 config |> Result.get_ok in
  let exec line =
    ignore
      (ok line (Result.bind (Lz.Command.parse lp line) (Lz.Command.apply lp)))
  in
  for c = 0 to chains - 1 do
    let k j = Printf.sprintf "c%d_%d" c j and inp = Printf.sprintf "in%d" c in
    List.iter exec
      [
        Printf.sprintf "input %s" inp;
        Printf.sprintf "add %s = conv(%s, gauss3, mirror)" (k 0) inp;
        Printf.sprintf "add %s = %s * 2.0" (k 1) (k 0);
        Printf.sprintf "add %s = conv(%s, gauss5, mirror)" (k 2) (k 1);
        Printf.sprintf "add %s = %s + %s" (k 3) (k 2) (k 0);
        Printf.sprintf "add %s = conv(%s, sobelx, mirror)" (k 4) (k 3);
        Printf.sprintf "add %s = %s * 0.5 + %s" (k 5) (k 4) (k 2);
      ]
  done;
  (lp, exec)

let test_chains_edit_round () =
  let chains = 8 in
  let lp, exec = chains_session chains in
  let _ = ok "cold flush" (Lz.Lazy_pipeline.flush lp) in
  let edits =
    List.concat_map
      (fun c ->
        let k j = Printf.sprintf "c%d_%d" c j in
        [
          Printf.sprintf "param gain%d %.1f" c (1.0 +. (0.1 *. float_of_int c));
          Printf.sprintf "retarget %s %s %s" (k 5) (k 2) (k 0);
          Printf.sprintf "add x%d = %s * 1.1" c (k 5);
          Printf.sprintf "del x%d" c;
        ])
      (List.init chains Fun.id)
  in
  Alcotest.(check int) "32 edits" 32 (List.length edits);
  List.iter
    (fun line ->
      exec line;
      let inc = ok (line ^ ": flush") (Lz.Lazy_pipeline.flush lp) in
      let scr = ok (line ^ ": scratch") (Lz.Lazy_pipeline.flush_scratch lp) in
      same_plan ~ctx:line inc scr;
      Alcotest.(check bool) (line ^ ": untouched chains reused") true
        (inc.stats.blocks_reused > 0);
      Alcotest.(check bool) (line ^ ": no fallback") false inc.stats.fell_back)
    edits

(* The same 8 chains are 8 weak components, ordered by smallest vertex.
   An append to the last one gives new keys to the top block, to blocks
   of that chain, and to every union of trailing components the trace
   shows.  The 6 unions of two or more components are never looked up,
   so a flush makes one lookup per step but those 6, and only the top
   block and the chain's own blocks are decided again. *)
let test_last_chain_edit () =
  let lp, exec = chains_session 8 in
  let _ = ok "cold flush" (Lz.Lazy_pipeline.flush lp) in
  exec "add x7 = c7_5 * 1.1";
  let inc = ok "flush" (Lz.Lazy_pipeline.flush lp) in
  same_plan ~ctx:"edit on the last chain" inc
    (ok "scratch" (Lz.Lazy_pipeline.flush_scratch lp));
  let p = inc.pipeline in
  let chain7 =
    Iset.filter
      (fun i ->
        let name = (Pipeline.kernel p i).Kernel.name in
        String.starts_with ~prefix:"c7_" name || String.equal name "x7")
      (Kfuse_graph.Digraph.vertices (Pipeline.dag p))
  in
  let block = function
    | F.Mincut_fusion.Accept b | F.Mincut_fusion.Cut { block = b; _ } -> b
  in
  let own = List.filter (fun s -> Iset.subset (block s) chain7) inc.steps in
  let { Lz.Replan.blocks_reused; blocks_replanned; _ } = inc.stats in
  Alcotest.(check int) "one lookup per step but the 6 trailing unions"
    (List.length inc.steps - 6) (blocks_reused + blocks_replanned);
  Alcotest.(check bool)
    (Printf.sprintf "%d replanned: the top block and chain 7's own (%d blocks)"
       blocks_replanned (List.length own))
    true
    (blocks_replanned >= 2 && blocks_replanned <= 1 + List.length own)

(* A pinned trace of a DAG of four weak components, one holding a
   global kernel: each union of trailing components is cut with the
   reason a legality check gives it.  Pinned before components were
   split in one step; planned from scratch and replayed from a
   session's memo. *)
let four_components () =
  Pipeline.create ~name:"four" ~width:64 ~height:48 ~inputs:[ "a"; "b"; "c"; "d" ]
    [
      Kernel.map ~name:"a1" ~inputs:[ "a" ] (Expr.conv Mask.gaussian_3x3 "a");
      Kernel.map ~name:"b1" ~inputs:[ "b" ] (Expr.conv Mask.gaussian_5x5 "b");
      Kernel.map ~name:"c1" ~inputs:[ "c" ] Expr.(input "c" * const 2.0);
      Kernel.map ~name:"d1" ~inputs:[ "d" ] (Expr.conv Mask.sobel_x "d");
      Kernel.map ~name:"a2" ~inputs:[ "a1" ] Expr.((input "a1" * const 0.5) + const 1.0);
      Kernel.reduce ~name:"b2" ~inputs:[ "b1" ] ~init:0.0 ~combine:Expr.Add (Expr.input "b1");
      Kernel.map ~name:"c2" ~inputs:[ "c1" ] (Expr.conv Mask.gaussian_3x3 "c1");
      Kernel.map ~name:"c3" ~inputs:[ "c2"; "c1" ] Expr.(input "c2" + input "c1");
    ]

let four_components_trace =
  [
    "cut {a1, b1, c1, d1, a2, b2, c2, c3} (w=0.000; global kernel b2 cannot be fused) -> \
     {a1, a2} | {b1, c1, d1, b2, c2, c3}";
    "accept {a1, a2}";
    "cut {b1, c1, d1, b2, c2, c3} (w=0.000; global kernel b2 cannot be fused) -> {b1, b2} | \
     {c1, d1, c2, c3}";
    "cut {b1, b2} (w=0.001; global kernel b2 cannot be fused) -> {b2} | {b1}";
    "accept {b2}";
    "accept {b1}";
    "cut {c1, d1, c2, c3} (w=0.000; block is not connected) -> {c1, c2, c3} | {d1}";
    "accept {c1, c2, c3}";
    "accept {d1}";
  ]

let test_four_components_trace () =
  let p = four_components () in
  let r = F.Mincut_fusion.run config p in
  Alcotest.(check (list string))
    "scratch trace" four_components_trace (render_steps p r.steps);
  let lp = Lz.Lazy_pipeline.of_pipeline config p in
  let _ = ok "flush" (Lz.Lazy_pipeline.flush lp) in
  let again = ok "reflush" (Lz.Lazy_pipeline.flush lp) in
  Alcotest.(check (list string))
    "trace replayed from the memo" four_components_trace
    (render_steps again.pipeline again.steps);
  Alcotest.(check int) "every block but the 2 trailing unions looked up and reused" 7
    again.stats.blocks_reused

(* ---- the session's memos ---- *)

module Fingerprint = Kfuse_cache.Fingerprint

(* One random edit of every kind the frontend has: the four of
   [Edits.random] (add, del, retarget, param), and, one time in five
   unless [inputs] is false, a fresh input declaration.  Past
   [max_kernels] appends are redrawn, so a long session's DAG stays
   small and each flush cheap, while the appends' random bodies keep
   making blocks the memo has not seen. *)
let random_edit ?(inputs = true) ?(max_kernels = 12) rng lp i =
  let rec edit tries =
    match Lz.Edits.random rng lp with
    | Some (Lz.Edits.Append _)
      when tries > 0 && List.length (Lz.Lazy_pipeline.kernels lp) >= max_kernels ->
      edit (tries - 1)
    | e -> Option.iter (fun e -> ignore (Lz.Edits.apply lp e)) e
  in
  if inputs && Rng.int rng 5 = 0 then
    ignore (Lz.Lazy_pipeline.add_input lp (Printf.sprintf "qin%d" i))
  else edit 20

(* [(seed, index)] names a [Fuzz.Gen.case] pipeline, [edits] seeds the
   edit stream. *)
let memo_case_gen =
  QCheck2.Gen.(triple (int_bound 1_000) (int_bound 1_000) (int_bound 1_000_000))

let print_memo_case (seed, index, edits) =
  Printf.sprintf "Gen.case seed %d index %d, edits seeded %d" seed index edits

(* Drive a session through 12 random edits, calling [check] after every
   flush with the flushed plan. *)
let edit_session (seed, index, edits) check =
  let p = Kfuse_fuzz.Gen.case ~max_kernels:8 ~seed index in
  let lp = Lz.Lazy_pipeline.of_pipeline config p in
  let rng = Rng.create edits in
  let rec go i =
    i > 12
    || begin
      random_edit rng lp i;
      match Lz.Lazy_pipeline.flush lp with
      | Error d -> QCheck2.Test.fail_reportf "flush %d: %s" i (Kfuse_util.Diag.to_string d)
      | Ok plan -> check lp plan && go (i + 1)
    end
  in
  go 0

(* The per-kernel memos return what the fingerprints compute directly:
   content hashes and exact text of the flushed pipeline and of its
   fused pipeline.  A memo keyed by kernel name alone, or one that
   ignores the producers' references, fails here after a retarget. *)
let prop_memos_match_fingerprints =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"session memos equal direct fingerprints"
       ~print:print_memo_case memo_case_gen (fun case ->
         edit_session case (fun lp (plan : Lz.Replan.plan) ->
             let session = Lz.Lazy_pipeline.session lp in
             Lz.Replan.kernel_hashes session plan.pipeline
             = Fingerprint.kernel_hashes plan.pipeline
             && String.equal
                  (Lz.Replan.exact session plan.pipeline)
                  (Fingerprint.exact plan.pipeline)
             && String.equal (Lz.Replan.exact session plan.fused)
                  (Fingerprint.exact plan.fused))))

(* Every memoized flush equals a scratch plan: fingerprint, partition,
   objective and the fused pipeline's exact text.  A fused-kernel reuse
   that does not compare the block's members fails here. *)
let prop_memoized_flush_is_scratch =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"memoized flush equals scratch"
       ~print:print_memo_case memo_case_gen (fun case ->
         edit_session case (fun lp (plan : Lz.Replan.plan) ->
             match Lz.Lazy_pipeline.flush_scratch lp with
             | Error d -> QCheck2.Test.fail_reportf "scratch: %s" (Kfuse_util.Diag.to_string d)
             | Ok scr ->
               String.equal plan.fingerprint scr.fingerprint
               && Partition.equal plan.partition scr.partition
               && Printf.sprintf "%h" plan.objective = Printf.sprintf "%h" scr.objective
               && String.equal (Fingerprint.exact plan.fused) (Fingerprint.exact scr.fused))))

(* A long session's decision memo stays under its cap: 2,000 random
   edits of one small DAG reach it (near edit 1,420), each flushed,
   every tenth checked against scratch.  The edits declare no inputs:
   those split the DAG into components, and a disconnected block is
   one memo entry, so such a session makes too few new decisions to
   reach the cap. *)
let test_long_session_bounded () =
  let lp = Lz.Lazy_pipeline.of_pipeline config (Kfuse_fuzz.Gen.case ~max_kernels:8 ~seed:7 3) in
  let rng = Rng.create 11 in
  let peak = ref 0 in
  for i = 1 to 2_000 do
    random_edit ~inputs:false ~max_kernels:16 rng lp i;
    let ctx = Printf.sprintf "edit %d" i in
    let inc = ok (ctx ^ ": flush") (Lz.Lazy_pipeline.flush lp) in
    if i mod 10 = 0 then
      same_plan ~ctx inc (ok (ctx ^ ": scratch") (Lz.Lazy_pipeline.flush_scratch lp));
    let decisions, edges = Lz.Replan.memo_size (Lz.Lazy_pipeline.session lp) in
    peak := max !peak decisions;
    if decisions > Lz.Replan.memo_capacity || edges > Lz.Replan.memo_capacity then
      Alcotest.failf "%s: memo holds %d decisions and %d edges, over %d" ctx decisions edges
        Lz.Replan.memo_capacity
  done;
  Alcotest.(check int) "the session reached the cap" Lz.Replan.memo_capacity !peak

let suite =
  [
    Alcotest.test_case "differential: seeded edit sequences" `Slow
      test_differential_sequences;
    Alcotest.test_case "reflush is fully memoized" `Quick test_reflush_fully_memoized;
    Alcotest.test_case "untouched component reused" `Quick
      test_untouched_component_reused;
    Alcotest.test_case "param change dirties nothing" `Quick
      test_param_change_dirties_nothing;
    Alcotest.test_case "empty and single-kernel flush" `Quick test_empty_and_single;
    Alcotest.test_case "rejected edits leave the builder" `Quick
      test_rejected_edits_leave_state;
    Alcotest.test_case "seam fault falls back to scratch" `Quick
      test_seam_fault_falls_back;
    Alcotest.test_case "external-output edit replans the seam" `Quick
      test_seam_legality_edit;
    Alcotest.test_case "retarget differential and revert" `Quick
      test_retarget_differential;
    Alcotest.test_case "of_pipeline roundtrip" `Quick test_of_pipeline_roundtrip;
    Alcotest.test_case "48-kernel DAG: 32 edits equal scratch" `Slow
      test_chains_edit_round;
    Alcotest.test_case "48-kernel DAG: an edit on the last chain" `Quick
      test_last_chain_edit;
    Alcotest.test_case "four components: pinned trace" `Quick test_four_components_trace;
    prop_memos_match_fingerprints;
    prop_memoized_flush_is_scratch;
    Alcotest.test_case "a 2,000-edit session stays under the memo cap" `Slow
      test_long_session_bounded;
  ]
