(* Deterministic fault injection: prove the pool never leaks domains
   when workers die, that the driver degrades to the baseline
   partition when a search stage faults or overruns its budget, and that
   strict mode restores fail-fast.  All faults are armed through
   [Faults.with_spec], so the registry is clean again after each test
   regardless of outcome. *)

module Faults = Kfuse_util.Faults
module Pool = Kfuse_util.Pool
module Diag = Kfuse_util.Diag
module F = Kfuse_fusion
module Ir = Kfuse_ir
module Iset = Kfuse_util.Iset

let harris () =
  (Option.get (Kfuse_apps.Registry.find "harris")).Kfuse_apps.Registry.pipeline ()

let is_singletons p partition =
  List.length partition = Ir.Pipeline.num_kernels p
  && List.for_all (fun b -> Iset.cardinal b = 1) partition

let code_of d = Diag.code_id d.Diag.code

(* ---- parser ---- *)

let test_parse_spec () =
  let ok spec expect =
    match Faults.parse_spec spec with
    | Ok clauses -> Alcotest.(check bool) spec true (clauses = expect)
    | Error msg -> Alcotest.failf "%s: unexpected parse error %s" spec msg
  in
  ok "pool.task@3" [ ("pool.task", Faults.Nth 3) ];
  ok "cut.stoer_wagner/2" [ ("cut.stoer_wagner", Faults.Every 2) ];
  ok "sim.sample~0.25:42" [ ("sim.sample", Faults.Prob (0.25, 42)) ];
  ok "driver.strategy" [ ("driver.strategy", Faults.Nth 1) ];
  ok " a@1 , b/2 " [ ("a", Faults.Nth 1); ("b", Faults.Every 2) ];
  let bad spec =
    match Faults.parse_spec spec with
    | Ok _ -> Alcotest.failf "%S should not parse" spec
    | Error _ -> ()
  in
  bad "";
  bad "p@0";
  bad "p@x";
  bad "p/0";
  bad "p~0.5";
  bad "p~1.5:1"

let test_triggers () =
  (* Nth fires exactly once, at the nth hit. *)
  Faults.with_spec "pt@3" (fun () ->
      Faults.hit "pt";
      Faults.hit "pt";
      (match Faults.hit "pt" with
      | () -> Alcotest.fail "third hit should fire"
      | exception Faults.Fault { point; hit } ->
        Alcotest.(check string) "point" "pt" point;
        Alcotest.(check int) "hit" 3 hit);
      Faults.hit "pt";
      Alcotest.(check int) "hits observed" 4 (Faults.hits "pt"));
  Alcotest.(check bool) "cleared" false (Faults.active ());
  (* Every n fires on each multiple. *)
  Faults.with_spec "pt/2" (fun () ->
      let fired = ref 0 in
      for _ = 1 to 6 do
        match Faults.hit "pt" with () -> () | exception Faults.Fault _ -> incr fired
      done;
      Alcotest.(check int) "every-2 over 6 hits" 3 !fired)

let test_prob_determinism () =
  let run () =
    Faults.with_spec "pt~0.5:1234" (fun () ->
        List.init 64 (fun _ ->
            match Faults.hit "pt" with () -> false | exception Faults.Fault _ -> true))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same firing pattern" true (a = b);
  Alcotest.(check bool) "fires sometimes" true (List.mem true a);
  Alcotest.(check bool) "passes sometimes" true (List.mem false a)

(* ---- pool ---- *)

let test_pool_task_fault_no_leak () =
  let before = Pool.live_domains () in
  (match
     Pool.with_pool 4 (fun pool ->
         Faults.with_spec "pool.task@3" (fun () ->
             Pool.run pool ~n:16 (fun _ -> ())))
   with
  | () -> Alcotest.fail "expected the injected worker fault to propagate"
  | exception Faults.Fault { point; _ } ->
    Alcotest.(check string) "fault point" "pool.task" point);
  Alcotest.(check int) "no leaked domains after worker fault" before (Pool.live_domains ())

let test_pool_batch_completes_after_fault () =
  (* Every task of the batch still runs even when one faults: the slots
     of the non-faulting indices are all written. *)
  Pool.with_pool 3 (fun pool ->
      let seen = Array.make 32 false in
      (match
         Faults.with_spec "pool.task@5" (fun () ->
             Pool.run pool ~n:32 (fun i -> seen.(i) <- true))
       with
      | () -> Alcotest.fail "expected fault"
      | exception Faults.Fault _ -> ());
      let ran = Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen in
      Alcotest.(check int) "all but the faulting task ran" 31 ran;
      (* The pool survives the faulting batch. *)
      Pool.run pool ~n:8 (fun _ -> ());
      Alcotest.(check pass) "pool reusable after fault" () ())

(* ---- driver degradation ---- *)

let test_driver_degrades_on_cut_fault () =
  let p = harris () in
  Faults.with_spec "cut.stoer_wagner@1" (fun () ->
      let r = F.Driver.run F.Config.default F.Driver.Mincut p in
      Alcotest.(check bool) "degraded" true r.F.Driver.degraded;
      Alcotest.(check bool) "baseline singletons" true (is_singletons p r.F.Driver.partition);
      match r.F.Driver.warnings with
      | [ d ] ->
        Alcotest.(check string) "fault diagnostic" "KF0901" (code_of d);
        Alcotest.(check bool) "warning severity" false (Diag.is_error d)
      | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws))

let test_driver_strict_fails_fast () =
  let p = harris () in
  Faults.with_spec "cut.stoer_wagner@1" (fun () ->
      match F.Driver.run ~strict:true F.Config.default F.Driver.Mincut p with
      | _ -> Alcotest.fail "strict mode must raise on an injected fault"
      | exception Diag.Fatal d ->
        Alcotest.(check string) "error code" "KF0901" (code_of d);
        Alcotest.(check bool) "error severity" true (Diag.is_error d));
  (* run_result surfaces the same failure as Error. *)
  Faults.with_spec "driver.strategy@1" (fun () ->
      match F.Driver.run_result ~strict:true F.Config.default F.Driver.Greedy p with
      | Error d -> Alcotest.(check string) "run_result error" "KF0901" (code_of d)
      | Ok _ -> Alcotest.fail "expected Error from strict run_result")

let test_driver_budget_degrades () =
  let p = harris () in
  let r = F.Driver.run ~budget_ms:0.0 F.Config.default F.Driver.Mincut p in
  Alcotest.(check bool) "degraded" true r.F.Driver.degraded;
  Alcotest.(check bool) "baseline singletons" true (is_singletons p r.F.Driver.partition);
  (match r.F.Driver.warnings with
  | d :: _ -> Alcotest.(check string) "budget diagnostic" "KF0603" (code_of d)
  | [] -> Alcotest.fail "expected a budget warning");
  (* Without a budget the same run is clean. *)
  let clean = F.Driver.run F.Config.default F.Driver.Mincut p in
  Alcotest.(check bool) "no budget, no degradation" false clean.F.Driver.degraded

let test_driver_fault_parallel_no_leak () =
  (* Degradation with a real pool underneath: the min-cut search faults
     inside worker-driven recursion waves, the driver falls back, and
     every domain is joined on the way out. *)
  let before = Pool.live_domains () in
  let p = harris () in
  Pool.with_pool 4 (fun pool ->
      Faults.with_spec "cut.stoer_wagner@2" (fun () ->
          let r = F.Driver.run ~pool F.Config.default F.Driver.Mincut p in
          Alcotest.(check bool) "degraded" true r.F.Driver.degraded));
  Alcotest.(check int) "no leaked domains" before (Pool.live_domains ())

let test_sim_fault_no_deadlock () =
  let before = Pool.live_domains () in
  let p = harris () in
  (match
     Pool.with_pool 4 (fun pool ->
         Faults.with_spec "sim.sample@7" (fun () ->
             Kfuse_gpu.Sim.measure ~runs:32 ~pool Kfuse_gpu.Device.gtx680
               ~quality:Kfuse_gpu.Perf_model.Optimized ~fused_kernels:[] p))
   with
  | _ -> Alcotest.fail "expected the simulator fault to propagate"
  | exception Faults.Fault { point; _ } ->
    Alcotest.(check string) "fault point" "sim.sample" point);
  Alcotest.(check int) "no leaked domains after sim fault" before (Pool.live_domains ())

let suite =
  [
    Alcotest.test_case "parse_spec" `Quick test_parse_spec;
    Alcotest.test_case "trigger semantics" `Quick test_triggers;
    Alcotest.test_case "Prob is seed-deterministic" `Quick test_prob_determinism;
    Alcotest.test_case "worker fault leaks no domains" `Quick test_pool_task_fault_no_leak;
    Alcotest.test_case "batch completes around a fault" `Quick test_pool_batch_completes_after_fault;
    Alcotest.test_case "driver degrades on cut fault" `Quick test_driver_degrades_on_cut_fault;
    Alcotest.test_case "strict mode fails fast" `Quick test_driver_strict_fails_fast;
    Alcotest.test_case "budget overrun degrades" `Quick test_driver_budget_degrades;
    Alcotest.test_case "parallel degradation, no leak" `Quick test_driver_fault_parallel_no_leak;
    Alcotest.test_case "sim fault: no deadlock, no leak" `Quick test_sim_fault_no_deadlock;
  ]
