(* The domain pool and the determinism contract of every parallel code
   path: for any pool size, Benefit.all_edges, Mincut_fusion.run,
   Driver.run and Sim.measure must produce bit-identical results to the
   serial run. *)

module Pool = Kfuse_util.Pool
module F = Kfuse_fusion
module G = Kfuse_gpu
module Partition = Kfuse_graph.Partition
module Pipeline = Kfuse_ir.Pipeline

let config = F.Config.default

(* Pool sizes the qcheck properties sweep, per the issue: -j 1, 2, 8. *)
let sizes = [ 1; 2; 8 ]

let with_each_size f = List.iter (fun n -> Pool.with_pool n (f n)) sizes

(* ---- pool unit tests ---- *)

let test_map_matches_serial () =
  let input = Array.init 1000 (fun i -> i) in
  let f x = (x * x) - (3 * x) in
  let expected = Array.map f input in
  with_each_size (fun n pool ->
      Alcotest.(check (array int))
        (Printf.sprintf "map_array at size %d" n)
        expected (Pool.map_array pool f input);
      Alcotest.(check (list int))
        (Printf.sprintf "map_list at size %d" n)
        (Array.to_list expected)
        (Pool.map_list pool f (Array.to_list input)))

let test_init_and_run () =
  with_each_size (fun n pool ->
      Alcotest.(check (array int))
        (Printf.sprintf "init at size %d" n)
        (Array.init 257 (fun i -> 2 * i))
        (Pool.init pool 257 (fun i -> 2 * i));
      let hits = Array.make 100 0 in
      Pool.run pool ~chunk:7 ~n:100 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool)
        (Printf.sprintf "each index ran once at size %d" n)
        true
        (Array.for_all (fun c -> c = 1) hits))

let test_empty_and_size () =
  Pool.with_pool 4 (fun pool ->
      Alcotest.(check int) "size" 4 (Pool.size pool);
      Alcotest.(check int) "serial size" 1 (Pool.size Pool.serial);
      Pool.run pool ~n:0 (fun _ -> Alcotest.fail "no task expected");
      Alcotest.(check (array int)) "empty map" [||] (Pool.map_array pool (fun x -> x) [||]))

exception Boom of int

let test_exception_propagates () =
  (* A failing task must re-raise in the submitter — lowest failing
     index, deterministically — and must not deadlock or poison the
     pool for later batches. *)
  with_each_size (fun n pool ->
      let saw =
        try
          Pool.run pool ~n:50 (fun i -> if i mod 10 = 3 then raise (Boom i));
          None
        with Boom i -> Some i
      in
      Alcotest.(check (option int))
        (Printf.sprintf "lowest failing index at size %d" n)
        (Some 3) saw;
      (* The pool still works after the failed batch. *)
      Alcotest.(check (array int))
        (Printf.sprintf "pool alive after exception at size %d" n)
        (Array.init 20 succ)
        (Pool.init pool 20 succ))

let test_nested_run_degrades () =
  (* A task that re-enters the pool must run its inner batch serially
     instead of deadlocking. *)
  Pool.with_pool 2 (fun pool ->
      let out = Array.make 4 0 in
      Pool.run pool ~n:4 (fun i ->
          Pool.run pool ~n:1 (fun _ -> out.(i) <- i + 1));
      Alcotest.(check (array int)) "nested result" [| 1; 2; 3; 4 |] out)

let test_shutdown_idempotent () =
  let pool = Pool.create 3 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* Post-shutdown batches run serially. *)
  Alcotest.(check (array int)) "after shutdown" [| 0; 1; 2 |] (Pool.init pool 3 Fun.id);
  Pool.shutdown Pool.serial

let test_create_invalid () =
  Helpers.expect_invalid "zero size" (fun () -> Pool.create 0)

let test_deferred_spawn () =
  (* A pool spawns its workers at the first batch with two chunks, and
     shutdown joins them. *)
  let before = Pool.live_domains () in
  Pool.with_pool 3 (fun pool ->
      Alcotest.(check int) "size" 3 (Pool.size pool);
      Alcotest.(check int) "nothing spawned by create" before (Pool.live_domains ());
      Pool.run pool ~n:1 ignore;
      Pool.run pool ~chunk:8 ~n:8 ignore;
      Alcotest.(check int) "single chunks spawn nothing" before (Pool.live_domains ());
      Alcotest.(check (array int)) "first parallel batch" (Array.init 64 succ)
        (Pool.init pool 64 succ);
      Alcotest.(check int) "spawned at the first parallel batch" (before + 2)
        (Pool.live_domains ()));
  Alcotest.(check int) "joined at shutdown" before (Pool.live_domains ());
  (* Shut down before any parallel batch: nothing was spawned, and later
     batches run serially. *)
  let pool = Pool.create 3 in
  Pool.shutdown pool;
  Alcotest.(check (array int)) "after shutdown" (Array.init 16 succ) (Pool.init pool 16 succ);
  Alcotest.(check int) "never spawned" before (Pool.live_domains ())

let test_deferred_spawn_fault () =
  (* A spawn that fails degrades the batch instead of failing it: the
     results are whole and no domain leaks. *)
  let before = Pool.live_domains () in
  Pool.with_pool 4 (fun pool ->
      Alcotest.(check (array int)) "batch completes" (Array.init 64 succ)
        (Kfuse_util.Faults.with_spec "pool.spawn@2" (fun () -> Pool.init pool 64 succ));
      Alcotest.(check int) "one worker before the fault" (before + 1) (Pool.live_domains ()));
  Alcotest.(check int) "no leaked domains" before (Pool.live_domains ())

(* ---- determinism properties (qcheck, random pipelines) ---- *)

(* Same generator family as test_properties: chains of point kernels,
   shared reads, and 3x3 convolutions. *)
let pipeline_gen =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* seeds = list_repeat n (pair (int_range 0 2) (int_range 0 100)) in
    let kernels = ref [] in
    let names = ref [ "in" ] in
    List.iteri
      (fun i (kind, pick) ->
        let open Kfuse_ir in
        let name = Printf.sprintf "k%d" i in
        let prev = List.nth !names (pick mod List.length !names) in
        let body =
          match kind with
          | 0 -> Expr.(input prev + (input "in" * Const 0.5))
          | 1 -> Expr.(input prev * input prev)
          | _ -> Expr.conv Kfuse_image.Mask.gaussian_3x3 prev
        in
        kernels := Kernel.map ~name ~inputs:(Expr.images body) body :: !kernels;
        names := name :: !names)
      seeds;
    return (List.rev !kernels))

let pipeline_of_kernels kernels =
  Pipeline.create ~name:"rand" ~width:13 ~height:11 ~inputs:[ "in" ] kernels

let pipeline_arb =
  QCheck.make pipeline_gen ~print:(fun ks ->
      Format.asprintf "%a" Pipeline.pp (pipeline_of_kernels ks))

let steps_to_string p steps =
  String.concat "\n"
    (List.map (fun s -> Format.asprintf "%a" (F.Mincut_fusion.pp_step p) s) steps)

let prop_parallel_benefit_identical =
  QCheck.Test.make ~count:100 ~name:"parallel Benefit.all_edges = serial" pipeline_arb
    (fun kernels ->
      let p = pipeline_of_kernels kernels in
      let reference = F.Benefit.all_edges config p in
      List.for_all
        (fun n -> Pool.with_pool n (fun pool -> F.Benefit.all_edges ~pool config p = reference))
        sizes)

let prop_parallel_mincut_identical =
  QCheck.Test.make ~count:100 ~name:"parallel Mincut_fusion.run = serial" pipeline_arb
    (fun kernels ->
      let p = pipeline_of_kernels kernels in
      let reference = F.Mincut_fusion.run config p in
      List.for_all
        (fun n ->
          Pool.with_pool n (fun pool ->
              let r = F.Mincut_fusion.run ~pool config p in
              Partition.equal r.F.Mincut_fusion.partition
                reference.F.Mincut_fusion.partition
              && r.F.Mincut_fusion.edges = reference.F.Mincut_fusion.edges
              && Float.equal r.F.Mincut_fusion.objective
                   reference.F.Mincut_fusion.objective
              && String.equal
                   (steps_to_string p r.F.Mincut_fusion.steps)
                   (steps_to_string p reference.F.Mincut_fusion.steps)))
        sizes)

let prop_parallel_driver_identical =
  QCheck.Test.make ~count:60 ~name:"parallel Driver.run report = serial" pipeline_arb
    (fun kernels ->
      let p = pipeline_of_kernels kernels in
      List.for_all
        (fun strategy ->
          let reference = F.Driver.run config strategy p in
          let render (r : F.Driver.report) = Format.asprintf "%a" F.Driver.pp_report r in
          List.for_all
            (fun n ->
              Pool.with_pool n (fun pool ->
                  let r = F.Driver.run ~pool config strategy p in
                  String.equal (render r) (render reference)
                  && Float.equal r.F.Driver.objective reference.F.Driver.objective))
            sizes)
        F.Driver.all_strategies)

let prop_parallel_sim_identical =
  QCheck.Test.make ~count:60 ~name:"parallel Sim.measure samples = serial"
    (QCheck.pair (QCheck.int_range 1 600) QCheck.small_int) (fun (runs, seed) ->
      let p =
        pipeline_of_kernels
          [
            Kfuse_ir.Kernel.map ~name:"k0" ~inputs:[ "in" ]
              Kfuse_ir.Expr.(input "in" * Const 2.0);
            Kfuse_ir.Kernel.map ~name:"k1" ~inputs:[ "k0" ]
              (Kfuse_ir.Expr.conv Kfuse_image.Mask.gaussian_3x3 "k0");
          ]
      in
      let reference =
        G.Sim.measure ~runs ~seed G.Device.gtx680 ~quality:G.Perf_model.Optimized
          ~fused_kernels:[] p
      in
      List.for_all
        (fun n ->
          Pool.with_pool n (fun pool ->
              let m =
                G.Sim.measure ~runs ~seed ~pool G.Device.gtx680
                  ~quality:G.Perf_model.Optimized ~fused_kernels:[] p
              in
              m.G.Sim.samples = reference.G.Sim.samples))
        sizes)

let suite =
  [
    Alcotest.test_case "map matches serial" `Quick test_map_matches_serial;
    Alcotest.test_case "init and chunked run" `Quick test_init_and_run;
    Alcotest.test_case "empty batch and sizes" `Quick test_empty_and_size;
    Alcotest.test_case "exception propagates, no deadlock" `Quick test_exception_propagates;
    Alcotest.test_case "nested run degrades to serial" `Quick test_nested_run_degrades;
    Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "create rejects size 0" `Quick test_create_invalid;
    Alcotest.test_case "deferred pool spawns at its first parallel batch" `Quick
      test_deferred_spawn;
    Alcotest.test_case "deferred spawn fault degrades the batch" `Quick
      test_deferred_spawn_fault;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260806 |]))
      [
        prop_parallel_benefit_identical;
        prop_parallel_mincut_identical;
        prop_parallel_driver_identical;
        prop_parallel_sim_identical;
      ]
