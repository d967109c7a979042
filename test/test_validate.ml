(* Property tests for the pipeline validator: start from a well-formed
   random pipeline description, corrupt it in a known way (inject a
   cycle, a dangling reference, a duplicate id, a zero-sized iteration
   space), and assert [Validate.check] flags exactly that class of
   defect and [Validate.build] returns [Error] without raising.  A final
   property drives every fusion strategy over valid pipelines with
   faults armed and checks the non-strict driver never crashes and its
   partition stays valid. *)

module Diag = Kfuse_util.Diag
module Faults = Kfuse_util.Faults
module Ir = Kfuse_ir
module Validate = Kfuse_ir.Validate
module Kernel = Kfuse_ir.Kernel
module Expr = Kfuse_ir.Expr
module F = Kfuse_fusion
module Partition = Kfuse_graph.Partition

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A well-formed random chain-with-skips description: kernel [ki] reads
   the input or any earlier kernel, via a point access or a small
   stencil. *)
let input_gen : Validate.input QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 8 in
  let* picks = list_repeat n (pair (int_range 0 8) (int_range 0 2)) in
  let kernels =
    List.mapi
      (fun i (pick, kind) ->
        let producer = if i = 0 then "in" else Printf.sprintf "k%d" (pick mod i) in
        let name = Printf.sprintf "k%d" i in
        match kind with
        | 0 -> Kernel.map ~name ~inputs:[ producer ] (Expr.input producer)
        | 1 ->
          Kernel.map ~name ~inputs:[ producer ]
            (Expr.conv Kfuse_image.Mask.gaussian_3x3 producer)
        | _ ->
          Kernel.map ~name ~inputs:[ producer ]
            Expr.(Binop (Add, input producer, Param "gain")))
      picks
  in
  let+ wh = pair (int_range 8 64) (int_range 8 64) in
  {
    Validate.name = "prop";
    width = fst wh;
    height = snd wh;
    channels = 1;
    inputs = [ "in" ];
    params = [ ("gain", 1.5) ];
    kernels;
  }

let has_code c diags = List.exists (fun d -> d.Diag.code = c) diags

let build_never_raises input =
  match Validate.build input with
  | Ok _ | Error _ -> true
  | exception e -> QCheck2.Test.fail_reportf "build raised %s" (Printexc.to_string e)

let prop_valid_inputs_pass =
  qtest "well-formed descriptions validate and build" input_gen (fun input ->
      let diags = Validate.check input in
      if List.exists Diag.is_error diags then
        QCheck2.Test.fail_reportf "unexpected errors: %s"
          (String.concat "; " (List.map Diag.to_string diags));
      match Validate.build input with
      | Ok p -> Ir.Pipeline.num_kernels p = List.length input.Validate.kernels
      | Error d -> QCheck2.Test.fail_reportf "build failed: %s" (Diag.to_string d))

let prop_cycle_flagged =
  (* Rewrite the first kernel to read the last one: with the last kernel
     (transitively) reading the first, that closes a dependence cycle. *)
  qtest "injected cycles are flagged"
    QCheck2.Gen.(int_range 2 8)
    (fun n ->
      let kernels =
        List.init n (fun i ->
            let producer = if i = 0 then Printf.sprintf "k%d" (n - 1) else Printf.sprintf "k%d" (i - 1) in
            Kernel.map ~name:(Printf.sprintf "k%d" i) ~inputs:[ producer ]
              (Expr.input producer))
      in
      let input =
        {
          Validate.name = "cyclic";
          width = 16;
          height = 16;
          channels = 1;
          inputs = [ "in" ];
          params = [];
          kernels;
        }
      in
      has_code Diag.Cycle (Validate.check input) && build_never_raises input
      && Result.is_error (Validate.build input))

let prop_dangling_flagged =
  qtest "dangling references are flagged" input_gen (fun input ->
      let ghost = "nowhere" in
      let kernels =
        input.Validate.kernels
        @ [ Kernel.map ~name:"dangler" ~inputs:[ ghost ] (Expr.input ghost) ]
      in
      let input = { input with Validate.kernels } in
      has_code Diag.Dangling_ref (Validate.check input)
      && build_never_raises input
      && Result.is_error (Validate.build input))

let prop_duplicate_flagged =
  qtest "duplicate ids are flagged" input_gen (fun input ->
      let dup =
        match input.Validate.kernels with
        | k :: _ -> k.Kernel.name
        | [] -> assert false
      in
      let kernels =
        input.Validate.kernels @ [ Kernel.map ~name:dup ~inputs:[ "in" ] (Expr.input "in") ]
      in
      let input = { input with Validate.kernels } in
      has_code Diag.Duplicate_name (Validate.check input)
      && build_never_raises input
      && Result.is_error (Validate.build input))

let prop_empty_space_flagged =
  qtest "zero-sized iteration spaces are flagged"
    QCheck2.Gen.(pair input_gen (int_range 0 2))
    (fun (input, which) ->
      let input =
        match which with
        | 0 -> { input with Validate.width = 0 }
        | 1 -> { input with Validate.height = -3 }
        | _ -> { input with Validate.channels = 0 }
      in
      has_code Diag.Empty_iteration_space (Validate.check input)
      && build_never_raises input
      && Result.is_error (Validate.build input))

let prop_oversized_mask_flagged =
  qtest "masks larger than the space are flagged"
    QCheck2.Gen.(int_range 1 2)
    (fun w ->
      let input =
        {
          Validate.name = "tiny";
          width = w;
          height = w;
          channels = 1;
          inputs = [ "in" ];
          params = [];
          kernels =
            [ Kernel.map ~name:"blur" ~inputs:[ "in" ] (Expr.conv Kfuse_image.Mask.gaussian_3x3 "in") ];
        }
      in
      has_code Diag.Mask_too_large (Validate.check input) && build_never_raises input)

let prop_unbound_param_flagged =
  qtest "unbound parameters are flagged" input_gen (fun input ->
      let input = { input with Validate.params = [] } in
      let uses_param =
        List.exists
          (fun k ->
            match k.Kernel.op with
            | Kernel.Map e | Kernel.Reduce { arg = e; _ } ->
              Expr.params e <> [])
          input.Validate.kernels
      in
      QCheck2.assume uses_param;
      has_code Diag.Unbound_param (Validate.check input)
      && build_never_raises input
      && Result.is_error (Validate.build input))

(* ---- the driver never crashes on valid pipelines, faults or not ---- *)

let strategy_gen =
  QCheck2.Gen.oneofl
    [ F.Driver.Baseline; F.Driver.Basic; F.Driver.Greedy; F.Driver.Mincut ]

let fault_gen =
  QCheck2.Gen.oneofl
    [
      None;
      Some "cut.stoer_wagner@1";
      Some "cut.stoer_wagner/2";
      Some "driver.strategy@1";
      Some "cut.stoer_wagner~0.5:77";
    ]

let prop_driver_never_crashes =
  qtest ~count:60 "non-strict driver survives faults with a valid partition"
    QCheck2.Gen.(triple input_gen strategy_gen fault_gen)
    (fun (input, strategy, fault) ->
      match Validate.build input with
      | Error d -> QCheck2.Test.fail_reportf "generator broken: %s" (Diag.to_string d)
      | Ok p ->
        let run () =
          match F.Driver.run_result F.Config.default strategy p with
          | Error d ->
            QCheck2.Test.fail_reportf "non-strict driver failed: %s" (Diag.to_string d)
          | Ok r ->
            (match Partition.validate (Ir.Pipeline.dag p) r.F.Driver.partition with
            | Ok () -> ()
            | Error why ->
              QCheck2.Test.fail_reportf "invalid partition: %s"
                (Partition.invalid_to_string why));
            (* Degradation implies warnings and vice versa. *)
            r.F.Driver.degraded = (r.F.Driver.warnings <> [])
        in
        (match fault with
        | None -> run ()
        | Some spec -> Faults.with_spec spec run)
        && (* the registry is clean again for the next case *)
        not (Faults.active ()))

(* The emitted C indexes with int: a space of more than 2^31 - 1
   elements is KF0504, decided from the extent alone (nothing allocated,
   no planning work). *)
let test_int_index_bound () =
  let sobel ~width ~height = Kfuse_apps.Sobel.pipeline ~width ~height () in
  let kf0504 p =
    match Validate.result p with
    | Error d -> Diag.code_id d.Diag.code = "KF0504"
    | Ok _ -> false
  in
  Alcotest.(check bool) "46340^2 fits" false (kf0504 (sobel ~width:46340 ~height:46340));
  Alcotest.(check bool) "46341^2 is refused" true (kf0504 (sobel ~width:46341 ~height:46341));
  Alcotest.(check bool) "channels count" true
    (List.exists
       (fun d -> Diag.code_id d.Diag.code = "KF0504")
       (Validate.check
          { (Validate.of_pipeline (sobel ~width:32768 ~height:32768)) with Validate.channels = 2 }));
  Alcotest.(check bool) "max_int extent does not wrap" true
    (List.exists
       (fun d -> Diag.code_id d.Diag.code = "KF0504")
       (Validate.check
          {
            (Validate.of_pipeline (sobel ~width:16 ~height:16)) with
            Validate.width = max_int;
            height = max_int;
          }));
  let before = Gc.allocated_bytes () in
  (match F.Driver.run_result F.Config.default F.Driver.Mincut (sobel ~width:65536 ~height:65536) with
  | Error d -> Alcotest.(check string) "driver refuses" "KF0504" (Diag.code_id d.Diag.code)
  | Ok _ -> Alcotest.fail "a 65536x65536 pipeline was planned");
  Alcotest.(check bool) "nothing image-sized allocated" true
    (Gc.allocated_bytes () -. before < 1e6)

let suite =
  [
    Alcotest.test_case "iteration spaces past int indexing are KF0504" `Quick
      test_int_index_bound;
    prop_valid_inputs_pass;
    prop_cycle_flagged;
    prop_dangling_flagged;
    prop_duplicate_flagged;
    prop_empty_space_flagged;
    prop_oversized_mask_flagged;
    prop_unbound_param_flagged;
    prop_driver_never_crashes;
  ]
