module Iset = Kfuse_util.Iset
module Diag = Kfuse_util.Diag
module Faults = Kfuse_util.Faults
module Deadline = Kfuse_util.Deadline
module Partition = Kfuse_graph.Partition
module Pipeline = Kfuse_ir.Pipeline
module Kernel = Kfuse_ir.Kernel

type strategy = Baseline | Basic | Greedy | Mincut

type report = {
  strategy : strategy;
  inlined : string list;
  input : Pipeline.t;
  partition : Partition.t;
  edges : Benefit.edge_report list;
  steps : Mincut_fusion.step list;
  objective : float;
  fused : Pipeline.t;
  degraded : bool;
  warnings : Diag.t list;
}

let strategy_to_string = function
  | Baseline -> "baseline"
  | Basic -> "basic"
  | Greedy -> "greedy"
  | Mincut -> "mincut"

let strategy_of_string = function
  | "baseline" -> Some Baseline
  | "basic" -> Some Basic
  | "greedy" -> Some Greedy
  | "mincut" -> Some Mincut
  | _ -> None

let all_strategies = [ Baseline; Basic; Greedy; Mincut ]

(* Translate whatever a failing stage threw into one diagnostic.  The
   severity is [Warning] because in the default mode the failure is
   survivable: the driver falls back to the baseline partition. *)
let diag_of_failure ~strategy ~stage exn =
  let prefix = Printf.sprintf "%s strategy, %s stage" (strategy_to_string strategy) stage in
  match exn with
  | Diag.Fatal d -> d
  | Deadline.Expired { budget_ms } ->
    Diag.warningf Diag.Budget_exceeded "%s: exceeded the %gms fusion budget" prefix
      budget_ms
  | Faults.Fault { point; hit } ->
    Diag.warningf Diag.Fault_injected "%s: injected fault at point %S (hit %d)" prefix
      point hit
  | exn ->
    Diag.warningf Diag.Strategy_failed "%s: raised %s" prefix (Printexc.to_string exn)

(* Run one fallible stage.  [Out_of_memory]/[Stack_overflow] are never
   treated as degradable — they indicate resource exhaustion the
   fallback could not survive either. *)
let protect ~strategy ~stage f =
  match f () with
  | x -> Ok x
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception exn -> Error (diag_of_failure ~strategy ~stage exn)

let run ?(optimize = false) ?(inline = false)
    ?(pool = Kfuse_util.Pool.serial) ?(strict = false) ?budget_ms config strategy
    (p : Pipeline.t) =
  (* Invalid configuration or a structurally broken pipeline is a caller
     error in every mode: there is no meaningful baseline to fall back
     to, so both fail fast with a typed diagnostic. *)
  (match Config.validate_result config with Ok () -> () | Error d -> Diag.fail d);
  (match Kfuse_ir.Validate.result p with Ok _ -> () | Error d -> Diag.fail d);
  let deadline =
    match budget_ms with None -> Deadline.none | Some ms -> Deadline.after_ms ms
  in
  let warnings = ref [] in
  (* In strict mode a degradable failure is fatal (re-raised as its
     diagnostic, at [Error] severity); otherwise it is recorded and the
     caller-provided fallback result stands in. *)
  let degrade d fallback =
    if strict then Diag.fail { d with Diag.severity = Diag.Error }
    else begin
      warnings := { d with Diag.severity = Diag.Warning } :: !warnings;
      fallback ()
    end
  in
  let p, inlined =
    if not inline then (p, [])
    else
      match
        protect ~strategy ~stage:"inline" (fun () -> Inline_fusion.greedy config p)
      with
      | Ok r -> r
      | Error d -> degrade d (fun () -> (p, []))
  in
  let g = Pipeline.dag p in
  let baseline_result () =
    (* The always-legal fallback the paper guarantees: every singleton
       block is legal.  Edge reports are decorative here, so their
       failure degrades further to an empty fusion graph. *)
    let edges =
      match protect ~strategy ~stage:"fallback edges" (fun () -> Benefit.all_edges ~pool config p) with
      | Ok e -> e
      | Error d ->
        warnings := d :: !warnings;
        []
    in
    (Partition.singletons g, [], edges)
  in
  let attempt () =
    Faults.hit "driver.strategy";
    let result =
      match strategy with
      | Baseline -> (Partition.singletons g, [], Benefit.all_edges ~pool config p)
      | Basic -> (Basic_fusion.partition config p, [], Benefit.all_edges ~pool config p)
      | Greedy -> (Greedy_fusion.partition config p, [], Benefit.all_edges ~pool config p)
      | Mincut ->
        (* Reuse the weighted fusion graph the algorithm already scored. *)
        let r = Mincut_fusion.run ~pool ~deadline config p in
        (r.Mincut_fusion.partition, r.Mincut_fusion.steps, r.Mincut_fusion.edges)
    in
    (* Strategies without cooperative deadline checks are bounded here:
       finishing late still counts as exceeding the budget. *)
    Deadline.check deadline;
    result
  in
  let partition, steps, edges =
    match protect ~strategy ~stage:"search" attempt with
    | Error d -> degrade d baseline_result
    | Ok ((partition, _, _) as result) -> (
      match Legality.check_partition config p partition with
      | Ok () -> result
      | Error d -> degrade d baseline_result)
  in
  let weights = Mincut_fusion.weight_table edges in
  let weight_of u v =
    match Hashtbl.find_opt weights (u, v) with Some w -> w | None -> 0.0
  in
  let transform part =
    protect ~strategy ~stage:"transform" (fun () -> Transform.apply p part)
  in
  let partition, steps, fused =
    match transform partition with
    | Ok fused -> (partition, steps, fused)
    | Error d ->
      if strict then Diag.fail { d with Diag.severity = Diag.Error }
      else begin
        warnings := { d with Diag.severity = Diag.Warning } :: !warnings;
        let part = Partition.singletons g in
        match transform part with
        | Ok fused -> (part, [], fused)
        | Error d ->
          (* Even the identity partition cannot be applied: internal. *)
          Diag.fail { d with Diag.severity = Diag.Error; Diag.code = Diag.Internal_error }
      end
  in
  let fused =
    if not optimize then fused
    else
      match
        protect ~strategy ~stage:"optimize" (fun () ->
            Kfuse_ir.Cse.pipeline (Kfuse_ir.Simplify.pipeline fused))
      with
      | Ok fused -> fused
      | Error d -> degrade d (fun () -> fused)
  in
  let objective = Partition.objective weight_of g partition in
  let warnings = List.rev !warnings in
  {
    strategy;
    inlined;
    input = p;
    partition;
    edges;
    steps;
    objective;
    fused;
    degraded = warnings <> [];
    warnings;
  }

let run_result ?optimize ?inline ?pool ?strict ?budget_ms config strategy p =
  Diag.catch (fun () ->
      run ?optimize ?inline ?pool ?strict ?budget_ms config strategy p)

let fused_kernel_count r = Pipeline.num_kernels r.fused

let pp_report ppf r =
  let p = r.input in
  let name i = (Pipeline.kernel p i).Kernel.name in
  Format.fprintf ppf "@[<v>strategy: %s@," (strategy_to_string r.strategy);
  List.iter (fun d -> Format.fprintf ppf "%a@," Diag.pp d) r.warnings;
  if r.degraded then Format.fprintf ppf "degraded: fell back to the baseline partition@,";
  if r.inlined <> [] then
    Format.fprintf ppf "inlined: %s@," (String.concat ", " r.inlined);
  Format.fprintf ppf "edges:@,";
  List.iter
    (fun (e : Benefit.edge_report) ->
      Format.fprintf ppf "  %s -> %s : %s, w=%.3f@," (name e.src) (name e.dst)
        (Benefit.scenario_to_string e.scenario) e.weight)
    r.edges;
  if r.steps <> [] then begin
    Format.fprintf ppf "trace:@,";
    List.iter (fun s -> Format.fprintf ppf "  %a@," (Mincut_fusion.pp_step p) s) r.steps
  end;
  Format.fprintf ppf "partition:";
  List.iter
    (fun b ->
      Format.fprintf ppf " {%s}" (String.concat ", " (List.map name (Iset.elements b))))
    r.partition;
  Format.fprintf ppf "@,objective beta = %.3f@," r.objective;
  Format.fprintf ppf "kernels: %d -> %d@]" (Pipeline.num_kernels p)
    (Pipeline.num_kernels r.fused)
