(* kfusec: command-line driver for the kernel-fusion compiler.

   Subcommands:
     list      - list built-in benchmark applications
     fuse      - run a fusion strategy and print the report
     emit      - emit CUDA or C+OpenMP for a pipeline (fused or not)
     estimate  - estimate execution times / speedups on a GPU model
     run       - execute a pipeline on a PGM image via the interpreter
     explain   - narrate every fusion decision for a pipeline
     dot       - render a pipeline DAG as Graphviz DOT with its partition
     unparse   - print a built-in application as DSL source text
     check     - validate a pipeline and print structured diagnostics
     serve     - run the kfused fusion service on a Unix-domain socket
     shard-serve - run a supervised fleet of kfused shards behind a router
     query     - send one request to a running kfused
     repl      - edit a lazy pipeline; fusion is (re)planned on each flush
     fuzz      - differential fuzzing campaign over generated pipelines
     bench-native - fused vs. unfused native wall-clock, checked bit for bit

   Exit codes: 0 success, 1 a diagnostic error (printed to stderr as
   "kfusec: error[KFxxxx]: ..."), 2 a malformed KFUSE_FAULTS spec, plus
   cmdliner's 124/125 for command-line and internal errors. *)

module F = Kfuse_fusion
module G = Kfuse_gpu
module Ir = Kfuse_ir
module Iset = Kfuse_util.Iset
module Stats = Kfuse_util.Stats
module Diag = Kfuse_util.Diag
module Cache = Kfuse_cache
module Svc = Kfuse_service
module Fz = Kfuse_fuzz
module Exec = Kfuse_exec
module Lz = Kfuse_lazy
open Cmdliner

let pp_diag d = Format.eprintf "kfusec: %a@." Diag.pp d

let fail_diag d =
  pp_diag d;
  1

(* Degradation warnings go to stderr so stdout stays parseable; in the
   default mode a degraded run still exits 0 — the report is valid, just
   conservative. *)
let report_warnings (r : F.Driver.report) = List.iter pp_diag r.F.Driver.warnings

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> Ok data
  | exception Sys_error msg -> Error (Diag.v ~file:path Diag.Io_error msg)

let both_given = Diag.v Diag.Io_error "pass either --app or a FILE, not both"
let none_given = Diag.v Diag.Io_error "pass --app NAME or a DSL FILE"

(* A DSL FILE, parsed here rather than by {!Svc.Planner.pipeline} so
   that its parse errors name the file.  Not yet validated. *)
let parse_file path =
  Result.bind (read_file path) (Kfuse_dsl.Elaborate.parse_pipeline_diag ~file:path)

(* The wire form of --app/FILE, an [(app, source)] pair: a request
   carries DSL source, not a path, so the server need not share a
   filesystem view with the client.  [none] answers when neither is
   given. *)
let wire_pipeline ~none ~app ~file =
  match (app, file) with
  | Some _, Some _ -> Error both_given
  | None, Some path -> Result.map (fun s -> (None, Some s)) (read_file path)
  | (Some _ as app), None -> Ok (app, None)
  | None, None -> none

(* The validated pipeline --app or FILE names: an app through the
   daemon's loader, a FILE parsed here and validated with its warnings
   (an empty pipeline) surfaced but not fatal. *)
let load_validated ~app ~file =
  match (app, file) with
  | _, None | Some _, _ ->
    Result.bind (wire_pipeline ~none:(Error none_given) ~app ~file) Svc.Planner.pipeline
  | None, Some path ->
    Result.bind (parse_file path) @@ fun p ->
    let diags = Ir.Validate.pipeline p in
    List.iter pp_diag (List.filter (fun d -> not (Diag.is_error d)) diags);
    (match List.filter Diag.is_error diags with [] -> Ok p | d :: _ -> Error d)

let strategy_conv =
  let parse s =
    match F.Driver.strategy_of_string s with
    | Some st -> Ok st
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (F.Driver.strategy_to_string s) in
  Arg.conv (parse, print)

let device_conv =
  let parse s =
    match G.Device.find s with
    | Some d -> Ok d
    | None -> Error (`Msg (Printf.sprintf "unknown device %S (gtx745, gtx680, k20c)" s))
  in
  let print ppf (d : G.Device.t) = Format.pp_print_string ppf d.G.Device.name in
  Arg.conv (parse, print)

(* ---- the shared driver flag set ----

   Every driver-backed subcommand (fuse, emit, run, estimate, dot,
   explain, query) builds on this one term, so the flags behave
   identically everywhere: pipeline selection (--app/FILE), the fusion
   model (--c-mshared/--gamma/--tg), execution (-j/--strict/--budget-ms),
   and the plan cache (--cache/--cache-dir).  [serve] takes only -j and
   the plan-cache flags: clients send the rest per request. *)

let app_arg =
  Arg.(value & opt (some string) None & info [ "a"; "app" ] ~docv:"NAME" ~doc:"Built-in application name.")

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Pipeline DSL file.")

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv F.Driver.Mincut
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:"Fusion strategy: baseline, basic, greedy, or mincut.")

let cmshared_arg =
  Arg.(
    value
    & opt float F.Config.default.F.Config.c_mshared
    & info [ "c-mshared" ] ~docv:"RATIO" ~doc:"Shared-memory growth threshold of Eq. 2.")

let gamma_arg =
  Arg.(
    value
    & opt float F.Config.default.F.Config.gamma
    & info [ "gamma" ] ~docv:"CYCLES" ~doc:"Extra per-fusion gain term of Eq. 12.")

let tg_arg =
  Arg.(
    value
    & opt float F.Config.default.F.Config.tg
    & info [ "tg" ] ~docv:"CYCLES" ~doc:"Global-memory latency used by the benefit model.")

let jobs_arg =
  Arg.(
    value
    & opt int (Kfuse_util.Pool.default_size ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains used to parallelize the fusion search and the measurement \
           simulation (default: the recommended domain count; 1 is fully serial). \
           Output is bit-identical for every N.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Fail fast: a fusion strategy that raises, exceeds the budget, or emits \
           an invalid partition is a fatal error instead of degrading to the \
           baseline partition with a warning.")

let budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget for the fusion search.  A strategy running past it \
           falls back to the baseline partition (or fails under $(b,--strict)).")

let cache_flag =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Serve fusion plans from the content-addressed plan cache (and store \
           fresh ones), keyed by the pipeline's canonical structure and the \
           fusion-model parameters.  Uses the default cache directory unless \
           $(b,--cache-dir) is given.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "On-disk plan cache directory (implies $(b,--cache); default \
           \\$XDG_CACHE_HOME/kfuse or ~/.cache/kfuse).")

(* The plan cache's disk tier: none unless --cache or --cache-dir asks. *)
let cache_dir_of ~cache ~cache_dir =
  match (cache, cache_dir) with
  | false, None -> None
  | _, dir -> Some (Option.value ~default:(Cache.Plan_cache.default_dir ()) dir)

type common = {
  app : string option;
  file : string option;
  config : F.Config.t;
  jobs : int;
  strict : bool;
  budget_ms : float option;
  cache : Cache.Plan_cache.t option;
}

let common_term =
  let mk app file c_mshared gamma tg jobs strict budget_ms cache cache_dir =
    {
      app;
      file;
      config =
        Svc.Planner.config ~c_mshared:(Some c_mshared) ~gamma:(Some gamma) ~tg:(Some tg);
      jobs;
      strict;
      budget_ms;
      cache =
        Option.map (fun dir -> Cache.Plan_cache.create ~dir ()) (cache_dir_of ~cache ~cache_dir);
    }
  in
  Term.(
    const mk $ app_arg $ file_arg $ cmshared_arg $ gamma_arg $ tg_arg $ jobs_arg
    $ strict_arg $ budget_arg $ cache_flag $ cache_dir_arg)

(* Run a subcommand body with a -j sized domain pool. *)
let with_jobs jobs f =
  if jobs < 1 then begin
    Format.eprintf "kfusec: --jobs must be >= 1@.";
    1
  end
  else Kfuse_util.Pool.with_pool jobs f

(* The shared subcommand spine: load, validate, size the pool, and hand
   (pool, pipeline) to the body.  Every driver-backed subcommand used to
   open with this same three-step boilerplate. *)
let with_loaded (c : common) k =
  match load_validated ~app:c.app ~file:c.file with
  | Error d -> fail_diag d
  | Ok p -> with_jobs c.jobs (fun pool -> k pool p)

(* The request the daemon would get for [(app, source)] under [c]'s
   fusion model and search settings. *)
let request (c : common) ~strategy ~optimize ~inline ~no_cache (app, source) =
  {
    Svc.Protocol.app;
    source;
    strategy;
    c_mshared = Some c.config.F.Config.c_mshared;
    gamma = Some c.config.F.Config.gamma;
    tg = Some c.config.F.Config.tg;
    optimize;
    inline;
    budget_ms = c.budget_ms;
    no_cache;
    strict = c.strict;
  }

(* Plan [p] as the daemon plans a request, through the plan cache when
   enabled (its outcome to stderr, so stdout stays the report). *)
let plan ?(optimize = false) ?(inline = false) ~pool ~strategy (c : common) p =
  let f = request c ~strategy ~optimize ~inline ~no_cache:false (c.app, None) in
  Svc.Planner.plan ~pool ~deadline:Kfuse_util.Deadline.none f
    (Option.map (fun pc -> (pc, Svc.Planner.plan_key f p)) c.cache)
    (Lazy.from_val (Ok p))
  |> Result.map (fun (r, outcome, _) ->
         Option.iter
           (fun o -> Format.eprintf "kfusec: plan cache: %s@." (Cache.Plan_cache.outcome_to_string o))
           outcome;
         r)

let optimize_arg =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ]
        ~doc:"Run the simplify and CSE cleanup passes over fused kernels.")

let inline_arg =
  Arg.(
    value & flag
    & info [ "inline" ]
        ~doc:"Run the producer-inlining pre-pass (eliminates cheap shared \
              intermediates the partition model must keep).")

let distribute_arg =
  Arg.(
    value & flag
    & info [ "distribute" ]
        ~doc:"Split separable convolutions into 1-D passes before fusing \
              (kernel distribution, the paper's future work).")

let backend_arg =
  let backend_conv =
    Arg.conv
      ( (function
        | "cuda" -> Ok `Cuda
        | "cpu" | "c" | "openmp" -> Ok `Cpu
        | s -> Error (`Msg (Printf.sprintf "unknown backend %S (cuda, cpu)" s))),
        fun ppf b ->
          Format.pp_print_string ppf (match b with `Cuda -> "cuda" | `Cpu -> "cpu") )
  in
  Arg.(
    value
    & opt backend_conv `Cuda
    & info [ "b"; "backend" ] ~docv:"BACKEND" ~doc:"Code generator: cuda or cpu (C + OpenMP).")

let fused_kernel_names (p : Ir.Pipeline.t) (r : F.Driver.report) =
  List.filter_map
    (fun b ->
      if Iset.cardinal b >= 2 then
        Some (Ir.Pipeline.kernel p (Iset.min_elt (F.Legality.block_sinks p b))).Ir.Kernel.name
      else None)
    r.F.Driver.partition

(* ---- list ---- *)

let list_cmd =
  let doc = "List the built-in benchmark applications." in
  let run () =
    List.iter
      (fun (e : Kfuse_apps.Registry.entry) ->
        let p = e.Kfuse_apps.Registry.pipeline () in
        Format.printf "%-10s %d kernels, %dx%dx%d  %s@." e.name
          (Ir.Pipeline.num_kernels p) p.Ir.Pipeline.width p.Ir.Pipeline.height
          p.Ir.Pipeline.channels e.description)
      Kfuse_apps.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---- fuse ---- *)

let fuse_cmd =
  let doc = "Run a fusion strategy and print the partition report." in
  let run common strategy inline distribute =
    with_loaded common @@ fun pool p ->
    let p, split = if distribute then F.Distribute.split_all p else (p, []) in
    if split <> [] then Format.printf "distributed: %s@." (String.concat ", " split);
    match plan ~inline ~pool ~strategy common p with
    | Error d -> fail_diag d
    | Ok r ->
      report_warnings r;
      Format.printf "%a@." F.Driver.pp_report r;
      0
  in
  Cmd.v
    (Cmd.info "fuse" ~doc)
    Term.(const run $ common_term $ strategy_arg $ inline_arg $ distribute_arg)

(* ---- emit ---- *)

let emit_cmd =
  let doc = "Emit CUDA or C+OpenMP source for a pipeline after fusion." in
  let output_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let run common strategy optimize backend output =
    with_loaded common @@ fun pool p ->
    match plan ~optimize ~pool ~strategy common p with
    | Error d -> fail_diag d
    | Ok r -> (
      report_warnings r;
      let source =
        match backend with
        | `Cuda -> Kfuse_codegen.Lower.emit_pipeline r.F.Driver.fused
        | `Cpu -> Kfuse_codegen.Lower_cpu.emit_pipeline r.F.Driver.fused
      in
      match output with
      | None ->
        print_string source;
        0
      | Some path -> (
        match
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc source)
        with
        | () ->
          Format.printf "wrote %s (%d kernels)@." path
            (Ir.Pipeline.num_kernels r.F.Driver.fused);
          0
        | exception Sys_error msg -> fail_diag (Diag.v ~file:path Diag.Io_error msg)))
  in
  Cmd.v
    (Cmd.info "emit" ~doc)
    Term.(const run $ common_term $ strategy_arg $ optimize_arg $ backend_arg $ output_arg)

(* ---- run ---- *)

let exec_mode_arg =
  let mode_conv =
    Arg.conv
      ( (function
        | "auto" -> Ok None
        | s -> (
          match Exec.Native.mode_of_string s with
          | Some m -> Ok (Some m)
          | None ->
            Error (`Msg (Printf.sprintf "unknown exec mode %S (auto, dlopen, subprocess)" s)))),
        fun ppf m ->
          Format.pp_print_string ppf
            (match m with None -> "auto" | Some m -> Exec.Native.mode_to_string m) )
  in
  Arg.(
    value
    & opt mode_conv None
    & info [ "exec-mode" ] ~docv:"MODE"
        ~doc:
          "Native execution mode: $(b,dlopen) (load the compiled shared object \
           in-process), $(b,subprocess) (a persistent sandboxed runner \
           fed through a memfd arena), or $(b,auto) (dlopen, falling back to subprocess if \
           the object cannot be loaded).")

(* The native backend keeps compiled artifacts under a [native]
   subdirectory of the plan-cache directory, so --cache-dir relocates
   both caches together. *)
let native_cache_dir (c : common) =
  Option.map
    (fun d -> Filename.concat d "native")
    (Option.bind c.cache Cache.Plan_cache.dir)

let run_cmd =
  let doc = "Execute a pipeline on a PGM image (interpreter or compiled native code)." in
  let input_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "i"; "input" ] ~docv:"FILE.pgm" ~doc:"Input image (P2/P5 graymap).")
  in
  let output_arg =
    Arg.(
      value & opt string "out.pgm"
      & info [ "o"; "output" ] ~docv:"FILE.pgm"
          ~doc:"Output image path (multi-output pipelines add the kernel name).")
  in
  let native_arg =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Compile the fused pipeline to C + OpenMP with the host toolchain \
             and execute the compiled code instead of the interpreter.  The \
             result is still checked against the interpreter (see \
             $(b,--no-verify)); artifacts are cached by plan fingerprint.  \
             Requires a C compiler (KF0902 otherwise; set $(b,KFUSE_CC) to pin \
             one).")
  in
  let no_verify_arg =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:
            "With $(b,--native): skip the interpreter cross-check (faster on \
             large images, but drops the max-abs-diff report).")
  in
  let run common strategy input output native exec_mode no_verify =
    with_loaded common @@ fun pool p ->
    match p.Ir.Pipeline.inputs with
    | [ input_name ] -> (
      match Kfuse_image.Pgm.read_result input with
      | Error d -> fail_diag d
      | Ok img -> (
        let p =
          (* Re-elaborate at the image's size so any pipeline fits any
             input: rebuild with the same kernels. *)
          Ir.Pipeline.create ~name:p.Ir.Pipeline.name
            ~width:(Kfuse_image.Image.width img)
            ~height:(Kfuse_image.Image.height img)
            ~channels:p.Ir.Pipeline.channels ~params:p.Ir.Pipeline.params
            ~inputs:p.Ir.Pipeline.inputs
            (Array.to_list p.Ir.Pipeline.kernels)
        in
        match plan ~pool ~strategy common p with
        | Error d -> fail_diag d
        | Ok r -> (
          report_warnings r;
          let env = Ir.Eval.env_of_list [ (input_name, img) ] in
          let computed =
            if not native then Ok (Ir.Eval.run_outputs r.F.Driver.fused env)
            else
              match
                Exec.Native.run ?mode:exec_mode ?cache_dir:(native_cache_dir common)
                  r.F.Driver.fused
                  [ (input_name, img) ]
              with
              | Error d -> Error d
              | Ok nr ->
                List.iter pp_diag nr.Exec.Native.warnings;
                Format.eprintf
                  "kfusec: native (%s): compile %.1f ms%s, exec %.2f ms@."
                  (Exec.Native.mode_to_string nr.Exec.Native.mode_used)
                  nr.Exec.Native.compile_ms
                  (if nr.Exec.Native.cached then " (cached)" else "")
                  nr.Exec.Native.exec_ms;
                if not no_verify then begin
                  let v =
                    Kfuse_image.Image.verdict
                      ~reference:(Ir.Eval.run_outputs r.F.Driver.fused env)
                      nr.Exec.Native.outputs
                  in
                  Format.printf "native max-abs-diff vs interpreter: %g@."
                    v.Kfuse_image.Image.max_abs_diff;
                  if not (Kfuse_image.Image.bit_exact v) then
                    Format.printf "native output is NOT bit-identical to the interpreter's@."
                end;
                Ok nr.Exec.Native.outputs
          in
          match computed with
          | Error d -> fail_diag d
          | Ok outs -> (
          match outs with
          | [ (_, result) ] -> (
            match Kfuse_image.Pgm.write_result output result with
            | Error d -> fail_diag d
            | Ok () ->
              Format.printf "wrote %s (%dx%d, %d fused kernels)@." output
                (Kfuse_image.Image.width result)
                (Kfuse_image.Image.height result)
                (Ir.Pipeline.num_kernels r.F.Driver.fused);
              0)
          | many ->
            let code = ref 0 in
            List.iter
              (fun (name, result) ->
                let path =
                  Printf.sprintf "%s.%s.pgm" (Filename.remove_extension output) name
                in
                match Kfuse_image.Pgm.write_result path result with
                | Error d -> code := fail_diag d
                | Ok () -> Format.printf "wrote %s@." path)
              many;
            !code))))
    | inputs ->
      Format.eprintf "kfusec: run supports single-input pipelines (found %d inputs)@."
        (List.length inputs);
      1
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ common_term $ strategy_arg $ input_arg $ output_arg $ native_arg
      $ exec_mode_arg $ no_verify_arg)

(* ---- estimate ---- *)

let estimate_cmd =
  let doc = "Estimate execution time on a GPU model, per strategy." in
  let device_arg =
    Arg.(
      value
      & opt device_conv G.Device.gtx680
      & info [ "d"; "device" ] ~docv:"DEVICE" ~doc:"GPU model: gtx745, gtx680, or k20c.")
  in
  let run common device =
    with_loaded common @@ fun pool p ->
    Format.printf "pipeline %s on %a@." p.Ir.Pipeline.name G.Device.pp device;
    let results =
      List.fold_left
        (fun acc s ->
          match acc with
          | Error _ as e -> e
          | Ok acc -> (
            match plan ~pool ~strategy:s common p with
            | Error d -> Error d
            | Ok r ->
              report_warnings r;
              let quality =
                match s with
                | F.Driver.Basic -> G.Perf_model.Basic_codegen
                | F.Driver.Baseline | F.Driver.Greedy | F.Driver.Mincut ->
                  G.Perf_model.Optimized
              in
              let m =
                G.Sim.measure ~pool device ~quality
                  ~fused_kernels:(fused_kernel_names p r) r.F.Driver.fused
              in
              Ok ((s, r, m) :: acc)))
        (Ok []) F.Driver.all_strategies
    in
    match results with
    | Error d -> fail_diag d
    | Ok results ->
      let results = List.rev results in
      let baseline =
        List.find_map
          (fun (s, _, m) -> if s = F.Driver.Baseline then Some m else None)
          results
      in
      List.iter
        (fun (s, r, m) ->
          Format.printf "  %-9s %2d kernels  median %8.3f ms  speedup %.3f@."
            (F.Driver.strategy_to_string s)
            (Ir.Pipeline.num_kernels r.F.Driver.fused)
            m.G.Sim.summary.Stats.median
            (match baseline with Some b -> G.Sim.speedup b m | None -> 1.0))
        results;
      0
  in
  Cmd.v (Cmd.info "estimate" ~doc) Term.(const run $ common_term $ device_arg)

(* ---- explain ---- *)

let explain_cmd =
  let doc = "Narrate every fusion decision for a pipeline." in
  let run common =
    with_loaded common @@ fun _pool p ->
    print_string (F.Explain.report common.config p);
    0
  in
  Cmd.v (Cmd.info "explain" ~doc) Term.(const run $ common_term)

(* ---- dot ---- *)

let dot_cmd =
  let doc = "Render a pipeline DAG as Graphviz DOT, with the fusion partition." in
  let weights_arg =
    Arg.(
      value & flag
      & info [ "w"; "weights" ] ~doc:"Label edges with the benefit-model weights.")
  in
  let run common strategy weights =
    with_loaded common @@ fun pool p ->
    match plan ~pool ~strategy common p with
    | Error d -> fail_diag d
    | Ok r ->
      report_warnings r;
      let edge_labels =
        if weights then
          Some
            (fun u v -> Some (Printf.sprintf "%.3g" (F.Benefit.edge_weight common.config p u v)))
        else None
      in
      print_string (Kfuse_codegen.Dot.emit ~partition:r.F.Driver.partition ?edge_labels p);
      0
  in
  Cmd.v
    (Cmd.info "dot" ~doc)
    Term.(const run $ common_term $ strategy_arg $ weights_arg)

(* ---- unparse ---- *)

let unparse_cmd =
  let doc = "Print a built-in application as DSL source text." in
  let app_required =
    Arg.(
      required
      & opt (some string) None
      & info [ "a"; "app" ] ~docv:"NAME" ~doc:"Built-in application name.")
  in
  let run app =
    match Kfuse_apps.Registry.lookup app with
    | Error d -> fail_diag d
    | Ok e -> (
      match Kfuse_dsl.Unparse.pipeline (e.Kfuse_apps.Registry.pipeline ()) with
      | Ok text ->
        print_string text;
        0
      | Error reason ->
        Format.eprintf "kfusec: cannot unparse: %s@." reason;
        1)
  in
  Cmd.v (Cmd.info "unparse" ~doc) Term.(const run $ app_required)

(* ---- check ---- *)

let check_cmd =
  let doc =
    "Validate a pipeline (DSL file or built-in app) and print every structured \
     diagnostic: cycles, dangling or duplicate kernel ids, empty iteration spaces, \
     oversized stencil masks, header incompatibilities."
  in
  let run app file =
    let loaded =
      match (app, file) with None, Some path -> parse_file path | _ -> load_validated ~app ~file
    in
    match loaded with
    | Error d -> fail_diag d
    | Ok p ->
      let diags = Ir.Validate.pipeline p in
      List.iter pp_diag diags;
      if List.exists Diag.is_error diags then 1
      else begin
        let what =
          match file with Some f -> f | None -> Option.value ~default:"pipeline" app
        in
        Format.printf "%s: OK (%d kernels, %dx%dx%d%s)@." what (Ir.Pipeline.num_kernels p)
          p.Ir.Pipeline.width p.Ir.Pipeline.height p.Ir.Pipeline.channels
          (match diags with [] -> "" | _ -> ", with warnings");
        0
      end
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ app_arg $ file_arg)

(* ---- serve / query: the kfused service ---- *)

let default_socket () =
  let dir =
    match Sys.getenv_opt "XDG_RUNTIME_DIR" with
    | Some d when d <> "" -> d
    | _ -> Filename.get_temp_dir_name ()
  in
  Filename.concat dir "kfused.sock"

let socket_arg =
  Arg.(
    value
    & opt string (default_socket ())
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the service listens on (default \
              \\$XDG_RUNTIME_DIR/kfused.sock).")

let exec_sandbox_arg =
  let policy_conv =
    Arg.conv
      ( (fun s ->
          match Exec.Supervisor.policy_of_string s with
          | Some p -> Ok p
          | None -> Error (`Msg "expected on or dlopen-trusted")),
        fun ppf p -> Format.pp_print_string ppf (Exec.Supervisor.policy_to_string p) )
  in
  Arg.(
    value
    & opt policy_conv Exec.Supervisor.Sandboxed
    & info [ "exec-sandbox" ] ~docv:"POLICY"
        ~doc:
          "How fuse_exec and stream sessions run generated native code.  \
           $(b,on) (default): every execution is a request to a supervised, \
           rlimited runner subprocess under a per-request deadline watchdog \
           and CPU budget — a plan that segfaults, loops or exhausts memory \
           yields a typed KF0905/KF0906/KF0907 reply, its runner is killed, \
           and the daemon is unharmed.  \
           $(b,dlopen-trusted): allow the fast in-process dlopen path \
           (trusts codegen); subprocess runs keep their rlimits.  Both keep \
           the per-plan circuit breaker.")

(* The connection front end both daemons share ({!Svc.Listener}): one
   flag, one default. *)
let max_conns_arg =
  Arg.(
    value
    & opt int Svc.Listener.default_max_conns
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Connections served concurrently (worker threads).  Connections \
           beyond this wait in the bounded admission queue.  Under \
           $(b,shard-serve) it is also each shard's own worker count.")

let queue_arg =
  Arg.(
    value
    & opt int Svc.Listener.default_queue
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission queue bound: connections accepted while all $(b,--max-conns) \
           workers are busy wait here; past it they are shed with a typed \
           KF0803 overloaded reply instead of queueing forever.")

let request_timeout_arg =
  Arg.(
    value
    & opt float Svc.Listener.default_request_timeout_ms
    & info [ "request-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-request wall-clock deadline, also armed as the connection's \
           socket receive/send timeout: a slow or vanished peer frees its \
           worker slot with a KF0804 reply, and a fusion search is \
           budget-capped to the remaining deadline.  Under $(b,shard-serve) \
           it also bounds each forward to a shard, and every shard gets \
           the same deadline.  0 disables.")

let drain_timeout_arg =
  Arg.(
    value
    & opt float Svc.Listener.default_drain_timeout_ms
    & info [ "drain-timeout" ] ~docv:"MS"
        ~doc:
          "On SIGTERM/SIGINT or a shutdown request: stop accepting, let \
           in-flight requests finish for up to MS milliseconds, then \
           forcibly close the stragglers and remove the socket.")

let serve_cmd =
  let doc = "Run kfused: serve fusion plans over a Unix-domain socket." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Starts the fusion service: a length-prefixed JSON protocol over a \
         Unix-domain socket.  Each request names a built-in application or \
         carries pipeline DSL source, with its own fusion-model parameters; \
         the reply is the fusion report.  Plans \
         are memoized in the content-addressed plan cache, shared by every \
         client; $(b,--cache)/$(b,--cache-dir) add the on-disk tier so plans \
         survive restarts.  Concurrent clients are served on their own \
         threads over one shared domain pool.";
      `P
        "Stop the server with a $(b,query --shutdown) request (or a signal; \
         a stale socket file left behind is replaced on the next start).";
    ]
  in
  let crash_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "crash-dir" ] ~docv:"DIR"
          ~doc:
            "Directory receiving crash artifacts: each native-execution \
             failure saves the plan's pipeline as a fuzz-corpus-compatible \
             .pipe file (seed, toolchain id and diagnostic in the header) \
             that $(b,kfusec fuzz --corpus DIR) can replay and shrink.  \
             Default: crash-corpus under the cache directory.")
  in
  let run jobs cache cache_dir socket max_conns queue request_timeout_ms drain_timeout_ms
      exec_sandbox crash_dir =
    (* The pool spawns its domains at the first request that can use
       them: lazy sessions and warm plans never do. *)
    with_jobs jobs @@ fun pool ->
    let dir = cache_dir_of ~cache ~cache_dir in
    let cache = Cache.Plan_cache.create ?dir () in
    match
      Svc.Server.start ~socket ~cache ~pool ~max_conns ~queue ~request_timeout_ms
        ~drain_timeout_ms ~exec_sandbox ?crash_dir ()
    with
    | Error d -> fail_diag d
    | Ok server ->
      (* SIGTERM/SIGINT initiate a graceful drain: stop accepting,
         finish in-flight requests up to --drain-timeout, remove the
         socket.  [wait] below performs the drain on this thread. *)
      let graceful = Sys.Signal_handle (fun _ -> Svc.Server.signal_stop server) in
      List.iter
        (fun s -> try Sys.set_signal s graceful with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigterm; Sys.sigint ];
      Format.printf
        "kfused: listening on %s (cache %d entries%s, %d workers + %d queue, exec \
         sandbox %s)@."
        socket (Cache.Plan_cache.stats cache).Cache.Plan_cache.capacity
        (match dir with Some d -> ", disk tier " ^ d | None -> ", memory only")
        max_conns queue
        (Exec.Supervisor.policy_to_string exec_sandbox);
      Svc.Server.wait server;
      Format.printf "kfused: shut down@.";
      0
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ jobs_arg $ cache_flag $ cache_dir_arg $ socket_arg $ max_conns_arg
      $ queue_arg $ request_timeout_arg $ drain_timeout_arg $ exec_sandbox_arg
      $ crash_dir_arg)

(* ---- shard-serve: the sharded fleet ---- *)

let shard_serve_cmd =
  let doc = "Run a supervised kfused fleet: K shard servers behind one router." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Launches $(b,--shards) full kfused servers, each on its own socket \
         under $(b,--shard-dir), sharing one content-addressed disk plan \
         cache, plus a router front-end on $(b,--socket) speaking the \
         unchanged client protocol.  Requests are mapped to shards by the \
         pipeline's rename-invariant structural fingerprint, so repeated \
         variants of one pipeline keep hitting one shard's warm in-memory \
         cache; identical concurrent cold requests are coalesced into a \
         single plan search.";
      `P
        "The supervisor health-checks each shard (protocol-level ping), \
         restarts crashes with exponential backoff, and trips a per-shard \
         circuit breaker on a restart storm: the shard is marked dead and \
         its keyspace reroutes to neighbors, each rerouted reply carrying a \
         typed KF0807 degraded-locality warning.  When no shard is live the \
         client gets a retryable KF0808 error — never a torn frame.  \
         SIGTERM drains the whole fleet: router edge first, then workers, \
         then each shard in parallel.";
    ]
  in
  let shard_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard-dir" ] ~docv:"DIR"
          ~doc:
            "Directory holding the per-shard sockets ($(b,shard-<i>.sock)), \
             logs ($(b,shard-<i>.log)) and, unless $(b,--cache-dir) says \
             otherwise, the shared disk plan cache.  Default: \
             $(b,kfused-shards) next to the router socket.")
  in
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"K" ~doc:"Shard server processes to supervise.")
  in
  let health_interval_arg =
    Arg.(
      value & opt float Svc.Router.default_health_interval_ms
      & info [ "health-interval-ms" ] ~docv:"MS"
          ~doc:"Supervisor tick: ping every live shard this often.")
  in
  let run socket shard_dir shards cache_dir max_conns queue request_timeout_ms
      drain_timeout_ms health_interval_ms =
    let dir =
      match shard_dir with
      | Some d -> d
      | None -> Filename.concat (Filename.dirname socket) "kfused-shards"
    in
    (* The shared disk tier is the point of the topology: every shard
       stores and finds plans in one content-addressed directory, so a
       rerouted request degrades to a disk hit, not a recompute. *)
    let cache_dir =
      match cache_dir with Some d -> d | None -> Filename.concat dir "cache"
    in
    let shard_argv ~index:_ ~socket =
      [
        Sys.executable_name; "serve"; "--socket"; socket; "--cache-dir"; cache_dir;
        "--max-conns"; string_of_int max_conns;
        "--request-timeout-ms"; string_of_float request_timeout_ms;
      ]
    in
    match
      Svc.Router.start ~socket ~dir ~count:shards ~shard_argv ~health_interval_ms ~max_conns
        ~queue ~request_timeout_ms ~drain_timeout_ms ()
    with
    | Error d -> fail_diag d
    | Ok router ->
      let graceful = Sys.Signal_handle (fun _ -> Svc.Router.signal_stop router) in
      List.iter
        (fun s -> try Sys.set_signal s graceful with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigterm; Sys.sigint ];
      Format.printf "kfused: router on %s, %d shards under %s (disk cache %s)@." socket
        shards dir cache_dir;
      if Svc.Router.await_ready router then Format.printf "kfused: fleet ready@."
      else Format.printf "kfused: fleet partially ready (see shard logs in %s)@." dir;
      Svc.Router.wait router;
      Format.printf "kfused: fleet shut down@.";
      0
  in
  Cmd.v
    (Cmd.info "shard-serve" ~doc ~man)
    Term.(
      const run $ socket_arg $ shard_dir_arg $ shards_arg $ cache_dir_arg $ max_conns_arg
      $ queue_arg $ request_timeout_arg $ drain_timeout_arg $ health_interval_arg)

let query_cmd =
  let doc = "Send one request to a running kfused and print the reply." in
  let op_arg =
    Arg.(
      value
      & vflag `Fuse
          [
            (`Fuse, info [ "fuse" ] ~doc:"Request a fusion plan (the default).");
            ( `Exec,
              info [ "exec" ]
                ~doc:
                  "Plan, then compile and natively execute the fused pipeline on \
                   the server (the $(b,fuse_exec) op); inputs are synthesized \
                   from $(b,--seed).  Requires a C toolchain on the server." );
            (`Stats, info [ "stats" ] ~doc:"Fetch cache and per-request statistics as JSON.");
            ( `Metrics,
              info [ "metrics" ] ~doc:"Fetch the Prometheus-style text metrics dump." );
            (`Ping, info [ "ping" ] ~doc:"Check liveness.");
            (`Shutdown, info [ "shutdown" ] ~doc:"Ask the server to shut down.");
          ])
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Bypass the server's plan cache for this request.")
  in
  let timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Bound the connect and every read/write on the connection; an \
             elapsed timeout is a typed KF0804 error (and retryable).")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry up to N times when the server sheds the request (KF0803) \
             or it times out (KF0804), with exponential backoff and \
             deterministic jitter.  Only idempotent requests are retried — \
             $(b,--shutdown) never is.")
  in
  let retry_backoff_arg =
    Arg.(
      value & opt float 50.0
      & info [ "retry-backoff-ms" ] ~docv:"MS"
          ~doc:"First backoff step; doubles per retry (capped at 2s).")
  in
  let width_arg =
    Arg.(
      value & opt (some int) None
      & info [ "width" ] ~docv:"W"
          ~doc:
            "With $(b,--exec): override the pipeline extent (registry apps \
             only; pair with $(b,--height)).")
  in
  let height_arg =
    Arg.(
      value & opt (some int) None
      & info [ "height" ] ~docv:"H" ~doc:"With $(b,--exec): see $(b,--width).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"With $(b,--exec): seed for the synthesized inputs.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"With $(b,--exec): timing samples per execution.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "With $(b,--exec): also run the reference interpreter on the \
             server and report $(b,max_abs_diff).")
  in
  let pixels_arg =
    Arg.(
      value & flag
      & info [ "pixels" ]
          ~doc:
            "With $(b,--exec): inline each output's pixel rows in the reply \
             (small extents only; the reply must fit the 16 MiB frame limit).")
  in
  let run common socket op strategy optimize inline no_cache timeout_ms retries
      retry_backoff_ms exec_mode width height seed repeat verify pixels =
    let retry =
      { Svc.Client.default_retry with attempts = retries; backoff_ms = retry_backoff_ms }
    in
    let exec print req =
      match Svc.Client.call ~socket ?timeout_ms ~retry req with
      | Error d -> fail_diag d
      | Ok v ->
        print v;
        0
    in
    let print_json v = print_endline (Svc.Jsonx.to_string v) in
    match op with
    | `Ping -> exec (fun _ -> print_endline "pong") Svc.Protocol.Ping
    | `Shutdown ->
      exec (fun _ -> print_endline "shutdown requested") Svc.Protocol.Shutdown
    | `Stats -> exec print_json Svc.Protocol.Stats
    | `Metrics ->
      exec
        (fun v ->
          match Svc.Jsonx.mem_str "text" v with
          | Some text -> print_string text
          | None -> print_json v)
        Svc.Protocol.Metrics
    | (`Fuse | `Exec) as which -> (
      match wire_pipeline ~none:(Error none_given) ~app:common.app ~file:common.file with
      | Error d -> fail_diag d
      | Ok (app, source) -> (
        let req = request common ~strategy ~optimize ~inline ~no_cache (app, source) in
        match which with
        | `Fuse -> exec print_json (Svc.Protocol.Fuse req)
        | `Exec ->
          exec print_json
            (Svc.Protocol.Fuse_exec
               {
                 Svc.Protocol.fuse = req;
                 exec_mode;
                 width;
                 height;
                 seed;
                 repeat;
                 verify;
                 return_pixels = pixels;
               })))
  in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(
      const run $ common_term $ socket_arg $ op_arg $ strategy_arg $ optimize_arg
      $ inline_arg $ no_cache_arg $ timeout_arg $ retries_arg $ retry_backoff_arg
      $ exec_mode_arg $ width_arg $ height_arg $ seed_arg $ repeat_arg $ verify_arg
      $ pixels_arg)

(* ---- repl: lazy-pipeline editing, fusion (re)planned on flush ---- *)

(* The repl is the interactive face of Kfuse_lazy: every line goes
   through the shared Command grammar, so a session is replayable as a
   --script and — with --socket — forwardable byte-for-byte to a kfused
   lazy session (the identical strings become lazy_edit/lazy_flush
   requests).  Prompts and errors go to stderr; stdout carries only
   command results, so local and daemon transcripts stay diffable. *)

let repl_print_plan tag (pl : Lz.Replan.plan) =
  let block_label b =
    String.concat " "
      (List.map
         (fun i -> (Ir.Pipeline.kernel pl.Lz.Replan.pipeline i).Ir.Kernel.name)
         (Iset.elements b))
  in
  Format.printf "%s: %d kernels -> %d, objective %.6f@." tag
    (Ir.Pipeline.num_kernels pl.Lz.Replan.pipeline)
    (Ir.Pipeline.num_kernels pl.Lz.Replan.fused)
    pl.Lz.Replan.objective;
  Format.printf "partition:%s@."
    (String.concat ""
       (List.map (fun b -> Printf.sprintf " [%s]" (block_label b)) pl.Lz.Replan.partition));
  let s = pl.Lz.Replan.stats in
  Format.printf "replan: %d blocks reused, %d replanned; %d edges reused, %d rescored%s@."
    s.Lz.Replan.blocks_reused s.Lz.Replan.blocks_replanned s.Lz.Replan.edges_reused
    s.Lz.Replan.edges_rescored
    (if s.Lz.Replan.fell_back then "; fell back to scratch" else "");
  Format.printf "fingerprint %s@." pl.Lz.Replan.fingerprint

let repl_print_show lp =
  Format.printf "pipeline %s: %dx%dx%d, generation %d@." (Lz.Lazy_pipeline.name lp)
    (Lz.Lazy_pipeline.width lp) (Lz.Lazy_pipeline.height lp)
    (Lz.Lazy_pipeline.channels lp)
    (Lz.Lazy_pipeline.generation lp);
  Format.printf "inputs: %s@." (String.concat " " (Lz.Lazy_pipeline.inputs lp));
  (match Lz.Lazy_pipeline.params lp with
  | [] -> ()
  | ps ->
    Format.printf "params: %s@."
      (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%g" n v) ps)));
  let ks = List.map (fun k -> k.Ir.Kernel.name) (Lz.Lazy_pipeline.kernels lp) in
  Format.printf "kernels (%d): %s@." (List.length ks) (String.concat " " ks)

(* What a repl command does in one back end: the local builder, or a
   lazy session inside a daemon.  [close rc] ends the session. *)
type 'r repl_backend = {
  edit : string -> (unit, Diag.t) result;
  flush : scratch:bool -> (unit, Diag.t) result;
  show : unit -> unit;
  plan : unit -> unit;
  close : int -> 'r;
}

(* The one command loop of both back ends.  Blank and comment lines are
   skipped, control commands are recognised here, and every other line
   is an edit.  Under --script the first rejected command ends the
   session with exit 1; interactively it is reported and the session
   continues. *)
let repl_loop ~interactive ~next_line b =
  let rec loop n =
    match next_line () with
    | None -> b.close 0
    | Some raw -> (
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then loop (n + 1)
      else
        let step =
          match Lz.Command.control line with
          | Some Lz.Command.Quit -> None
          | Some Lz.Command.Help -> Some (Ok (print_endline Lz.Command.help))
          | Some Lz.Command.Show -> Some (Ok (b.show ()))
          | Some Lz.Command.Plan -> Some (Ok (b.plan ()))
          | Some (Lz.Command.Flush { scratch }) -> Some (b.flush ~scratch)
          | _ -> Some (b.edit line)
        in
        match step with
        | None -> b.close 0
        | Some (Ok ()) -> loop (n + 1)
        | Some (Error d) when interactive ->
          Format.eprintf "kfusec: %a@." Diag.pp d;
          loop (n + 1)
        | Some (Error d) ->
          Format.eprintf "kfusec: repl:%d: %a@." n Diag.pp d;
          b.close 1)
  in
  loop 1

let no_plan_yet () = print_endline "no plan yet (run: flush)"

let no_builder =
  Diag.v Diag.Io_error
    "pass --app NAME, a DSL FILE, or --width and --height for an empty builder"

let repl_cmd =
  let doc = "Edit a pipeline interactively; fusion is (re)planned on each flush." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Builds a lazy pipeline — seeded from $(b,--app)/$(i,FILE), or empty \
         with $(b,--width) and $(b,--height) — and applies edit commands from \
         stdin or $(b,--script).  Fusion runs only on $(b,flush), through the \
         incremental replanning session: edits confined to one region of the \
         DAG reuse the min-cut decisions of every untouched region, and the \
         resulting plan is bit-identical to planning from scratch \
         ($(b,flush scratch) is the differential reference).";
      `P
        "Commands (one per line, '#' starts a comment): $(b,add <name> = \
         <expr>), $(b,del <name>), $(b,retarget <kernel> <from> <to>), \
         $(b,param <name> <value>), $(b,input <name>), $(b,flush [scratch]), \
         $(b,plan), $(b,show), $(b,help), $(b,quit).";
      `P
        "With $(b,--socket), the same lines drive a lazy session inside a \
         running kfused (lazy_open/lazy_edit/lazy_flush on the wire) and \
         replies are printed as JSON.  In $(b,--script) mode the first \
         rejected command aborts with exit 1; interactively, errors are \
         reported and the session continues.";
    ]
  in
  let script_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Run commands from $(docv) instead of stdin (batch mode: the \
             first rejected command aborts with exit 1).")
  in
  let socket_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Drive a lazy session inside the kfused listening on $(docv) \
             instead of planning locally.")
  in
  let timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"With $(b,--socket): bound the connect and every read/write.")
  in
  let width_arg =
    Arg.(
      value & opt (some int) None
      & info [ "width" ] ~docv:"W"
          ~doc:
            "Extent of an empty builder (pair with $(b,--height)); with \
             $(b,--app), overrides the app's extent.")
  in
  let height_arg =
    Arg.(value & opt (some int) None & info [ "height" ] ~docv:"H" ~doc:"See $(b,--width).")
  in
  let channels_arg =
    Arg.(
      value & opt int 1
      & info [ "channels" ] ~docv:"C" ~doc:"Channels of an empty builder (default 1).")
  in
  let inputs_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "inputs" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated input images an empty builder starts with \
             (more can be declared with the $(b,input) command).")
  in
  let run common script socket timeout_ms width height channels inputs =
    let source_lines =
      match script with
      | None -> Ok None
      | Some path -> Result.map (fun s -> Some (String.split_on_char '\n' s)) (read_file path)
    in
    match source_lines with
    | Error d -> fail_diag d
    | Ok script_lines -> (
      let interactive = script_lines = None in
      let next_line =
        match script_lines with
        | Some lines ->
          let rest = ref lines in
          fun () ->
            (match !rest with
            | [] -> None
            | l :: tl ->
              rest := tl;
              Some l)
        | None ->
          fun () ->
            prerr_string "kfuse> ";
            flush stderr;
            (try Some (input_line stdin) with End_of_file -> None)
      in
      (* Both modes open one request: seeded here as the daemon seeds it,
         or sent to the daemon. *)
      let none = if width = None || height = None then Error no_builder else Ok (None, None) in
      match wire_pipeline ~none ~app:common.app ~file:common.file with
      | Error d -> fail_diag d
      | Ok (app, source) -> (
        let openreq =
          {
            Svc.Protocol.app;
            source;
            width;
            height;
            channels = (if app = None && source = None then Some channels else None);
            inputs;
            c_mshared = Some common.config.F.Config.c_mshared;
            gamma = Some common.config.F.Config.gamma;
            tg = Some common.config.F.Config.tg;
          }
        in
        match socket with
        | None -> (
          (* Local mode: the builder and its planning session live here.
             A FILE is parsed here first, so that its parse errors name it. *)
          let parsed = Option.fold ~none:(Ok ()) ~some:(fun f -> Result.map ignore (parse_file f)) in
          match Result.bind (parsed common.file) (fun () -> Svc.Planner.lazy_builder openreq) with
          | Error d -> fail_diag d
          | Ok lp ->
            with_jobs common.jobs @@ fun pool ->
            repl_loop ~interactive ~next_line
              {
                edit =
                  (fun line ->
                    Result.bind (Lz.Command.parse_edit lp line) (Lz.Command.apply lp)
                    |> Result.map (Format.printf "applied: %s@."));
                flush =
                  (fun ~scratch ->
                    (if scratch then Lz.Lazy_pipeline.flush_scratch ~pool lp
                     else Lz.Lazy_pipeline.flush ~pool lp)
                    |> Result.map (repl_print_plan (if scratch then "flush scratch" else "flush")));
                show = (fun () -> repl_print_show lp);
                plan =
                  (fun () ->
                    match Lz.Lazy_pipeline.last lp with
                    | None -> no_plan_yet ()
                    | Some pl -> repl_print_plan "plan" pl);
                close = Fun.id;
              })
        | Some socket -> (
          (* Daemon mode: edit lines pass through verbatim as lazy_edit;
             flush becomes lazy_flush, and plan/show print the last
             replies. *)
          let print_json v = print_endline (Svc.Jsonx.to_string v) in
          let session =
            Svc.Client.with_connection ~socket ?timeout_ms @@ fun c ->
            match Svc.Client.request c (Svc.Protocol.Lazy_open openreq) with
            | Error _ as e -> e
            | Ok opened -> (
              print_json opened;
              match Svc.Jsonx.mem_str "id" opened with
              | None -> Error (Diag.v Diag.Protocol_error "lazy_open reply carries no \"id\"")
              | Some id ->
                let last_state = ref opened and last_plan = ref None in
                let send req keep =
                  Svc.Client.request c req
                  |> Result.map (fun v ->
                         keep v;
                         print_json v)
                in
                repl_loop ~interactive ~next_line
                  {
                    edit =
                      (fun command ->
                        send
                          (Svc.Protocol.Lazy_edit { Svc.Protocol.id; command })
                          (fun v -> last_state := v));
                    flush =
                      (fun ~scratch ->
                        send
                          (Svc.Protocol.Lazy_flush { Svc.Protocol.id; scratch })
                          (fun v -> last_plan := Some v));
                    show = (fun () -> print_json !last_state);
                    plan =
                      (fun () ->
                        match !last_plan with Some v -> print_json v | None -> no_plan_yet ());
                    close =
                      (fun rc ->
                        match Svc.Client.request c (Svc.Protocol.Lazy_close id) with
                        | Ok v ->
                          print_json v;
                          Ok rc
                        | Error d ->
                          Format.eprintf "kfusec: %a@." Diag.pp d;
                          Ok (if rc = 0 then 1 else rc));
                  })
          in
          match session with
          | Error d -> fail_diag d
          | Ok rc -> rc)))
  in
  Cmd.v
    (Cmd.info "repl" ~doc ~man)
    Term.(
      const run $ common_term $ script_arg $ socket_opt_arg $ timeout_arg $ width_arg
      $ height_arg $ channels_arg $ inputs_arg)

(* ---- fuzz: the differential fuzzing campaign ---- *)

let fuzz_cmd =
  let doc = "Fuzz the fusion engine with generated pipelines and differential oracles." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates random well-formed pipelines (seeded, fully reproducible) \
         and runs each through a bank of differential oracles: every \
         strategy's partition must be legal, the min-cut objective must not \
         beat the exhaustive optimum on small DAGs, fused evaluation must be \
         pixel-exact against the unfused pipeline, parallel and cached runs \
         must be bit-identical to fresh serial ones, and structural \
         fingerprints must be invariant under renaming, input permutation and \
         duplicate-then-CSE.  With $(b,--native), each fused plan is also \
         compiled with the host C toolchain and executed natively, and must \
         agree bitwise with the interpreter.";
      `P
        "Failures are shrunk to minimal reproducers and persisted to \
         $(b,--corpus); corpus entries are replayed before new generation, so \
         a found bug stays visible until fixed.  Exit status is 1 when \
         anything failed, 0 on a clean campaign.";
    ]
  in
  let cases_arg =
    Arg.(
      value
      & opt int Fz.Runner.default_options.Fz.Runner.cases
      & info [ "cases" ] ~docv:"N" ~doc:"Number of generated pipelines.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int Fz.Runner.default_options.Fz.Runner.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Campaign seed; case $(i,i) is a pure function of (SEED, i).")
  in
  let shrink_arg =
    Arg.(
      value & opt bool true
      & info [ "shrink" ] ~docv:"BOOL" ~doc:"Shrink failures to minimal reproducers.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Corpus directory: replay all entries before generating, persist \
             new failures as DSL files.")
  in
  let max_kernels_arg =
    Arg.(
      value
      & opt int Fz.Runner.default_options.Fz.Runner.max_kernels
      & info [ "max-kernels" ] ~docv:"K" ~doc:"Largest generated DAG (>= 2).")
  in
  let strict_optimal_arg =
    Arg.(
      value & flag
      & info [ "strict-optimal" ]
          ~doc:
            "Treat a heuristic optimality gap (min-cut beta below the \
             exhaustive optimum) as a failure, not a statistic.")
  in
  let max_failures_arg =
    Arg.(
      value
      & opt int Fz.Runner.default_options.Fz.Runner.max_failures
      & info [ "max-failures" ] ~docv:"N" ~doc:"Stop the campaign after N failures.")
  in
  let native_arg =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Add the interpreter-vs-native oracle: compile each fused plan with \
             the host C toolchain and demand bitwise agreement with the \
             interpreter.  Much slower (one C compile per case); skipped \
             silently when no toolchain is found.")
  in
  let oracle_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "oracle" ] ~docv:"NAMES"
          ~doc:
            "Run exactly these oracles (comma-separated), in order, instead \
             of the default bank — e.g. $(b,--oracle incremental-replan) for \
             the lazy-frontend differential smoke.  Overrides $(b,--native).")
  in
  let run cases seed shrink corpus max_kernels strict_optimal max_failures native oracles
      jobs =
    let oracles =
      Option.map
        (List.map (fun s ->
             match Fz.Oracle.name_of_string s with
             | Some n -> n
             | None ->
               Format.eprintf "kfusec fuzz: unknown oracle '%s'@." s;
               exit 2))
        oracles
    in
    if cases < 0 || max_kernels < 2 || max_failures < 1 then begin
      Format.eprintf "kfusec fuzz: invalid --cases/--max-kernels/--max-failures@.";
      2
    end
    else begin
      let options =
        {
          Fz.Runner.cases;
          seed;
          shrink;
          corpus;
          max_kernels;
          strict_optimal;
          jobs;
          max_failures;
          cache_dir = None;
          native;
          oracles;
        }
      in
      let summary = Fz.Runner.run ~log:(Format.eprintf "%s@.") options in
      Format.printf "%a" Fz.Runner.pp_summary summary;
      if Fz.Runner.failed summary then 1 else 0
    end
  in
  Cmd.v (Cmd.info "fuzz" ~doc ~man)
    Term.(
      const run $ cases_arg $ seed_arg $ shrink_arg $ corpus_arg $ max_kernels_arg
      $ strict_optimal_arg $ max_failures_arg $ native_arg $ oracle_arg $ jobs_arg)

(* ---- bench-native: fused vs unfused wall-clock on the registry apps ---- *)

let bench_native_cmd =
  let doc = "Benchmark fused vs. unfused native execution on the registry applications." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "For each application the pipeline is fused twice — baseline (no \
         fusion) and min-cut — compiled to C + OpenMP, and executed on \
         identical deterministic random inputs.  The median and \
         interquartile range of $(b,--runs) executions per variant are \
         reported, both as a summary table and as a \
         $(b,kfuse-bench-native/v2) JSON document (see EXPERIMENTS.md).";
      `P
        "Both variants are also run through the reference interpreter.  The \
         native backend is bit-exact by design, so the command exits 1 unless \
         every output of every application matches it exactly.";
    ]
  in
  let out_arg =
    Arg.(
      value & opt string "BENCH_native.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"JSON output path ($(b,-) for stdout).")
  in
  let runs_arg =
    Arg.(
      value & opt int 5
      & info [ "runs" ] ~docv:"N" ~doc:"Executions per variant; the median is reported.")
  in
  let width_arg =
    Arg.(
      value & opt (some int) None
      & info [ "width" ] ~docv:"W"
          ~doc:"Override the iteration-space width (default: the paper's sizes).")
  in
  let height_arg =
    Arg.(
      value & opt (some int) None
      & info [ "height" ] ~docv:"H" ~doc:"Override the iteration-space height.")
  in
  let apps_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "apps" ] ~docv:"NAMES"
          ~doc:"Comma-separated subset of applications (default: all eight).")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Compiled-artifact cache directory (default: the plan cache's \
                $(b,native) subdirectory).")
  in
  let run out runs width height apps exec_mode cache_dir =
    match Exec.Bench_native.run ?mode:exec_mode ?cache_dir ~runs ?width ?height ?apps () with
    | Error d -> fail_diag d
    | Ok bench -> (
      Format.printf "@[<v>%a@]@." Exec.Bench_native.pp_summary bench;
      let json = Exec.Bench_native.to_json bench in
      let write_failed =
        if out = "-" then begin
          print_string json;
          None
        end
        else
          match
            let oc = open_out out in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () -> output_string oc json)
          with
          | () ->
            Format.printf "wrote %s@." out;
            None
          | exception Sys_error msg -> Some (Diag.v ~file:out Diag.Io_error msg)
      in
      match write_failed with
      | Some d -> fail_diag d
      | None ->
        if Exec.Bench_native.exact bench then 0
        else begin
          Format.eprintf
            "kfusec: bench-native: outputs not bit-identical to the interpreter's \
             (max-abs-diff %g)@."
            (Exec.Bench_native.max_diff bench);
          1
        end)
  in
  Cmd.v
    (Cmd.info "bench-native" ~doc ~man)
    Term.(
      const run $ out_arg $ runs_arg $ width_arg $ height_arg $ apps_arg $ exec_mode_arg
      $ cache_dir_arg)

let main =
  let doc = "min-cut kernel fusion for image-processing pipelines (CGO 2019 reproduction)" in
  Cmd.group
    (Cmd.info "kfusec" ~version:"1.0.0" ~doc)
    [
      list_cmd; fuse_cmd; emit_cmd; estimate_cmd; run_cmd; explain_cmd; dot_cmd;
      unparse_cmd; check_cmd; serve_cmd; shard_serve_cmd; query_cmd; repl_cmd;
      fuzz_cmd; bench_native_cmd;
    ]

let () =
  (* End-to-end fault injection: KFUSE_FAULTS="cut.stoer_wagner@1" makes
     the named points throw deterministically, so CI can prove the
     binary degrades instead of dying. *)
  (match Kfuse_util.Faults.arm_from_env () with
  | Ok () -> ()
  | Error msg ->
    Format.eprintf "kfusec: malformed %s spec: %s@." Kfuse_util.Faults.env_var msg;
    exit 2);
  exit (Cmd.eval' main)
