module Diag = Kfuse_util.Diag
module Deadline = Kfuse_util.Deadline
module Faults = Kfuse_util.Faults
module Pool = Kfuse_util.Pool
module Iset = Kfuse_util.Iset
module Plan_cache = Kfuse_cache.Plan_cache
module Fingerprint = Kfuse_cache.Fingerprint
module F = Kfuse_fusion
module Ir = Kfuse_ir
module Image = Kfuse_image.Image
module Native = Kfuse_exec.Native
module Supervisor = Kfuse_exec.Supervisor
module Toolchain = Kfuse_exec.Toolchain
module Session = Kfuse_stream.Session
module Frames = Kfuse_stream.Frames
module Lz = Kfuse_lazy

(* One open stream: the per-stream temporal state plus the pinned
   compiled plan.  Its session table serializes pushes, so the temporal
   window advances exactly once per processed frame, and releases the
   plan exactly once. *)
type stream = {
  session : Session.t;
  stream_seed : int;
  stream_fp : string;  (* exact fingerprint, the breaker's key *)
  stream_plan : Native.plan option;  (* None = interpreter-only stream *)
}

(* One open lazy-pipeline editing session: a mutable builder plus its
   incremental replanning memos.  Its session table serializes edits
   and flushes (builders are not thread-safe); it pins no native plan. *)
type lazy_session = { builder : Lz.Lazy_pipeline.t; mutable flushes : int }

(* Everything a request handler needs; the connection front end lives
   in {!Listener}. *)
type state = {
  cache : Plan_cache.t;
  key_memo : Key_memo.t;
  pool : Pool.t;
  metrics : Metrics.t;
  (* Native-execution safety net: how generated code is run
     ([exec_sandbox]), the rlimits applied to sandboxed children, where
     crash artifacts are persisted, and the per-fingerprint circuit
     breaker that quarantines plans that keep crashing. *)
  exec_sandbox : Supervisor.policy;
  exec_limits : Supervisor.limits;
  crash_dir : string;
  breaker : Supervisor.Breaker.t;
  started_at : float;
  (* Sessions, one table per kind.  [max_streams] bounds each kind's
     open sessions ([KF0803] beyond it), [stream_idle_ms] is both
     kinds' idle-expiry horizon (<= 0 disables). *)
  streams : stream Session_table.t;
  lazies : lazy_session Session_table.t;
  max_streams : int;
  stream_idle_ms : float;
}

(* Each stream's in-flight push bound: a push beyond it is shed with
   [KF0805] before it touches the stream's temporal state. *)
let stream_queue = 4

(* ---- request handling ---- *)

let load_pipeline ?size (f : Protocol.fuse_request) =
  match (f.Protocol.app, f.Protocol.source) with
  | Some name, _ -> (
    match Kfuse_apps.Registry.find name with
    | Some e -> (
      match size with
      | None -> Ok (e.Kfuse_apps.Registry.pipeline ())
      | Some (width, height) -> Ok (e.Kfuse_apps.Registry.small ~width ~height))
    | None ->
      Error
        (Diag.errorf Diag.Io_error "unknown application %S (try: %s)" name
           (String.concat ", " Kfuse_apps.Registry.names)))
  | None, Some src ->
    if size <> None then
      Error
        (Diag.v Diag.Protocol_error
           "width/height overrides apply to registry apps only, not DSL source")
    else Kfuse_dsl.Elaborate.parse_pipeline_diag src
  | None, None -> Error (Diag.v Diag.Protocol_error "fuse without app or source")

let validated p =
  match Ir.Validate.result p with Ok p -> Ok p | Error d -> Error d

let size_of width height =
  match (width, height) with Some w, Some h -> Some (w, h) | _ -> None

(* The per-request fusion model: the defaults under the request's
   overrides. *)
let request_config ~c_mshared ~gamma ~tg =
  let d = F.Config.default in
  {
    d with
    F.Config.c_mshared = Option.value ~default:d.F.Config.c_mshared c_mshared;
    gamma = Option.value ~default:d.F.Config.gamma gamma;
    tg = Option.value ~default:d.F.Config.tg tg;
  }

let block_names (p : Ir.Pipeline.t) block =
  List.map (fun i -> Jsonx.Str (Ir.Pipeline.kernel p i).Ir.Kernel.name) (Iset.elements block)

let report_fields (r : F.Driver.report) =
  [
    ("strategy", Jsonx.Str (F.Driver.strategy_to_string r.F.Driver.strategy));
    ("kernels_in", Jsonx.Num (float_of_int (Ir.Pipeline.num_kernels r.F.Driver.input)));
    ("kernels_out", Jsonx.Num (float_of_int (Ir.Pipeline.num_kernels r.F.Driver.fused)));
    ("objective", Jsonx.Num r.F.Driver.objective);
    ( "partition",
      Jsonx.Arr
        (List.map (fun b -> Jsonx.Arr (block_names r.F.Driver.input b)) r.F.Driver.partition)
    );
    ("inlined", Jsonx.Arr (List.map (fun s -> Jsonx.Str s) r.F.Driver.inlined));
    ("degraded", Jsonx.Bool r.F.Driver.degraded);
    ( "warnings",
      Jsonx.Arr (List.map (fun d -> Jsonx.Str (Diag.to_string d)) r.F.Driver.warnings) );
  ]

(* Shared planning path of [fuse], [fuse_exec] and [stream_open]: key
   the request (memoized on its bytes), budget against the deadline,
   serve from the plan cache.  The pipeline is loaded and validated only
   when the key is not memoized or a plan has to be computed. *)
let plan t ~deadline ?size (f : Protocol.fuse_request) =
  let config =
    request_config ~c_mshared:f.Protocol.c_mshared ~gamma:f.Protocol.gamma ~tg:f.Protocol.tg
  in
  let strategy = f.Protocol.strategy in
  let optimize = f.Protocol.optimize and inline = f.Protocol.inline in
  let pipeline = lazy (Result.bind (load_pipeline ?size f) validated) in
  (* The fusion-search budget is capped by what remains of the
     request's wall-clock deadline: a request that already spent its
     time queueing degrades (or fails under strict) immediately
     instead of hanging in the search. *)
  let budget_ms () =
    match (Deadline.remaining_ms deadline, f.Protocol.budget_ms) with
    | None, b -> b
    | Some r, None -> Some r
    | Some r, Some b -> Some (Float.min r b)
  in
  let compute () =
    Result.bind (Lazy.force pipeline) (fun p ->
        let t0 = Unix.gettimeofday () in
        Result.map
          (fun r -> (r, (Unix.gettimeofday () -. t0) *. 1000.))
          (F.Driver.run_result ~optimize ~inline ~strict:f.Protocol.strict ~pool:t.pool
             ?budget_ms:(budget_ms ()) config strategy p))
  in
  if f.Protocol.no_cache then Result.map (fun (r, ms) -> (r, "bypass", ms)) (compute ())
  else
    let key () =
      Result.map
        (Fingerprint.plan_key ~config ~strategy ~optimize ~inline)
        (Lazy.force pipeline)
    in
    match Key_memo.key t.key_memo ?size f key with
    | Error _ as e -> e
    | Ok key -> (
      match Plan_cache.find t.cache key with
      | Some (r, outcome) -> Ok (r, Plan_cache.outcome_to_string outcome, 0.0)
      | None -> (
        match compute () with
        | Error _ as e -> e
        | Ok (r, ms) ->
          Plan_cache.store t.cache key r;
          (* find-then-store keeps the outcome (miss vs miss-iso)
             distinction out of the hot reply path; the distinction
             lives in the cache stats. *)
          Ok (r, "miss", ms)))

let plan_fields (r, outcome, plan_ms) =
  report_fields r
  @ [
      ("cached", Jsonx.Bool (outcome = "hit" || outcome = "hit-disk"));
      ("outcome", Jsonx.Str outcome);
      ("plan_ms", Jsonx.Num plan_ms);
    ]

let handle_fuse t ~deadline (f : Protocol.fuse_request) =
  match plan t ~deadline f with
  | Error d -> Protocol.error d
  | Ok served -> Protocol.ok (plan_fields served)

(* Planning may have eaten the whole request budget (cache miss on a
   slow search): fail typed before paying for a compile. *)
let check_deadline t deadline ~before =
  match Deadline.check deadline with
  | () -> Ok ()
  | exception Deadline.Expired _ ->
    Metrics.incr t.metrics "requests_timed_out";
    Error
      (Diag.errorf Diag.Request_timeout "request deadline expired after planning, before %s"
         before)

let output_json ?pixels (name, (s : Native.summary)) =
  Jsonx.Obj
    ([
       ("name", Jsonx.Str name);
       ("width", Jsonx.Num (float_of_int s.Native.width));
       ("height", Jsonx.Num (float_of_int s.Native.height));
       ("min", Jsonx.Num s.Native.min);
       ("max", Jsonx.Num s.Native.max);
       ("mean", Jsonx.Num (Native.mean s));
     ]
    @
    match pixels with
    | None -> []
    | Some img ->
      [
        ( "pixels",
          Jsonx.Arr
            (List.init s.Native.height (fun y ->
                 Jsonx.Arr (List.init s.Native.width (fun x -> Jsonx.Num (Image.get img x y))))) );
      ])

let images_json ~return_pixels outputs =
  List.map
    (fun (name, img) ->
      output_json ?pixels:(if return_pixels then Some img else None) (name, Native.summarize img))
    outputs

let warnings_json warns =
  Jsonx.Arr (List.map (fun d -> Jsonx.Str (Diag.to_string d)) warns)

(* A verify reply's fields: [bit_exact] is the verdict, every output
   bit for bit the interpreter's (NaNs and signed zeros included);
   [max_abs_diff] the report.  Both sides sort outputs by name, so
   positional zip holds. *)
let verify_fields reference outputs =
  [
    ( "max_abs_diff",
      Jsonx.Num
        (List.fold_left2
           (fun acc (_, want) (_, got) -> Float.max acc (Image.max_abs_diff want got))
           0.0 reference outputs) );
    ( "bit_exact",
      Jsonx.Bool (List.for_all2 (fun (_, a) (_, b) -> Image.equal a b) reference outputs) );
  ]

let exact_fields = [ ("max_abs_diff", Jsonx.Num 0.0); ("bit_exact", Jsonx.Bool true) ]

(* ---- native execution policy ---- *)

(* The one place [--exec-sandbox] meets a request's [exec_mode].  Only
   the supervised subprocess can be resource-capped or killed, so the
   sandbox overrides a requested dlopen (visibly: ["sandboxed": true] in
   the reply).  A trusted daemon honours the request; [None] lets
   {!Native.prepare} try dlopen with a subprocess fallback. *)
let exec_mode t requested =
  match t.exec_sandbox with
  | Supervisor.Sandboxed -> Some Native.Subprocess
  | Supervisor.Dlopen_trusted -> requested

let native_cache_dir t =
  Option.map (fun d -> Filename.concat d "native") (Plan_cache.dir t.cache)

let sandboxed_field t = ("sandboxed", Jsonx.Bool (t.exec_sandbox = Supervisor.Sandboxed))

let quarantine_warning t qd ~served =
  Diag.warningf Diag.Exec_failed
    "plan quarantined after %d consecutive native failures (last: %s); %s by the interpreter"
    (Supervisor.Breaker.threshold t.breaker)
    (Diag.to_string qd) served

(* A quarantined plan still answers: the interpreter computes the
   pixels, the reply carries ["mode" = "interpreter"] plus a warning, so
   degradation is visible but not fatal — PR 2's degradation contract
   applied to native execution. *)
let interpreter_fallback t ~served ~warning ~verify ~return_pixels p inputs =
  Metrics.incr t.metrics "native_exec_fallbacks";
  let t0 = Unix.gettimeofday () in
  let outputs = Ir.Eval.run_outputs p (Ir.Eval.env_of_list (Native.materialize p inputs)) in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Protocol.ok
    (plan_fields served
    @ [
        ( "exec",
          Jsonx.Obj
            [
              ("mode", Jsonx.Str "interpreter");
              ("quarantined", Jsonx.Bool true);
              ("artifact", Jsonx.Str "");
              ("artifact_cached", Jsonx.Bool false);
              ("compile_ms", Jsonx.Num 0.0);
              ("exec_ms", Jsonx.Num ms);
              ("samples_ms", Jsonx.Arr [ Jsonx.Num ms ]);
              ("warnings", warnings_json [ warning ]);
            ] );
        ("outputs", Jsonx.Arr (images_json ~return_pixels outputs));
      ]
    (* The fallback *is* the interpreter, so a requested verify is
       trivially exact. *)
    @ if verify then exact_fields else [])

(* Account a supervised-execution failure: counters, a crash artifact
   for the fuzzer to shrink, and a breaker strike that may quarantine
   the fingerprint. *)
let record_exec_failure t ~fp ~seed p (d : Diag.t) =
  (match d.Diag.code with
  | Diag.Exec_timeout -> Metrics.incr t.metrics "native_exec_timeouts"
  | Diag.Exec_crashed -> Metrics.incr t.metrics "native_exec_crashes"
  | Diag.Exec_limit -> Metrics.incr t.metrics "native_exec_limits"
  | _ -> ());
  let toolchain =
    match Toolchain.find () with Ok tc -> Toolchain.id tc | Error _ -> "unknown"
  in
  (* A save that fails (an unwritable or full crash directory) loses
     this crash's forensics: count it and say so on stderr. *)
  (match Supervisor.save_crash_artifact ~dir:t.crash_dir ~seed ~toolchain ~diag:d p with
  | Ok _ -> ()
  | Error msg ->
    Metrics.incr t.metrics "crash_save_failures";
    Printf.eprintf "kfused: crash artifact not saved in %s: %s\n%!" t.crash_dir msg);
  if Supervisor.Breaker.record_failure t.breaker fp d then
    Metrics.incr_gauge t.metrics "quarantined_plans"

let record_exec_success t fp =
  if Supervisor.Breaker.record_success t.breaker fp then
    Metrics.decr_gauge t.metrics "quarantined_plans"

let is_supervised_failure (d : Diag.t) =
  match d.Diag.code with
  | Diag.Exec_timeout | Diag.Exec_crashed | Diag.Exec_limit -> true
  | _ -> false

(* A request is refused before anything is compiled or allocated when
   its bytes could never fit the sandbox's limits; the refusal is the
   request's fault, not the plan's, so it is neither a breaker strike
   nor a crash artifact.  Only a request that asks for pixels
   ([verify], [return_pixels]) or falls back to the interpreter has its
   inputs drawn into images; otherwise the runner's arena is the only
   place they ever exist. *)
let handle_fuse_exec t ~deadline (e : Protocol.fuse_exec_request) =
  let ( let* ) = Result.bind in
  let checked =
    let* ((r, _, _) as served) =
      plan t ~deadline ?size:(size_of e.Protocol.width e.Protocol.height) e.Protocol.fuse
    in
    let p = r.F.Driver.fused in
    let* () = Native.check_limits t.exec_limits p in
    let* () = check_deadline t deadline ~before:"native execution" in
    Ok (served, p)
  in
  match checked with
  | Error d -> Protocol.error d
  | Ok (served, p) -> (
    let input =
      Native.Random { rng = Kfuse_util.Rng.create e.Protocol.seed; lo = 0.0; hi = 1.0 }
    in
    let return_pixels = e.Protocol.return_pixels in
    let fp = Fingerprint.exact p in
    match Supervisor.Breaker.check t.breaker fp with
    | Supervisor.Breaker.Quarantined qd ->
      interpreter_fallback t ~served
        ~warning:(quarantine_warning t qd ~served:"served")
        ~verify:e.Protocol.verify ~return_pixels p input
    | Supervisor.Breaker.Allow | Supervisor.Breaker.Probe -> (
      let execute input output =
        Native.execute ?mode:(exec_mode t e.Protocol.exec_mode) ~deadline ~limits:t.exec_limits
          ?cache_dir:(native_cache_dir t) ~repeat:e.Protocol.repeat p input output
      in
      let ran =
        if e.Protocol.verify || return_pixels then
          let inputs = Native.materialize p input in
          Result.map
            (fun res ->
              let verify_fields =
                if not e.Protocol.verify then []
                else
                  verify_fields
                    (Ir.Eval.run_outputs p (Ir.Eval.env_of_list inputs))
                    res.Native.outputs
              in
              ({ res with Native.outputs = images_json ~return_pixels res.Native.outputs },
               verify_fields))
            (execute (Native.Images inputs) Native.Pixels)
        else
          Result.map
            (fun res -> ({ res with Native.outputs = List.map output_json res.Native.outputs }, []))
            (execute input Native.Summaries)
      in
      match ran with
      | Error d ->
        if is_supervised_failure d then record_exec_failure t ~fp ~seed:e.Protocol.seed p d;
        Protocol.error d
      | Ok (res, verify_fields) ->
        record_exec_success t fp;
        Protocol.ok
          (plan_fields served
          @ [
              ( "exec",
                Jsonx.Obj
                  [
                    ("mode", Jsonx.Str (Native.mode_to_string res.Native.mode_used));
                    sandboxed_field t;
                    ("quarantined", Jsonx.Bool false);
                    ("artifact", Jsonx.Str res.Native.artifact);
                    ("artifact_cached", Jsonx.Bool res.Native.cached);
                    ("compile_ms", Jsonx.Num res.Native.compile_ms);
                    ("exec_ms", Jsonx.Num res.Native.exec_ms);
                    ( "samples_ms",
                      Jsonx.Arr (List.map (fun s -> Jsonx.Num s) res.Native.samples_ms) );
                    ("warnings", warnings_json res.Native.warnings);
                  ] );
              ("outputs", Jsonx.Arr res.Native.outputs);
            ]
          @ verify_fields)))

(* ---- sessions ---- *)

let unknown kind id =
  Protocol.error
    (Diag.errorf Diag.Stream_unknown
       "unknown %s %S (never opened, already closed, or idle-expired)" kind id)

let handle_stream_open t ~deadline (o : Protocol.stream_open_request) =
  let opened =
    Session_table.open_ t.streams
      ~shed:
        (Diag.errorf Diag.Overloaded
           "server at max_streams (%d): close a stream or retry with backoff")
    @@ fun () ->
    let ( let* ) = Result.bind in
    let* ((r, _, _) as served) =
      plan t ~deadline ?size:(size_of o.Protocol.width o.Protocol.height) o.Protocol.fuse
    in
    let p = r.F.Driver.fused in
    (* As in [handle_fuse_exec]: a stream whose frames could never fit
       the sandbox is refused before anything compiles, and the error
       releases its reserved slot. *)
    let* () = Native.check_limits t.exec_limits p in
    let* session = Session.create p in
    let* () = check_deadline t deadline ~before:"the stream compile" in
    (* An interpreter-only stream keeps the daemon useful on hosts
       without a C toolchain. *)
    let* stream_plan, warns =
      match
        Native.prepare ?cache_dir:(native_cache_dir t)
          ?mode:(exec_mode t o.Protocol.exec_mode) p
      with
      | Ok pl -> Ok (Some pl, Native.plan_warnings pl)
      | Error d when d.Diag.code = Diag.Toolchain_missing ->
        Ok
          ( None,
            [
              Diag.warningf Diag.Toolchain_missing "%s; stream served by the interpreter"
                d.Diag.message;
            ] )
      | Error d -> Error d
    in
    let st =
      { session; stream_seed = o.Protocol.seed; stream_fp = Fingerprint.exact p; stream_plan }
    in
    Ok (st, (served, st, warns))
  in
  match opened with
  | Error d -> Protocol.error d
  | Ok (id, (served, st, warns)) ->
    let p = Session.pipeline st.session in
    let mode, artifact, cached, compile_ms =
      match st.stream_plan with
      | None -> ("interpreter", "", false, 0.0)
      | Some pl ->
        ( Native.mode_to_string (Native.plan_mode pl),
          Native.plan_artifact pl,
          Native.plan_cached pl,
          Native.plan_compile_ms pl )
    in
    Protocol.ok
      (plan_fields served
      @ [
          ("id", Jsonx.Str id);
          ("depth", Jsonx.Num (float_of_int (Session.depth st.session)));
          ("width", Jsonx.Num (float_of_int p.Ir.Pipeline.width));
          ("height", Jsonx.Num (float_of_int p.Ir.Pipeline.height));
          ("seed", Jsonx.Num (float_of_int o.Protocol.seed));
          ( "exec",
            Jsonx.Obj
              [
                ("mode", Jsonx.Str mode);
                sandboxed_field t;
                ("artifact", Jsonx.Str artifact);
                ("artifact_cached", Jsonx.Bool cached);
                ("compile_ms", Jsonx.Num compile_ms);
                ("warnings", warnings_json warns);
              ] );
        ])

(* One frame of stream [s], run under the stream's session lock. *)
let push_frame t ~deadline (s : Protocol.stream_push_request) st =
  let session = st.session in
  let p = Session.pipeline session in
  let params = Session.params session in
  let seq = Session.frames session in
  let frame =
    Frames.synthetic ~seed:st.stream_seed ~width:p.Ir.Pipeline.width
      ~height:p.Ir.Pipeline.height ~index:seq
  in
  let bindings = Session.bindings session frame in
  let interp () =
    let t0 = Unix.gettimeofday () in
    let outs = Ir.Eval.run_outputs ~params p (Ir.Eval.env_of_list bindings) in
    (outs, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let verdict =
    match st.stream_plan with
    | None -> Supervisor.Breaker.Allow
    | Some _ -> Supervisor.Breaker.check t.breaker st.stream_fp
  in
  (* (outputs, mode, quarantined, fallback, exec_ms, warnings,
     the verify fields when verify). *)
  let outputs, mode, quarantined, fallback, exec_ms, warns, diff =
    match (verdict, st.stream_plan) with
    | _, None ->
      let outs, ms = interp () in
      (outs, "interpreter", false, false, ms, [], exact_fields)
    | Supervisor.Breaker.Quarantined qd, Some _ ->
      Metrics.incr t.metrics "native_exec_fallbacks";
      let outs, ms = interp () in
      ( outs, "interpreter", true, true, ms,
        [ quarantine_warning t qd ~served:"frame served" ], exact_fields )
    | (Supervisor.Breaker.Allow | Supervisor.Breaker.Probe), Some pl -> (
      match Native.run_plan ~params ~deadline ~limits:t.exec_limits pl bindings with
      | Ok res ->
        record_exec_success t st.stream_fp;
        let diff =
          if not s.Protocol.verify then [] else verify_fields (fst (interp ())) res.Native.outputs
        in
        ( res.Native.outputs,
          Native.mode_to_string res.Native.mode_used,
          false, false, res.Native.exec_ms, [], diff )
      | Error d ->
        (* The frame still ships: fall back to the interpreter on the
           SAME bindings, then advance — the stream's pixel history is
           identical to an all-interpreter run, which is exactly what
           the chaos oracle asserts. *)
        if is_supervised_failure d then
          record_exec_failure t ~fp:st.stream_fp ~seed:st.stream_seed p d;
        Metrics.incr t.metrics "native_exec_fallbacks";
        let outs, ms = interp () in
        (outs, "interpreter", false, true, ms,
         [ { d with Diag.severity = Diag.Warning } ], exact_fields))
  in
  Session.advance session frame;
  Metrics.incr t.metrics "frames_pushed";
  Protocol.ok
    ([
       ("id", Jsonx.Str s.Protocol.id);
       ("seq", Jsonx.Num (float_of_int seq));
       ("frames", Jsonx.Num (float_of_int (seq + 1)));
       ( "exec",
         Jsonx.Obj
           [
             ("mode", Jsonx.Str mode);
             sandboxed_field t;
             ("quarantined", Jsonx.Bool quarantined);
             ("fallback", Jsonx.Bool fallback);
             ("exec_ms", Jsonx.Num exec_ms);
             ("warnings", warnings_json warns);
           ] );
       ( "outputs",
         Jsonx.Arr (images_json ~return_pixels:s.Protocol.return_pixels outputs) );
     ]
    @ if s.Protocol.verify then diff else [])

let handle_stream_push t ~deadline (s : Protocol.stream_push_request) =
  let busy =
    match Faults.hit "stream.shed" with () -> false | exception Faults.Fault _ -> true
  in
  match Session_table.use t.streams ~busy s.Protocol.id (push_frame t ~deadline s) with
  | Ok resp -> resp
  | Error Session_table.Unknown -> unknown "stream" s.Protocol.id
  | Error (Session_table.Busy n) ->
    (* Shed BEFORE touching temporal state: the frame was not processed
       and the stream did not advance, so the client can retry the push
       verbatim. *)
    Metrics.incr t.metrics "frames_shed";
    Protocol.error
      (Diag.errorf Diag.Stream_backpressure
         "stream %S frame queue full (%d in flight of %d): frame dropped, retry with backoff"
         s.Protocol.id n stream_queue)

let handle_stream_close t id =
  match Session_table.close t.streams id (fun st -> Session.frames st.session) with
  | None -> unknown "stream" id
  | Some frames -> Protocol.ok [ ("id", Jsonx.Str id); ("frames", Jsonx.Num (float_of_int frames)) ]

let lazy_state_fields builder =
  [
    ("name", Jsonx.Str (Lz.Lazy_pipeline.name builder));
    ("width", Jsonx.Num (float_of_int (Lz.Lazy_pipeline.width builder)));
    ("height", Jsonx.Num (float_of_int (Lz.Lazy_pipeline.height builder)));
    ("channels", Jsonx.Num (float_of_int (Lz.Lazy_pipeline.channels builder)));
    ("generation", Jsonx.Num (float_of_int (Lz.Lazy_pipeline.generation builder)));
    ( "inputs",
      Jsonx.Arr (List.map (fun i -> Jsonx.Str i) (Lz.Lazy_pipeline.inputs builder)) );
    ( "kernels",
      Jsonx.Arr
        (List.map
           (fun k -> Jsonx.Str k.Ir.Kernel.name)
           (Lz.Lazy_pipeline.kernels builder)) );
  ]

(* Input names reach DSL source later (the [add] command's expression
   scope), so reject anything that is not an identifier at the door. *)
let valid_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let seed_builder config (o : Protocol.lazy_open_request) =
  match (o.Protocol.app, o.Protocol.source) with
  | None, None -> (
    (* The codec guarantees width/height for an empty builder. *)
    let width = Option.get o.Protocol.width and height = Option.get o.Protocol.height in
    let rec dup = function
      | [] -> None
      | x :: rest -> if List.mem x rest then Some x else dup rest
    in
    match
      (List.find_opt (fun i -> not (valid_ident i)) o.Protocol.inputs, dup o.Protocol.inputs)
    with
    | Some bad, _ -> Error (Diag.errorf Diag.Elab_error "input %S is not an identifier" bad)
    | None, Some d -> Error (Diag.errorf Diag.Duplicate_name "duplicate input %S" d)
    | None, None ->
      Ok
        (Lz.Lazy_pipeline.create
           ~channels:(Option.value ~default:1 o.Protocol.channels)
           ~inputs:o.Protocol.inputs ~width ~height config))
  | app, source ->
    let fr =
      {
        Protocol.app;
        source;
        strategy = F.Driver.Mincut;
        c_mshared = None;
        gamma = None;
        tg = None;
        optimize = false;
        inline = false;
        strict = false;
        budget_ms = None;
        no_cache = false;
      }
    in
    Result.map (Lz.Lazy_pipeline.of_pipeline config)
      (Result.bind
         (load_pipeline ?size:(size_of o.Protocol.width o.Protocol.height) fr)
         validated)

let handle_lazy_open t (o : Protocol.lazy_open_request) =
  let opened =
    Session_table.open_ t.lazies
      ~shed:
        (Diag.errorf Diag.Overloaded
           "server at max_streams (%d) lazy sessions: close one or retry with backoff")
    @@ fun () ->
    let config =
      request_config ~c_mshared:o.Protocol.c_mshared ~gamma:o.Protocol.gamma ~tg:o.Protocol.tg
    in
    Result.bind (F.Config.validate_result config) @@ fun () ->
    Result.map (fun builder -> ({ builder; flushes = 0 }, builder)) (seed_builder config o)
  in
  match opened with
  | Error d -> Protocol.error d
  | Ok (id, builder) -> Protocol.ok (("id", Jsonx.Str id) :: lazy_state_fields builder)

let with_lazy t id f =
  match Session_table.use t.lazies id f with
  | Ok resp -> resp
  | Error (Session_table.Unknown | Session_table.Busy _) -> unknown "lazy session" id

let handle_lazy_edit t (e : Protocol.lazy_edit_request) =
  with_lazy t e.Protocol.id @@ fun lz ->
  match
    Result.bind (Lz.Command.parse lz.builder e.Protocol.command) (Lz.Command.apply lz.builder)
  with
  | Error d -> Protocol.error d
  | Ok description ->
    Metrics.incr t.metrics "lazy_edits";
    Protocol.ok
      (("id", Jsonx.Str e.Protocol.id)
      :: ("applied", Jsonx.Str description)
      :: lazy_state_fields lz.builder)

let lazy_plan_fields ~id ~scratch ~replan_ms (pl : Lz.Replan.plan) =
  let s = pl.Lz.Replan.stats in
  let int n = Jsonx.Num (float_of_int n) in
  [
    ("id", Jsonx.Str id);
    ("scratch", Jsonx.Bool scratch);
    ("kernels_in", int (Ir.Pipeline.num_kernels pl.Lz.Replan.pipeline));
    ("kernels_out", int (Ir.Pipeline.num_kernels pl.Lz.Replan.fused));
    ("objective", Jsonx.Num pl.Lz.Replan.objective);
    ("fingerprint", Jsonx.Str pl.Lz.Replan.fingerprint);
    ( "partition",
      Jsonx.Arr
        (List.map
           (fun b -> Jsonx.Arr (block_names pl.Lz.Replan.pipeline b))
           pl.Lz.Replan.partition) );
    ( "replan",
      Jsonx.Obj
        [
          ("blocks_reused", int s.Lz.Replan.blocks_reused);
          ("blocks_replanned", int s.Lz.Replan.blocks_replanned);
          ("edges_reused", int s.Lz.Replan.edges_reused);
          ("edges_rescored", int s.Lz.Replan.edges_rescored);
          ("fell_back", Jsonx.Bool s.Lz.Replan.fell_back);
          ("replan_ms", Jsonx.Num replan_ms);
        ] );
  ]

(* A lazy flush plans on the request's own domain.  An incremental
   flush decides a few blocks, one per wave, and a scratch flush is its
   audit: too little to share, and a parallel batch would spawn the
   pool's domains, which then stop with every minor collection of the
   daemon for as long as it runs. *)
let handle_lazy_flush t (f : Protocol.lazy_flush_request) =
  with_lazy t f.Protocol.id @@ fun lz ->
  let t0 = Unix.gettimeofday () in
  let planned =
    if f.Protocol.scratch then Lz.Lazy_pipeline.flush_scratch lz.builder
    else Lz.Lazy_pipeline.flush lz.builder
  in
  match planned with
  | Error d -> Protocol.error d
  | Ok plan ->
    lz.flushes <- lz.flushes + 1;
    Metrics.incr t.metrics "lazy_flushes";
    Protocol.ok
      (lazy_plan_fields ~id:f.Protocol.id ~scratch:f.Protocol.scratch
         ~replan_ms:((Unix.gettimeofday () -. t0) *. 1000.)
         plan)

let handle_lazy_close t id =
  match Session_table.close t.lazies id (fun lz -> lz.flushes) with
  | None -> unknown "lazy session" id
  | Some flushes ->
    Protocol.ok [ ("id", Jsonx.Str id); ("flushes", Jsonx.Num (float_of_int flushes)) ]

let stats_json t =
  Session_table.expire t.streams;
  Session_table.expire t.lazies;
  let c = Plan_cache.stats t.cache in
  let latency_json op =
    match Metrics.latency t.metrics op with
    | None -> Jsonx.Null
    | Some q ->
      Jsonx.Obj
        [
          ("samples", Jsonx.Num (float_of_int q.Kfuse_util.Stats.samples));
          ("p50_ms", Jsonx.Num q.Kfuse_util.Stats.p50);
          ("p90_ms", Jsonx.Num q.Kfuse_util.Stats.p90);
          ("p95_ms", Jsonx.Num q.Kfuse_util.Stats.p95);
          ("p99_ms", Jsonx.Num q.Kfuse_util.Stats.p99);
          ("max_ms", Jsonx.Num q.Kfuse_util.Stats.q_max);
          ("mean_ms", Jsonx.Num q.Kfuse_util.Stats.q_mean);
        ]
  in
  let requests_json op =
    let total, errors = Metrics.requests t.metrics op in
    Jsonx.Obj
      [
        ("total", Jsonx.Num (float_of_int total));
        ("errors", Jsonx.Num (float_of_int errors));
        ("latency", latency_json op);
      ]
  in
  let count name = Jsonx.Num (float_of_int (Metrics.counter t.metrics name)) in
  let gauge name = Jsonx.Num (float_of_int (Metrics.gauge t.metrics name)) in
  Protocol.ok
    [
      ("uptime_s", Jsonx.Num (Unix.gettimeofday () -. t.started_at));
      ( "cache",
        Jsonx.Obj
          [
            ("entries", Jsonx.Num (float_of_int c.Plan_cache.entries));
            ("capacity", Jsonx.Num (float_of_int c.Plan_cache.capacity));
            ("hits", Jsonx.Num (float_of_int c.Plan_cache.hits));
            ("disk_hits", Jsonx.Num (float_of_int c.Plan_cache.disk_hits));
            ("misses", Jsonx.Num (float_of_int c.Plan_cache.misses));
            ("iso_misses", Jsonx.Num (float_of_int c.Plan_cache.iso_misses));
            ("evictions", Jsonx.Num (float_of_int c.Plan_cache.evictions));
            ("stores", Jsonx.Num (float_of_int c.Plan_cache.stores));
            ("disk_errors", Jsonx.Num (float_of_int c.Plan_cache.disk_errors));
            ("hit_rate", Jsonx.Num (Plan_cache.hit_rate c));
          ] );
      ("key_memo", Key_memo.stats_json (Key_memo.stats t.key_memo));
      ( "requests",
        Jsonx.Obj (List.map (fun op -> (op, requests_json op)) (Metrics.ops t.metrics)) );
      ( "native_exec",
        let rs = Native.runner_stats () in
        Jsonx.Obj
          [
            ("sandbox", Jsonx.Str (Supervisor.policy_to_string t.exec_sandbox));
            ("runners", Jsonx.Num (float_of_int rs.Native.runners));
            ("runner_spawns", Jsonx.Num (float_of_int rs.Native.runner_spawns));
            ("runner_kills", Jsonx.Num (float_of_int rs.Native.runner_kills));
            ("runner_cpu_ms", Jsonx.Num rs.Native.runner_cpu_ms);
            ("crashes", count "native_exec_crashes");
            ("timeouts", count "native_exec_timeouts");
            ("limit_hits", count "native_exec_limits");
            ("fallbacks", count "native_exec_fallbacks");
            ("quarantined", gauge "quarantined_plans");
            ("crash_dir", Jsonx.Str t.crash_dir);
            ("crash_save_failures", count "crash_save_failures");
          ] );
      ( "streams",
        Jsonx.Obj
          [
            ("active", gauge "streams_active");
            ("opened", count "streams_opened");
            ("closed", count "streams_closed");
            ("expired", count "streams_expired");
            ("shed", count "streams_shed");
            ("frames_pushed", count "frames_pushed");
            ("frames_shed", count "frames_shed");
            ("max_streams", Jsonx.Num (float_of_int t.max_streams));
            ("stream_queue", Jsonx.Num (float_of_int stream_queue));
            ("stream_idle_ms", Jsonx.Num t.stream_idle_ms);
          ] );
      ( "lazy",
        Jsonx.Obj
          [
            ("active", gauge "lazy_active");
            ("opened", count "lazy_opened");
            ("closed", count "lazy_closed");
            ("expired", count "lazy_expired");
            ("shed", count "lazy_shed");
            ("edits", count "lazy_edits");
            ("flushes", count "lazy_flushes");
          ] );
    ]

(* [dispatch] never raises: a failing handler becomes an error response
   (counted per-op), keeping the connection and the server alive. *)
let dispatch t ~deadline v =
  match Protocol.request_of_json v with
  | Error d -> ("invalid", Protocol.error d, false)
  | Ok req -> (
    let op = Protocol.op_name req in
    let handle () =
      match req with
      | Protocol.Ping -> Protocol.ok [ ("pong", Jsonx.Bool true) ]
      | Protocol.Shutdown -> Protocol.ok [ ("stopping", Jsonx.Bool true) ]
      | Protocol.Stats -> stats_json t
      | Protocol.Metrics ->
        let rs = Native.runner_stats () in
        let text =
          Metrics.render t.metrics ~cache:(Plan_cache.stats t.cache)
            ~key_memo:(Key_memo.stats t.key_memo)
            ~uptime_s:(Unix.gettimeofday () -. t.started_at)
          ^ Printf.sprintf
              "kfused_native_runners %d\nkfused_native_runner_spawns_total %d\n\
               kfused_native_runner_kills_total %d\n"
              rs.Native.runners rs.Native.runner_spawns rs.Native.runner_kills
        in
        Protocol.ok [ ("text", Jsonx.Str text) ]
      | Protocol.Fuse f -> handle_fuse t ~deadline f
      | Protocol.Fuse_exec e -> handle_fuse_exec t ~deadline e
      | Protocol.Stream_open o -> handle_stream_open t ~deadline o
      | Protocol.Stream_push s -> handle_stream_push t ~deadline s
      | Protocol.Stream_close id -> handle_stream_close t id
      | Protocol.Lazy_open o -> handle_lazy_open t o
      | Protocol.Lazy_edit e -> handle_lazy_edit t e
      | Protocol.Lazy_flush f -> handle_lazy_flush t f
      | Protocol.Lazy_close id -> handle_lazy_close t id
    in
    match handle () with
    | resp -> (op, resp, req = Protocol.Shutdown)
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception exn -> (op, Protocol.error (Diag.of_exn exn), false))

(* Crash artifacts go beside the plan cache's disk tier, or beside the
   default one for a memory-only cache. *)
let default_crash_dir cache =
  let dir = Option.value (Plan_cache.dir cache) ~default:(Plan_cache.default_dir ()) in
  Filename.concat dir "crash-corpus"

type t = { state : state; listener : Listener.t }

let socket t = Listener.socket t.listener
let cache t = t.state.cache
let metrics t = t.state.metrics
let in_flight t = Listener.in_flight t.listener
let signal_stop t = Listener.signal_stop t.listener

let start ~socket:path ~cache ~pool ?max_conns ?queue ?request_timeout_ms
    ?drain_timeout_ms ?(exec_sandbox = Supervisor.Sandboxed)
    ?(exec_limits = Supervisor.default_limits) ?crash_dir ?(breaker_threshold = 3)
    ?(max_streams = 64) ?(stream_idle_ms = 60_000.0) () =
  if max_streams < 1 then
    Error (Diag.errorf Diag.Config_invalid "max_streams must be >= 1 (got %d)" max_streams)
  else if breaker_threshold < 1 then
    Error
      (Diag.errorf Diag.Config_invalid "breaker_threshold must be >= 1 (got %d)"
         breaker_threshold)
  else begin
    let metrics = Metrics.create () in
    List.iter (Metrics.touch metrics)
      [
        "native_exec_crashes"; "native_exec_timeouts"; "native_exec_limits";
        "native_exec_fallbacks"; "crash_save_failures"; "frames_pushed"; "frames_shed";
        "lazy_edits"; "lazy_flushes";
      ];
    Metrics.adjust_gauge metrics "quarantined_plans" 0;
    let sessions ~prefix ~id_prefix ?max_in_flight release =
      Session_table.create ~metrics ~prefix ~id_prefix ~max_sessions:max_streams
        ?max_in_flight ~idle_ms:stream_idle_ms ~release ()
    in
    let state =
      {
        cache;
        key_memo = Key_memo.create ();
        pool;
        metrics;
        exec_sandbox;
        exec_limits;
        crash_dir = (match crash_dir with Some d -> d | None -> default_crash_dir cache);
        breaker = Supervisor.Breaker.create ~threshold:breaker_threshold ();
        started_at = Unix.gettimeofday ();
        streams =
          sessions ~prefix:"streams" ~id_prefix:"st" ~max_in_flight:stream_queue
            (fun st -> Option.iter Native.release st.stream_plan);
        lazies = sessions ~prefix:"lazy" ~id_prefix:"lz" ignore;
        max_streams;
        stream_idle_ms;
      }
    in
    Listener.start ~socket:path ~metrics ?max_conns ?queue ?request_timeout_ms
      ?drain_timeout_ms (dispatch state)
    |> Result.map (fun listener -> { state; listener })
  end

let wait t =
  Listener.wait t.listener;
  (* Workers are joined, so no session is in use: every stream's pinned
     plan is released before the process exits. *)
  Session_table.drain t.state.streams;
  Session_table.drain t.state.lazies;
  (* No request is in flight: every sandbox runner is idle, and none
     outlives the server. *)
  Native.shutdown_runners ();
  try Unix.unlink (socket t) with Unix.Unix_error _ -> ()

let stop t =
  Listener.initiate_stop t.listener;
  wait t
