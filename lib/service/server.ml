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

(* Shared planning path of [fuse], [fuse_exec] and [stream_open]: the
   request's key from {!Key_memo}, then {!Planner.plan} through the
   cache, which computes a missing plan once however many requests for
   it arrive together.  The pipeline is loaded only when the key is not
   memoized or a plan has to be computed.  The reply reads ["miss"] for
   every computed plan (the renamed-copy distinction lives in the cache
   stats) and ["bypass"] without the cache. *)
let plan t ~deadline ?size (f : Protocol.fuse_request) =
  let planned =
    if f.Protocol.no_cache then
      Planner.plan ~pool:t.pool ~deadline f None
        (lazy (Planner.pipeline ?size (f.Protocol.app, f.Protocol.source)))
    else
      Result.bind (Key_memo.key t.key_memo ?size f) @@ fun (key, pipeline) ->
      Planner.plan ~pool:t.pool ~deadline f (Some (t.cache, key)) pipeline
  in
  Result.map
    (fun (r, outcome, ms) ->
      ( r,
        (match outcome with
        | None -> "bypass"
        | Some (Plan_cache.Miss | Plan_cache.Miss_iso) -> "miss"
        | Some o -> Plan_cache.outcome_to_string o),
        ms ))
    planned

let plan_fields (r, outcome, plan_ms) =
  report_fields r
  @ [
      ("cached", Jsonx.Bool (outcome = "hit" || outcome = "hit-disk"));
      ("outcome", Jsonx.Str outcome);
      ("plan_ms", Jsonx.Num plan_ms);
    ]

(* A native request's plan at its extent and its fused pipeline, which
   must fit the sandbox's limits ({!handle_fuse_exec}). *)
let plan_native t ~deadline ~width ~height f =
  let size = match (width, height) with Some w, Some h -> Some (w, h) | _ -> None in
  Result.bind (plan t ~deadline ?size f) @@ fun ((r, _, _) as served) ->
  let p = r.F.Driver.fused in
  Result.map (fun () -> (served, p)) (Native.check_limits t.exec_limits p)

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

(* A verify reply's fields: {!Image.verdict} against the interpreter's
   outputs. *)
let verify_fields reference outputs =
  let v = Image.verdict ~reference outputs in
  [ ("max_abs_diff", Jsonx.Num v.Image.max_abs_diff); ("bit_exact", Jsonx.Bool (Image.bit_exact v)) ]

let exact_fields = [ ("max_abs_diff", Jsonx.Num 0.0); ("bit_exact", Jsonx.Bool true) ]

(* A native run's reply outputs and verify fields.  Only a request that
   asks for pixels ([verify], [return_pixels]) runs for [pixels ()];
   any other runs for [summaries ()], so no output image is built for
   its reply.  Both fold the same pixels by the same loop
   ({!Native.summarize}), so the reply's bytes do not depend on which
   ran. *)
let native_reply ~verify ~return_pixels ~reference ~pixels ~summaries =
  if verify || return_pixels then
    Result.map
      (fun res ->
        ( { res with Native.outputs = images_json ~return_pixels res.Native.outputs },
          if verify then verify_fields (reference ()) res.Native.outputs else [] ))
      (pixels ())
  else
    Result.map
      (fun res -> ({ res with Native.outputs = List.map output_json res.Native.outputs }, []))
      (summaries ())

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

let sandboxed t = t.exec_sandbox = Supervisor.Sandboxed

(* A reply's ["exec"] object.  Each op passes the fields it reports, and
   they appear in this one order. *)
let exec_field ~mode ?sandboxed ?quarantined ?fallback ?artifact ?compile_ms ?exec_ms
    ?samples_ms warnings =
  let field name json v = Option.map (fun v -> (name, json v)) v in
  let bool b = Jsonx.Bool b and num f = Jsonx.Num f in
  ( "exec",
    Jsonx.Obj
      (List.filter_map Fun.id
         [
           Some ("mode", Jsonx.Str mode);
           field "sandboxed" bool sandboxed;
           field "quarantined" bool quarantined;
           field "fallback" bool fallback;
           field "artifact" (fun (path, _) -> Jsonx.Str path) artifact;
           field "artifact_cached" (fun (_, cached) -> bool cached) artifact;
           field "compile_ms" num compile_ms;
           field "exec_ms" num exec_ms;
           field "samples_ms" (fun l -> Jsonx.Arr (List.map num l)) samples_ms;
           Some ("warnings", Jsonx.Arr (List.map (fun d -> Jsonx.Str (Diag.to_string d)) warnings));
         ]) )

let quarantine_warning t qd ~served =
  Diag.warningf Diag.Exec_failed
    "plan quarantined after %d consecutive native failures (last: %s); %s by the interpreter"
    (Supervisor.Breaker.threshold t.breaker)
    (Diag.to_string qd) served

(* The interpreter's answer on [inputs]: its outputs and its wall time.
   Exact by construction, so a requested verify is [exact_fields]. *)
let interpret ?params p inputs =
  let t0 = Unix.gettimeofday () in
  let outputs = Ir.Eval.run_outputs ?params p (Ir.Eval.env_of_list inputs) in
  (outputs, (Unix.gettimeofday () -. t0) *. 1000.)

(* The interpreter answering in place of a native run: a quarantined
   plan, or a failed stream frame, still answers, so degradation is
   visible in the reply and the counter but not fatal. *)
let fall_back t ?params p inputs =
  Metrics.incr t.metrics "native_exec_fallbacks";
  interpret ?params p inputs

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

type 'a guarded = Ran of 'a | Quarantined of Diag.t | Failed of Diag.t

(* Every native run of plan [p] (exact fingerprint [fp]) passes this
   guard: a quarantined plan is not run; a run that succeeds clears the
   plan's strikes; a supervised failure (timeout, crash, limit) is
   recorded against it.  What a failure or a quarantine answers is the
   caller's policy. *)
let guard t ~fp ~seed p run =
  match Supervisor.Breaker.check t.breaker fp with
  | Supervisor.Breaker.Quarantined qd -> Quarantined qd
  | Supervisor.Breaker.Allow | Supervisor.Breaker.Probe -> (
    match run () with
    | Ok r ->
      if Supervisor.Breaker.record_success t.breaker fp then
        Metrics.decr_gauge t.metrics "quarantined_plans";
      Ran r
    | Error (d : Diag.t) ->
      (match d.Diag.code with
      | Diag.Exec_timeout | Diag.Exec_crashed | Diag.Exec_limit ->
        record_exec_failure t ~fp ~seed p d
      | _ -> ());
      Failed d)

(* A request is refused before anything is compiled or allocated when
   its bytes could never fit the sandbox's limits; the refusal is the
   request's fault, not the plan's, so it is neither a breaker strike
   nor a crash artifact.  Only a request that asks for pixels
   ([verify], [return_pixels]) or falls back to the interpreter has its
   inputs drawn into images; otherwise the runner's arena is the only
   place they ever exist.  A native failure is the reply's error. *)
let handle_fuse_exec t ~deadline (e : Protocol.fuse_exec_request) =
  let ( let* ) = Result.bind in
  let checked =
    let* served, p =
      plan_native t ~deadline ~width:e.Protocol.width ~height:e.Protocol.height e.Protocol.fuse
    in
    let* () = check_deadline t deadline ~before:"native execution" in
    Ok (served, p)
  in
  match checked with
  | Error d -> Protocol.error d
  | Ok (served, p) -> (
    let input =
      Native.Random { rng = Kfuse_util.Rng.create e.Protocol.seed; lo = 0.0; hi = 1.0 }
    in
    let verify = e.Protocol.verify and return_pixels = e.Protocol.return_pixels in
    let execute input output =
      Native.execute ?mode:(exec_mode t e.Protocol.exec_mode) ~deadline ~limits:t.exec_limits
        ?cache_dir:(native_cache_dir t) ~repeat:e.Protocol.repeat p input output
    in
    let run () =
      let inputs = lazy (Native.materialize p input) in
      native_reply ~verify ~return_pixels
        ~reference:(fun () -> fst (interpret p (Lazy.force inputs)))
        ~pixels:(fun () -> execute (Native.Images (Lazy.force inputs)) Native.Pixels)
        ~summaries:(fun () -> execute input Native.Summaries)
    in
    let reply exec outputs verified =
      Protocol.ok (plan_fields served @ [ exec; ("outputs", Jsonx.Arr outputs) ] @ verified)
    in
    match guard t ~fp:(Fingerprint.exact p) ~seed:e.Protocol.seed p run with
    | Failed d -> Protocol.error d
    | Quarantined qd ->
      let outputs, ms = fall_back t p (Native.materialize p input) in
      reply
        (exec_field ~mode:"interpreter" ~quarantined:true ~artifact:("", false) ~compile_ms:0.0
           ~exec_ms:ms ~samples_ms:[ ms ]
           [ quarantine_warning t qd ~served:"served" ])
        (images_json ~return_pixels outputs)
        (if verify then exact_fields else [])
    | Ran (res, verified) ->
      reply
        (exec_field
           ~mode:(Native.mode_to_string res.Native.mode_used)
           ~sandboxed:(sandboxed t) ~quarantined:false
           ~artifact:(res.Native.artifact, res.Native.cached)
           ~compile_ms:res.Native.compile_ms ~exec_ms:res.Native.exec_ms
           ~samples_ms:res.Native.samples_ms res.Native.warnings)
        res.Native.outputs verified)

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
    (* A refusal releases the stream's reserved slot. *)
    let* served, p =
      plan_native t ~deadline ~width:o.Protocol.width ~height:o.Protocol.height o.Protocol.fuse
    in
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
    let mode, artifact, compile_ms =
      match st.stream_plan with
      | None -> ("interpreter", ("", false), 0.0)
      | Some pl ->
        ( Native.mode_to_string (Native.plan_mode pl),
          (Native.plan_artifact pl, Native.plan_cached pl),
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
          exec_field ~mode ~sandboxed:(sandboxed t) ~artifact ~compile_ms warns;
        ])

(* One frame of stream [s], run under the stream's session lock.  The
   frame is drawn into the session's ring, and a push that asks for no
   pixels takes only the plan's summaries, so a warm push allocates no
   frame-sized array.  A frame always ships: when its native run is
   quarantined or fails, the interpreter answers on the SAME bindings
   before the stream advances, so the stream's pixel history is
   identical to an all-interpreter run, which is exactly what the chaos
   oracle asserts. *)
let push_frame t ~deadline (s : Protocol.stream_push_request) st =
  let session = st.session in
  let p = Session.pipeline session in
  let params = Session.params session in
  let seq = Session.frames session in
  let frame = Session.draw session ~seed:st.stream_seed in
  let bindings = Session.bindings session frame in
  let verify = s.Protocol.verify and return_pixels = s.Protocol.return_pixels in
  let interpreted (outputs, ms) = (images_json ~return_pixels outputs, ms) in
  (* ((outputs, exec_ms), mode, quarantined, fallback, warnings, the
     verify fields when verify). *)
  let (outputs, exec_ms), mode, quarantined, fallback, warns, verified =
    match st.stream_plan with
    | None ->
      (interpreted (interpret ~params p bindings), "interpreter", false, false, [], exact_fields)
    | Some pl -> (
      let run output =
        Native.execute_plan ~params ~deadline ~limits:t.exec_limits pl (Native.Images bindings)
          output
      in
      let native () =
        native_reply ~verify ~return_pixels
          ~reference:(fun () -> fst (interpret ~params p bindings))
          ~pixels:(fun () -> run Native.Pixels)
          ~summaries:(fun () -> run Native.Summaries)
      in
      match guard t ~fp:st.stream_fp ~seed:st.stream_seed p native with
      | Ran (res, verified) ->
        ( (res.Native.outputs, res.Native.exec_ms),
          Native.mode_to_string res.Native.mode_used,
          false, false, [], verified )
      | Quarantined qd ->
        ( interpreted (fall_back t ~params p bindings), "interpreter", true, true,
          [ quarantine_warning t qd ~served:"frame served" ], exact_fields )
      | Failed d ->
        ( interpreted (fall_back t ~params p bindings), "interpreter", false, true,
          [ { d with Diag.severity = Diag.Warning } ], exact_fields ))
  in
  Session.advance session frame;
  Metrics.incr t.metrics "frames_pushed";
  Protocol.ok
    ([
       ("id", Jsonx.Str s.Protocol.id);
       ("seq", Jsonx.Num (float_of_int seq));
       ("frames", Jsonx.Num (float_of_int (seq + 1)));
       exec_field ~mode ~sandboxed:(sandboxed t) ~quarantined ~fallback ~exec_ms warns;
       ("outputs", Jsonx.Arr outputs);
     ]
    @ if verify then verified else [])

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

let handle_lazy_open t (o : Protocol.lazy_open_request) =
  let opened =
    Session_table.open_ t.lazies
      ~shed:
        (Diag.errorf Diag.Overloaded
           "server at max_streams (%d) lazy sessions: close one or retry with backoff")
    @@ fun () ->
    Result.map (fun builder -> ({ builder; flushes = 0 }, builder)) (Planner.lazy_builder o)
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

(* The server's ops.  {!Listener} decodes each frame, turns an exception
   raised here into an error reply, and answers [ping] and [shutdown]
   itself: those two never reach this handler. *)
let dispatch t ~deadline = function
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
  | _ -> assert false

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
    ?(exec_limits = Supervisor.default_limits) ?crash_dir ?(breaker_threshold = Supervisor.Breaker.default_threshold)
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
  Native.shutdown_runners ()

let stop t =
  Listener.initiate_stop t.listener;
  wait t
