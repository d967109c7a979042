(* Protocol chaos harness for the kfused service.

   Each test injects one failure mode — overload, a slow-loris peer, a
   torn/dropped/delayed reply, an expired request budget — and proves
   the degradation contract: the client gets a typed KFxxxx error (or a
   transparent retry succeeds), the failure is counted in metrics, and
   the server keeps serving afterwards.  The final hammer arms several
   protocol faults at once under concurrent clients. *)

module Svc = Kfuse_service
module Jsonx = Svc.Jsonx
module Protocol = Svc.Protocol
module Cache = Kfuse_cache
module Faults = Kfuse_util.Faults
module Diag = Kfuse_util.Diag
module Sup = Kfuse_exec.Supervisor

open Support

let code_of (d : Diag.t) = Diag.code_id d.Diag.code

(* ---- admission control ---- *)

let test_overload_shed () =
  (* One worker, zero queue, no request timeout: a connection that holds
     the only slot forces the next one to be shed with KF0803. *)
  with_server ~max_conns:1 ~queue:0 ~request_timeout_ms:0.0 @@ fun socket server ->
  Svc.Client.with_connection ~socket (fun holder ->
      (* The ping round-trip proves a worker picked this connection up,
         so the slot is provably busy before the second client arrives. *)
      match Svc.Client.ping holder with
      | Error _ as e -> e
      | Ok () ->
        Alcotest.(check int) "gauge counts the held connection" 1
          (Svc.Metrics.gauge (Svc.Server.metrics server) "connections_active");
        (match Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c) with
        | Ok () -> Alcotest.fail "second connection should be shed"
        | Error d -> Alcotest.(check string) "shed with KF0803" "KF0803" (code_of d));
        Alcotest.(check int) "shed is counted" 1
          (Svc.Metrics.counter (Svc.Server.metrics server) "requests_shed");
        Ok ())
  |> expect_ok;
  (* The holder is gone: once the worker notices the close and frees the
     slot, the server serves again. *)
  let rec wait_idle tries =
    if Svc.Server.in_flight server > 0 && tries > 0 then begin
      Thread.delay 0.005;
      wait_idle (tries - 1)
    end
  in
  wait_idle 400;
  expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c))

(* Thirty bursts of 16 raw connects that send nothing, into an idle
   listener with one worker and no queue: each burst admits at most one
   connection, and every other one gets a KF0803 reply.  Queued
   connections that no worker has picked up yet count against the
   bound, so a burst cannot slip in before a worker wakes. *)
let burst_admission ~in_flight socket =
  let shed_reply fd =
    match Protocol.recv fd with
    | Ok (Some v) -> (
      match Protocol.result v with Error d -> code_of d = "KF0803" | Ok _ -> false)
    | Ok None | Error _ -> false
  in
  let rec idle tries =
    if in_flight () > 0 && tries > 0 then begin
      Thread.delay 0.005;
      idle (tries - 1)
    end
  in
  for burst = 1 to 30 do
    (* Start each burst idle: the last burst's admitted connection is
       closed, but its worker may not have noticed yet. *)
    idle 400;
    let fds =
      List.init 16 (fun _ ->
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          fd)
    in
    Fun.protect ~finally:(fun () ->
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
    @@ fun () ->
    let until = Unix.gettimeofday () +. 5.0 in
    let rec collect pending shed =
      let left = until -. Unix.gettimeofday () in
      if shed = 15 || pending = [] || left <= 0.0 then shed
      else
        let ready, _, _ = Unix.select pending [] [] left in
        collect
          (List.filter (fun fd -> not (List.memq fd ready)) pending)
          (shed + List.length (List.filter shed_reply ready))
    in
    let shed = collect fds 0 in
    Alcotest.(check bool)
      (Printf.sprintf "burst %d: at most one admitted (in_flight)" burst)
      true (in_flight () <= 1);
    Alcotest.(check int) (Printf.sprintf "burst %d: the other 15 shed with KF0803" burst) 15
      shed
  done

let test_burst_admission_server () =
  with_server ~max_conns:1 ~queue:0 ~request_timeout_ms:0.0 @@ fun socket server ->
  burst_admission ~in_flight:(fun () -> Svc.Server.in_flight server) socket

let test_burst_admission_router () =
  let dir = temp_dir "kfuse-chaos-fleet" in
  let socket = temp_socket () in
  let shard_argv ~index:_ ~socket =
    [ "../bin/kfusec.exe"; "serve"; "--socket"; socket; "--cache-dir"; dir ]
  in
  match
    Svc.Router.start ~socket ~dir ~count:1 ~shard_argv ~max_conns:1 ~queue:0
      ~request_timeout_ms:0.0 ()
  with
  | Error d -> Alcotest.failf "router start failed: %s" (Diag.to_string d)
  | Ok router ->
    Fun.protect ~finally:(fun () -> Svc.Router.stop router) @@ fun () ->
    burst_admission ~in_flight:(fun () -> Svc.Router.in_flight router) socket

let test_forced_shed_retried () =
  (* The ["service.shed"] chaos point sheds an admission exactly as if
     the queue were full; the client's retry policy recovers. *)
  with_server @@ fun socket server ->
  Faults.with_spec "service.shed@1" (fun () ->
      let retry = { Svc.Client.default_retry with attempts = 3; backoff_ms = 5.0 } in
      match Svc.Client.call ~socket ~retry Protocol.Ping with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "retry should have recovered: %s" (Diag.to_string d));
  Alcotest.(check int) "exactly one shed" 1
    (Svc.Metrics.counter (Svc.Server.metrics server) "requests_shed");
  (* Without retries the same shed surfaces as the typed KF0803. *)
  Faults.with_spec "service.shed@1" (fun () ->
      let retry = { Svc.Client.default_retry with attempts = 0 } in
      match Svc.Client.call ~socket ~retry Protocol.Ping with
      | Ok _ -> Alcotest.fail "shed without retries should fail"
      | Error d -> Alcotest.(check string) "typed shed" "KF0803" (code_of d))

let test_shutdown_not_retried () =
  (* Shutdown is not idempotent: a shed shutdown must NOT be retried. *)
  with_server @@ fun socket server ->
  Faults.with_spec "service.shed@1" (fun () ->
      let retry = { Svc.Client.default_retry with attempts = 3; backoff_ms = 5.0 } in
      match Svc.Client.call ~socket ~retry Protocol.Shutdown with
      | Ok _ -> Alcotest.fail "shed shutdown should not succeed via retry"
      | Error d -> Alcotest.(check string) "typed shed, no retry" "KF0803" (code_of d));
  (* The server is still up: the shed request was never replayed. *)
  expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c));
  ignore server

(* ---- request deadlines ---- *)

let test_slow_loris_times_out () =
  (* A peer that writes two header bytes and stalls must not pin its
     worker: the receive timeout frees the slot with a KF0804 reply. *)
  with_server ~request_timeout_ms:200.0 @@ fun socket server ->
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let n = Unix.write fd (Bytes.of_string "\x00\x00") 0 2 in
  Alcotest.(check int) "partial header written" 2 n;
  (match Protocol.recv fd with
  | Ok (Some v) -> (
    match Protocol.result v with
    | Error d -> Alcotest.(check string) "typed KF0804 reply" "KF0804" (code_of d)
    | Ok _ -> Alcotest.fail "a timed-out request must be an error reply")
  | Ok None -> Alcotest.fail "expected a KF0804 reply before the close"
  | Error d -> Alcotest.failf "reply not readable: %s" (Diag.to_string d));
  Alcotest.(check int) "timeout is counted" 1
    (Svc.Metrics.counter (Svc.Server.metrics server) "requests_timed_out");
  (* The slot is free again: the server still serves. *)
  expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c))

let test_budget_expiry_degrades () =
  (* A request whose fusion budget is already spent degrades to the
     baseline partition — an answer, not an error, not a hang. *)
  with_server @@ fun socket _server ->
  let reply =
    expect_ok
      (Svc.Client.with_connection ~socket (fun c ->
           Svc.Client.fuse c (fuse_req ~budget_ms:0.0 "harris")))
  in
  Alcotest.(check bool) "degraded under an expired budget" true
    (field "degraded" reply = Jsonx.Bool true);
  (* Degraded plans are never cached: a fresh unbudgeted request
     computes the real plan. *)
  let clean =
    expect_ok
      (Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse c (fuse_req "harris")))
  in
  Alcotest.(check bool) "fresh request is not degraded" true
    (field "degraded" clean = Jsonx.Bool false);
  Alcotest.(check bool) "and was computed, not cached" true
    (field "outcome" clean = Jsonx.Str "miss")

let test_strict_budget_is_error () =
  (* Under --strict the same overrun is a typed KF0603 error reply. *)
  with_server @@ fun socket _server ->
  (match
     Svc.Client.with_connection ~socket (fun c ->
         Svc.Client.fuse c (fuse_req ~budget_ms:0.0 ~strict:true "harris"))
   with
  | Ok _ -> Alcotest.fail "strict budget overrun must be an error"
  | Error d -> Alcotest.(check string) "KF0603 budget exhausted" "KF0603" (code_of d));
  (* The error reply did not wedge the server. *)
  expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c))

(* ---- protocol faults ---- *)

let test_torn_frame_is_typed () =
  (* The server writes half a reply frame and drops the connection: the
     client surfaces a typed mid-frame error, never hangs. *)
  with_server @@ fun socket _server ->
  Faults.with_spec "proto.torn_frame@1" (fun () ->
      match
        Svc.Client.with_connection ~socket ~timeout_ms:2_000.0 (fun c -> Svc.Client.ping c)
      with
      | Ok () -> Alcotest.fail "torn frame should surface as an error"
      | Error d -> Alcotest.(check string) "mid-frame EOF is typed" "KF0801" (code_of d));
  expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c))

let test_dropped_reply_is_typed () =
  (* The reply vanishes and the connection closes cleanly: a typed
     protocol error client-side, and the next connection is served. *)
  with_server @@ fun socket _server ->
  Faults.with_spec "proto.drop_reply@1" (fun () ->
      match Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c) with
      | Ok () -> Alcotest.fail "dropped reply should surface as an error"
      | Error d -> Alcotest.(check string) "close without reply is typed" "KF0801" (code_of d));
  expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c))

let test_slow_write_within_timeout () =
  (* A delayed reply still lands when the client's timeout allows. *)
  with_server @@ fun socket _server ->
  Faults.with_spec "proto.slow_write@1" (fun () ->
      expect_ok
        (Svc.Client.with_connection ~socket ~timeout_ms:2_000.0 (fun c ->
             Svc.Client.ping c)))

let test_oversized_send_refused () =
  (* A frame that would overrun [max_frame] is refused before a single
     byte hits the wire — the sender gets Diag.Fatal KF0801, and the
     peer never sees a half-written monster. *)
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
  @@ fun () ->
  let huge = Jsonx.Str (String.make Protocol.max_frame 'x') in
  (match Protocol.send a huge with
  | () -> Alcotest.fail "oversized frame must be refused"
  | exception Diag.Fatal d ->
    Alcotest.(check string) "KF0801 oversized" "KF0801" (code_of d));
  Unix.set_nonblock b;
  match Unix.read b (Bytes.create 1) 0 1 with
  | _ -> Alcotest.fail "bytes were written for a refused frame"
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* ---- exec chaos: the supervised native path ---- *)

module Ir = Kfuse_ir
module Img = Kfuse_image
module F = Kfuse_fusion

let exec_req ?(seed = 42) ?(repeat = 1) ?(verify = false) ?(return_pixels = false) ?width
    ?height app =
  {
    Protocol.fuse = fuse_req app;
    exec_mode = None;
    width;
    height;
    seed;
    repeat;
    verify;
    return_pixels;
  }

(* The reference the server must match when it degrades to the
   interpreter: the same registry app at the same extent, fused with the
   same defaults, over inputs synthesized from the same seed. *)
let local_reference ~app ~width ~height ~seed =
  let entry = Option.get (Kfuse_apps.Registry.find app) in
  let p = entry.Kfuse_apps.Registry.small ~width ~height in
  let fused = (F.Driver.run F.Config.default F.Driver.Mincut p).F.Driver.fused in
  let rng = Kfuse_util.Rng.create seed in
  let inputs =
    List.map
      (fun n -> (n, Img.Image.random rng ~width ~height ~lo:0.0 ~hi:1.0))
      fused.Ir.Pipeline.inputs
  in
  Ir.Eval.run_outputs fused (Ir.Eval.env_of_list inputs)

let num = function
  | Jsonx.Num n -> n
  | v -> Alcotest.failf "expected a number, got %s" (Jsonx.to_string v)

let check_pixels_match reference reply =
  let outputs =
    match field "outputs" reply with
    | Jsonx.Arr outs -> outs
    | v -> Alcotest.failf "outputs is not an array: %s" (Jsonx.to_string v)
  in
  Alcotest.(check int) "output count" (List.length reference) (List.length outputs);
  List.iter2
    (fun (name, img) out ->
      (match field "name" out with
      | Jsonx.Str n -> Alcotest.(check string) "output name" name n
      | v -> Alcotest.failf "name is not a string: %s" (Jsonx.to_string v));
      match field "pixels" out with
      | Jsonx.Arr rows ->
        List.iteri
          (fun y row ->
            match row with
            | Jsonx.Arr cells ->
              List.iteri
                (fun x cell ->
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf "%s[%d,%d] bit-exact" name x y)
                    (Img.Image.get img x y) (num cell))
                cells
            | v -> Alcotest.failf "row is not an array: %s" (Jsonx.to_string v))
          rows
      | v -> Alcotest.failf "pixels missing: %s" (Jsonx.to_string v))
    reference outputs

let counter server name = Svc.Metrics.counter (Svc.Server.metrics server) name
let gauge server name = Svc.Metrics.gauge (Svc.Server.metrics server) name

let test_exec_crash_quarantine () =
  (* Every native execution of the plan segfaults (exec.crash on every
     hit): the daemon answers each with a typed KF0906, trips the
     breaker at the threshold, then serves the quarantined plan through
     the interpreter — bit-exact against a local reference — and stays
     alive throughout. *)
  require_toolchain ();
  let crash_dir = temp_dir "kfuse-chaos-crash" in
  with_server ~breaker_threshold:2 ~crash_dir @@ fun socket server ->
  let req = exec_req ~width:8 ~height:6 "sobel" in
  Faults.with_spec "exec.crash/1" (fun () ->
      for attempt = 1 to 2 do
        match Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse_exec c req) with
        | Ok _ -> Alcotest.failf "attempt %d: crashing exec must be a typed error" attempt
        | Error d ->
          Alcotest.(check string)
            (Printf.sprintf "attempt %d crashes typed" attempt)
            "KF0906" (code_of d)
      done;
      Alcotest.(check int) "crashes counted" 2 (counter server "native_exec_crashes");
      Alcotest.(check int) "breaker tripped" 1 (gauge server "quarantined_plans");
      (* Third request: still armed, but the quarantined plan never
         reaches the native path — the interpreter answers. *)
      let reply =
        expect_ok
          (Svc.Client.with_connection ~socket (fun c ->
               Svc.Client.fuse_exec c { req with Protocol.verify = true; return_pixels = true }))
      in
      let ex = field "exec" reply in
      Alcotest.(check bool) "served by the interpreter" true
        (Jsonx.member "mode" ex = Some (Jsonx.Str "interpreter"));
      Alcotest.(check bool) "marked quarantined" true
        (Jsonx.member "quarantined" ex = Some (Jsonx.Bool true));
      Alcotest.(check (float 0.0)) "verify is trivially exact" 0.0
        (num (field "max_abs_diff" reply));
      check_pixels_match (local_reference ~app:"sobel" ~width:8 ~height:6 ~seed:42) reply;
      Alcotest.(check int) "fallback counted" 1 (counter server "native_exec_fallbacks"));
  (* Crash forensics: the failing plan was persisted as a corpus entry. *)
  let artifacts =
    Array.to_list (Sys.readdir crash_dir)
    |> List.filter (fun f -> Filename.check_suffix f ".pipe")
  in
  Alcotest.(check int) "one crash artifact for one fingerprint" 1 (List.length artifacts);
  (* Faults cleared, but the cooldown (default 60 s) has not elapsed:
     the plan stays quarantined rather than stampeding the native path. *)
  let reply =
    expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse_exec c req))
  in
  Alcotest.(check bool) "still quarantined after the storm" true
    (Jsonx.member "quarantined" (field "exec" reply) = Some (Jsonx.Bool true));
  (* And the daemon never died. *)
  expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c))

(* A crash whose artifact cannot be written (the crash directory is a
   plain file) is still a typed KF0906, and the lost save is counted in
   the metrics and in [stats]' [native_exec.crash_save_failures]. *)
let test_exec_crash_save_failure () =
  require_toolchain ();
  let blocked = Filename.temp_file "kfuse-chaos-crash" ".file" in
  Fun.protect ~finally:(fun () -> try Sys.remove blocked with Sys_error _ -> ())
  @@ fun () ->
  let crash_dir = Filename.concat blocked "corpus" in
  with_server ~crash_dir @@ fun socket server ->
  let req = exec_req ~width:8 ~height:6 "sobel" in
  Faults.with_spec "exec.crash/1" (fun () ->
      match Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse_exec c req) with
      | Ok _ -> Alcotest.fail "a crashing exec must be a typed error"
      | Error d -> Alcotest.(check string) "crash typed" "KF0906" (code_of d));
  Alcotest.(check int) "the lost save is counted" 1 (counter server "crash_save_failures");
  let stats = expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.stats c)) in
  Alcotest.(check (float 0.0)) "and shown in stats" 1.0
    (num (field "crash_save_failures" (field "native_exec" stats)))

let test_exec_hang_watchdog () =
  (* A hanging execution is reaped by the watchdog within the configured
     wall cap and surfaces as KF0905; the next (clean) request runs
     natively, sandboxed, below the breaker threshold. *)
  require_toolchain ();
  with_server ~exec_limits:{ Sup.default_limits with Sup.wall_ms = Some 400. }
  @@ fun socket server ->
  let req = exec_req ~width:8 ~height:6 "unsharp" in
  Faults.with_spec "exec.hang@1" (fun () ->
      match Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse_exec c req) with
      | Ok _ -> Alcotest.fail "hanging exec must be a typed error"
      | Error d -> Alcotest.(check string) "watchdog timeout typed" "KF0905" (code_of d));
  Alcotest.(check int) "timeout counted" 1 (counter server "native_exec_timeouts");
  Alcotest.(check int) "one failure does not quarantine" 0
    (gauge server "quarantined_plans");
  let reply =
    expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse_exec c req))
  in
  let ex = field "exec" reply in
  Alcotest.(check bool) "recovered natively" true
    (Jsonx.member "mode" ex = Some (Jsonx.Str "subprocess"));
  Alcotest.(check bool) "sandboxed by default" true
    (Jsonx.member "sandboxed" ex = Some (Jsonx.Bool true));
  Alcotest.(check bool) "not quarantined" true
    (Jsonx.member "quarantined" ex = Some (Jsonx.Bool false))

let test_exec_oom_limit () =
  (* exec.oom exhausts a tiny private RLIMIT_AS and aborts the way the
     generated allocator does: the service classifies KF0907 and counts
     a limit hit. *)
  require_toolchain ();
  with_server @@ fun socket server ->
  let req = exec_req ~width:8 ~height:6 "sobel" in
  Faults.with_spec "exec.oom@1" (fun () ->
      match Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse_exec c req) with
      | Ok _ -> Alcotest.fail "OOM exec must be a typed error"
      | Error d -> Alcotest.(check string) "limit typed" "KF0907" (code_of d));
  Alcotest.(check int) "limit counted" 1 (counter server "native_exec_limits");
  expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c))

(* A request whose bytes can never fit the sandbox is refused after
   planning, before anything is compiled, spawned or allocated: here
   sobel at 1024² writes 8 MiB of output under a 1 MiB RLIMIT_FSIZE.
   The refusal is the request's, not the plan's, so four of them strike
   nothing: no quarantine, no interpreter fallback, no crash artifact. *)
let test_exec_limit_refusal_no_strike () =
  require_toolchain ();
  let crash_dir = temp_dir "kfuse-chaos-crash" in
  with_server ~crash_dir
    ~exec_limits:{ Sup.default_limits with Sup.fsize_bytes = Some (1024 * 1024) }
  @@ fun socket server ->
  let compiles = Kfuse_exec.Native.compiles () in
  let req = exec_req ~width:1024 ~height:1024 "sobel" in
  List.iteri
    (fun i req ->
      match Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse_exec c req) with
      | Ok _ -> Alcotest.failf "request %d: an output over RLIMIT_FSIZE was served" (i + 1)
      | Error d ->
        Alcotest.(check string)
          (Printf.sprintf "request %d is KF0907" (i + 1))
          "KF0907" (code_of d);
        Alcotest.(check bool) "names RLIMIT_FSIZE" true
          (contains "RLIMIT_FSIZE" (Diag.to_string d)))
    [
      req; req; req; req; { req with Protocol.verify = true };
      { req with Protocol.return_pixels = true };
    ];
  Alcotest.(check int) "nothing quarantined" 0 (gauge server "quarantined_plans");
  Alcotest.(check int) "no interpreter fallback" 0 (counter server "native_exec_fallbacks");
  Alcotest.(check int) "no limit strike" 0 (counter server "native_exec_limits");
  Alcotest.(check int) "nothing compiled" compiles (Kfuse_exec.Native.compiles ());
  Alcotest.(check (list string)) "no crash artifact" [] (Array.to_list (Sys.readdir crash_dir))

(* The same refusal at stream_open: a stream whose frames could never
   fit RLIMIT_FSIZE is a KF0907 before anything compiles, no strike and
   no interpreter fallback, and under max_streams 1 the next small
   open proves the refused one released its slot. *)
let test_stream_open_limit_refusal () =
  with_server ~max_streams:1
    ~exec_limits:{ Sup.default_limits with Sup.fsize_bytes = Some (1024 * 1024) }
  @@ fun socket server ->
  let compiles = Kfuse_exec.Native.compiles () in
  let open_req extent =
    {
      Protocol.fuse = fuse_req "motion";
      exec_mode = None;
      width = Some extent;
      height = Some extent;
      seed = 42;
    }
  in
  Svc.Client.with_connection ~socket (fun c ->
      (match Svc.Client.stream_open c (open_req 1024) with
      | Ok _ -> Alcotest.fail "a stream with outputs over RLIMIT_FSIZE was admitted"
      | Error d ->
        Alcotest.(check string) "open is KF0907" "KF0907" (code_of d);
        Alcotest.(check bool) "names RLIMIT_FSIZE" true
          (contains "RLIMIT_FSIZE" (Diag.to_string d)));
      Alcotest.(check int) "no stream active" 0 (gauge server "streams_active");
      Alcotest.(check int) "nothing compiled" compiles (Kfuse_exec.Native.compiles ());
      Alcotest.(check int) "nothing quarantined" 0 (gauge server "quarantined_plans");
      Alcotest.(check int) "no interpreter fallback" 0
        (counter server "native_exec_fallbacks");
      Alcotest.(check int) "no limit strike" 0 (counter server "native_exec_limits");
      let small = expect_ok (Svc.Client.stream_open c (open_req 16)) in
      match Jsonx.mem_str "id" small with
      | Some id -> Svc.Client.stream_close c id
      | None -> Alcotest.failf "stream_open reply lacks an id: %s" (Jsonx.to_string small))
  |> expect_ok |> ignore

(* The summary a sandboxed fuse_exec folds out of its runner's arena is
   the one its verified reply computes from pixels: for the six paper
   apps, motion (two inputs), unsharp and enhance (parameters in the
   arena) and a DSL pipeline with reductions, at an extent whose inputs
   span more than one 64 KiB chunk. *)
let test_exec_summary_equals_verify () =
  require_toolchain ();
  with_server @@ fun socket _server ->
  let dsl =
    "pipeline reds(in, prev) {\n\
    \  size 130 70\n\
    \  param gain = 2\n\
    \  g = conv(in, gauss3, clamp) * gain\n\
    \  d = g - prev\n\
    \  total = reduce sum(d)\n\
    \  peak = reduce max(g)\n\
    \  edge = d * d\n\
     }"
  in
  let apps = [ "sobel"; "unsharp"; "harris"; "shitomasi"; "enhance"; "night"; "motion" ] in
  let dsl_req =
    {
      (exec_req ~seed:7 "dsl") with
      Protocol.fuse = { (fuse_req "dsl") with Protocol.app = None; source = Some dsl };
    }
  in
  let cases =
    List.map (fun app -> (app, exec_req ~seed:7 ~width:130 ~height:70 app)) apps
    @ [ ("DSL with reductions", dsl_req) ]
  in
  List.iter
    (fun (what, req) ->
      let call req =
        expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse_exec c req))
      in
      let summary = call req and verified = call { req with Protocol.verify = true } in
      Alcotest.(check (float 0.0)) (what ^ ": verified exactly") 0.0
        (num (field "max_abs_diff" verified));
      List.iter
        (fun r ->
          Alcotest.(check bool) (what ^ ": sandboxed") true
            (Jsonx.member "mode" (field "exec" r) = Some (Jsonx.Str "subprocess")))
        [ summary; verified ];
      Alcotest.(check string) (what ^ ": summary equals the verified reply")
        (Jsonx.to_string (field "outputs" verified))
        (Jsonx.to_string (field "outputs" summary)))
    cases;
  (* The reductions are 1x1 in both. *)
  let reply =
    expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse_exec c dsl_req))
  in
  match field "outputs" reply with
  | Jsonx.Arr outs ->
    let extent name =
      match List.find_opt (fun o -> Jsonx.member "name" o = Some (Jsonx.Str name)) outs with
      | Some o -> (num (field "width" o), num (field "height" o))
      | None -> Alcotest.failf "no output %s" name
    in
    Alcotest.(check (pair (float 0.) (float 0.))) "sum reduction is 1x1" (1., 1.) (extent "total");
    Alcotest.(check (pair (float 0.) (float 0.))) "max reduction is 1x1" (1., 1.) (extent "peak");
    Alcotest.(check (pair (float 0.) (float 0.))) "map output is full size" (130., 70.)
      (extent "edge")
  | v -> Alcotest.failf "outputs is not an array: %s" (Jsonx.to_string v)

let test_exec_crash_storm () =
  (* Concurrent clients under an every-2nd-execution crash storm: every
     call returns (a native answer or a typed KFxxxx), the daemon drains
     clean and still answers stats. *)
  require_toolchain ();
  with_server ~max_conns:4 ~queue:4 ~breaker_threshold:100 @@ fun socket server ->
  Faults.with_spec "exec.crash/2" (fun () ->
      let results = Array.make 3 [] in
      let client i =
        Thread.create
          (fun () ->
            for _ = 1 to 2 do
              let r =
                Svc.Client.call ~socket ~timeout_ms:60_000.0
                  (Protocol.Fuse_exec (exec_req ~width:8 ~height:6 "sobel"))
              in
              results.(i) <- r :: results.(i)
            done)
          ()
      in
      let threads = List.init 3 client in
      List.iter Thread.join threads;
      Array.iter
        (fun rs ->
          Alcotest.(check int) "every call returned" 2 (List.length rs);
          List.iter
            (function
              | Ok _ -> ()
              | Error d ->
                Alcotest.(check string) "failures are typed crashes" "KF0906" (code_of d))
            rs)
        results);
  Alcotest.(check bool) "crashes were injected" true
    (counter server "native_exec_crashes" >= 1);
  let stats =
    expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.stats c))
  in
  match field "native_exec" stats with
  | Jsonx.Obj _ -> ()
  | v -> Alcotest.failf "stats lack native_exec accounting: %s" (Jsonx.to_string v)

(* ---- drain and the hammer ---- *)

let test_drain_under_load () =
  (* Stop the server while concurrent clients are mid-conversation:
     every call returns (an answer or a typed error), the workers all
     join, and the socket file is gone. *)
  let socket = temp_socket () in
  let cache = Cache.Plan_cache.create () in
  Kfuse_util.Pool.with_pool 2 @@ fun pool ->
  match
    Svc.Server.start ~socket ~cache ~pool ~max_conns:4 ~queue:8 ~drain_timeout_ms:2_000.0 ()
  with
  | Error d -> Alcotest.failf "start failed: %s" (Diag.to_string d)
  | Ok server ->
    let results = Array.make 4 [] in
    let client i =
      Thread.create
        (fun () ->
          for _ = 1 to 5 do
            let r = Svc.Client.call ~socket ~timeout_ms:2_000.0 Protocol.Ping in
            results.(i) <- r :: results.(i)
          done)
        ()
    in
    let threads = List.init 4 client in
    Thread.delay 0.01;
    Svc.Server.stop server;
    List.iter Thread.join threads;
    Alcotest.(check bool) "socket removed" false (Sys.file_exists socket);
    Alcotest.(check int) "no in-flight connections after drain" 0
      (Svc.Server.in_flight server);
    Array.iter
      (fun rs ->
        Alcotest.(check int) "every call returned" 5 (List.length rs);
        List.iter
          (function
            | Ok _ -> ()
            | Error d ->
              Alcotest.(check bool) "typed error code" true
                (String.length (code_of d) = 6))
          rs)
      results

let test_chaos_hammer () =
  (* Everything at once: torn frames, dropped and delayed replies, and
     forced sheds under six concurrent clients with retries.  Every call
     returns Ok or a typed error — no hangs, no exceptions — and after
     the storm the server answers a clean stats request. *)
  with_server ~max_conns:2 ~queue:2 ~request_timeout_ms:1_000.0 ~drain_timeout_ms:2_000.0
  @@ fun socket server ->
  Faults.with_spec "proto.torn_frame/5,proto.drop_reply/7,proto.slow_write/3,service.shed/9"
    (fun () ->
      let retry = { Svc.Client.default_retry with attempts = 2; backoff_ms = 5.0 } in
      let results = Array.make 6 [] in
      let client i =
        Thread.create
          (fun () ->
            for n = 1 to 5 do
              let req =
                if (i + n) mod 5 = 0 then Protocol.Fuse (fuse_req "harris")
                else Protocol.Ping
              in
              let r = Svc.Client.call ~socket ~timeout_ms:1_000.0 ~retry req in
              results.(i) <- r :: results.(i)
            done)
          ()
      in
      let threads = List.init 6 client in
      List.iter Thread.join threads;
      Array.iter
        (fun rs ->
          Alcotest.(check int) "every call returned" 5 (List.length rs);
          List.iter
            (function
              | Ok _ -> ()
              | Error d ->
                Alcotest.(check bool) "typed error code" true
                  (String.length (code_of d) = 6))
            rs)
        results);
  (* Post-storm: a clean connection gets coherent stats. *)
  let stats =
    expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.stats c))
  in
  (match field "connections" stats with
  | Jsonx.Obj _ -> ()
  | v -> Alcotest.failf "stats lack connection accounting: %s" (Jsonx.to_string v));
  (match field "limits" stats with
  | Jsonx.Obj _ -> ()
  | v -> Alcotest.failf "stats lack limits: %s" (Jsonx.to_string v));
  ignore server

(* ---- the kfusec serve binary ---- *)

(* Protocol chaos armed in a live daemon (torn frames, dropped and
   delayed replies, forced sheds) under 8 retrying clients; then a
   slow-loris peer draws the request deadline's KF0804, the metrics and
   stats account for the sheds and the timeout, and SIGTERM drains. *)
let test_binary_chaos_storm () =
  with_daemon
    ~env:[ "KFUSE_FAULTS=proto.torn_frame/6,proto.drop_reply/9,proto.slow_write/4,service.shed/7" ]
    "serve"
    [ "-j"; "2"; "--max-conns"; "2"; "--queue"; "2"; "--request-timeout-ms"; "500";
      "--drain-timeout"; "3000" ]
  @@ fun d ->
  let retrying args =
    query d ([ "--timeout-ms"; "2000"; "--retries"; "3"; "--retry-backoff-ms"; "20" ] @ args)
  in
  (* Sheds and timeouts are retried away; torn and dropped replies fail
     fast and typed.  Either way every call returns. *)
  List.init 8 (fun _ -> Thread.create (fun () -> for _ = 1 to 5 do ignore (retrying [ "--ping" ]) done) ())
  |> List.iter Thread.join;
  (* Two header bytes, then silence.  The connection may draw a chaos
     shed (KF0803) first, so the loris retries until the deadline is what
     answers it. *)
  let loris () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    Unix.connect fd (Unix.ADDR_UNIX d.socket);
    (* The reply's header and payload are two writes: read the frame. *)
    match
      ignore (Unix.write_substring fd "\000\000" 0 2);
      Protocol.recv fd
    with
    | Ok (Some reply) -> (
      match Protocol.result reply with Error dg -> code_of dg = "KF0804" | Ok _ -> false)
    | Ok None | Error _ | (exception Unix.Unix_error _) -> false
  in
  let rec attempt n =
    if n = 0 then Alcotest.fail "the slow loris never drew a KF0804 reply"
    else if not (loris ()) then attempt (n - 1)
  in
  attempt 10;
  let rec answered n args =
    match retrying args with
    | 0, text -> text
    | _, text when n = 0 -> Alcotest.failf "query %s kept failing: %s" (String.concat " " args) text
    | _ -> Unix.sleepf 0.2; answered (n - 1) args
  in
  let text = answered 10 [ "--metrics" ] in
  Alcotest.(check bool) "sheds counted" true (metric text "kfused_requests_shed_total" >= 1.0);
  Alcotest.(check bool) "timeout counted" true
    (metric text "kfused_requests_timed_out_total" >= 1.0);
  Alcotest.(check (float 0.0)) "only the metrics connection is active" 1.0
    (metric text "kfused_connections_active");
  let stats = json_of "stats" (answered 10 [ "--stats" ]) in
  Alcotest.(check bool) "stats: shed" true (num_at stats [ "connections"; "shed" ] >= 1.0);
  Alcotest.(check bool) "stats: timed out" true (num_at stats [ "connections"; "timed_out" ] >= 1.0);
  Alcotest.(check (float 0.0)) "limits: max_conns" 2.0 (num_at stats [ "limits"; "max_conns" ]);
  Alcotest.(check (float 0.0)) "limits: queue" 2.0 (num_at stats [ "limits"; "queue" ]);
  stop d

(* exec.crash armed on every supervised execution in the daemon: each
   fuse_exec is a typed KF0906 and respawns the runner, the third strike
   quarantines the plan, which then answers through the interpreter,
   bit-exact; the counters, the gauge and the crash artifact follow, and
   no runner outlives the shutdown. *)
let test_binary_crash_storm () =
  require_toolchain ();
  with_temp_dir @@ fun crash_dir ->
  with_daemon ~env:[ "KFUSE_FAULTS=exec.crash/1" ] "serve" [ "-j"; "2"; "--crash-dir"; crash_dir ]
  @@ fun d ->
  let exec = [ "--exec"; "-a"; "sobel"; "--width"; "8"; "--height"; "6" ] in
  for n = 1 to 3 do
    let code, text = query d exec in
    if code = 0 then Alcotest.failf "strike %d: a crashing execution must fail typed" n;
    Alcotest.(check bool) (Printf.sprintf "strike %d is KF0906" n) true (contains "KF0906" text)
  done;
  let quarantined = query_json d (exec @ [ "--verify" ]) in
  Alcotest.(check (option string)) "answered by the interpreter" (Some "interpreter")
    (Jsonx.mem_str "mode" (field "exec" quarantined));
  Alcotest.(check (option bool)) "visibly quarantined" (Some true)
    (Jsonx.mem_bool "quarantined" (field "exec" quarantined));
  Alcotest.(check (float 0.0)) "still bit-exact" 0.0 (num_at quarantined [ "max_abs_diff" ]);
  let text = metrics d in
  Alcotest.(check (float 0.0)) "three crashes" 3.0 (metric text "kfused_native_exec_crashes_total");
  Alcotest.(check (float 0.0)) "one quarantined plan" 1.0 (metric text "kfused_quarantined_plans");
  Alcotest.(check bool) "a runner spawn per strike" true
    (metric text "kfused_native_runner_spawns_total" >= 3.0);
  Alcotest.(check bool) "a crash artifact for the fuzzer" true
    (Array.exists (fun f -> Filename.check_suffix f ".pipe") (Sys.readdir crash_dir));
  shutdown d

(* The six paper apps at 1024²: a summary reply, folded from the
   runner's arena, equals the verified reply computed from pixels, and
   the verified run is bit-exact against the interpreter. *)
let test_binary_summary_equals_verify_1024 () =
  require_toolchain ();
  with_daemon "serve" [ "-j"; "2" ] @@ fun d ->
  let outputs reply =
    match Jsonx.arr (field "outputs" reply) with
    | Some os ->
      List.map
        (fun o ->
          Jsonx.to_string
            (Jsonx.Obj
               (List.map (fun k -> (k, field k o)) [ "name"; "width"; "height"; "min"; "max"; "mean" ])))
        os
    | None -> Alcotest.failf "outputs is not an array: %s" (Jsonx.to_string reply)
  in
  (* Two clients, so the daemon's two workers overlap one app's compile
     with another's interpreter run; the slowest apps to verify go first,
     so the clients finish together. *)
  map2_threads
    (fun app ->
      let exec = [ "--exec"; "-a"; app; "--width"; "1024"; "--height"; "1024" ] in
      (app, query d exec, query d ("--verify" :: exec)))
    [ "harris"; "shitomasi"; "night"; "enhance"; "unsharp"; "sobel" ]
  |> List.iter (fun (app, summary, verified) ->
         let reply what (code, text) =
           if code <> 0 then Alcotest.failf "%s %s exited %d: %s" app what code text;
           json_of (app ^ " " ^ what) text
         in
         let summary = reply "summary" summary and verified = reply "--verify" verified in
         Alcotest.(check (option bool)) (app ^ ": bit-exact") (Some true)
           (Jsonx.mem_bool "bit_exact" verified);
         Alcotest.(check (float 0.0)) (app ^ ": max_abs_diff") 0.0
           (num_at verified [ "max_abs_diff" ]);
         Alcotest.(check (list string)) (app ^ ": summary equals verified") (outputs verified)
           (outputs summary));
  shutdown d

let suite =
  [
    Alcotest.test_case "chaos: full slots + full queue shed with KF0803" `Quick
      test_overload_shed;
    Alcotest.test_case "chaos: a connection burst admits at most max_conns + queue" `Quick
      test_burst_admission_server;
    Alcotest.test_case "chaos: a connection burst through a router admits at most one"
      `Quick test_burst_admission_router;
    Alcotest.test_case "chaos: service.shed fault is retried away" `Quick
      test_forced_shed_retried;
    Alcotest.test_case "chaos: shutdown is never retried" `Quick test_shutdown_not_retried;
    Alcotest.test_case "chaos: slow-loris peer times out with KF0804" `Quick
      test_slow_loris_times_out;
    Alcotest.test_case "chaos: expired budget degrades through the service" `Quick
      test_budget_expiry_degrades;
    Alcotest.test_case "chaos: strict budget overrun is a KF0603 reply" `Quick
      test_strict_budget_is_error;
    Alcotest.test_case "chaos: torn reply frame is a typed error" `Quick
      test_torn_frame_is_typed;
    Alcotest.test_case "chaos: dropped reply is a typed error" `Quick
      test_dropped_reply_is_typed;
    Alcotest.test_case "chaos: slow write lands within the client timeout" `Quick
      test_slow_write_within_timeout;
    Alcotest.test_case "chaos: oversized frame refused before the wire" `Quick
      test_oversized_send_refused;
    Alcotest.test_case "chaos: graceful drain under concurrent load" `Quick
      test_drain_under_load;
    Alcotest.test_case "chaos: multi-fault hammer, every call returns typed" `Quick
      test_chaos_hammer;
    Alcotest.test_case "chaos: exec.crash storm trips quarantine, interpreter answers"
      `Slow test_exec_crash_quarantine;
    Alcotest.test_case "chaos: a crash artifact that cannot be saved is counted" `Slow
      test_exec_crash_save_failure;
    Alcotest.test_case "chaos: exec.hang reaped by the watchdog as KF0905" `Slow
      test_exec_hang_watchdog;
    Alcotest.test_case "chaos: exec.oom classified as a KF0907 limit" `Slow
      test_exec_oom_limit;
    Alcotest.test_case "chaos: a request over the limits is refused, not struck" `Slow
      test_exec_limit_refusal_no_strike;
    Alcotest.test_case "chaos: a stream_open over the limits is refused, slot released"
      `Slow test_stream_open_limit_refusal;
    Alcotest.test_case "exec: summary replies equal verified replies" `Slow
      test_exec_summary_equals_verify;
    Alcotest.test_case "chaos: concurrent exec.crash storm, daemon survives" `Slow
      test_exec_crash_storm;
    Alcotest.test_case "kfusec serve: chaos storm, slow loris, SIGTERM drain" `Slow
      test_binary_chaos_storm;
    Alcotest.test_case "kfusec serve: sandboxed crash storm, quarantine answers" `Slow
      test_binary_crash_storm;
    Alcotest.test_case "kfusec serve: summary replies equal verified replies at 1024²" `Slow
      test_binary_summary_equals_verify_1024;
  ]
