(* The kfused service: JSON codec, wire protocol, and an end-to-end
   server exercise over a real Unix-domain socket — two concurrent
   clients, per-request cache accounting, and the ["service.accept"]
   fault point proving an injected accept-path fault drops one
   connection without killing the server. *)

module Svc = Kfuse_service
module Jsonx = Svc.Jsonx
module Protocol = Svc.Protocol
module Cache = Kfuse_cache
module Faults = Kfuse_util.Faults
module Diag = Kfuse_util.Diag

open Support

(* ---- jsonx ---- *)

let roundtrip v =
  match Jsonx.of_string (Jsonx.to_string v) with
  | Ok v' -> v'
  | Error msg -> Alcotest.failf "reparse failed: %s" msg

let test_jsonx_roundtrip () =
  let v =
    Jsonx.Obj
      [
        ("s", Jsonx.Str "a\"b\\c\nd\t\xe2\x82\xac");
        ("n", Jsonx.Num 1.5);
        ("big", Jsonx.Num 1234567890.0);
        ("tiny", Jsonx.Num 1e-3);
        ("neg", Jsonx.Num (-42.0));
        ("t", Jsonx.Bool true);
        ("f", Jsonx.Bool false);
        ("z", Jsonx.Null);
        ("a", Jsonx.Arr [ Jsonx.Num 1.0; Jsonx.Str ""; Jsonx.Obj [] ]);
      ]
  in
  Alcotest.(check bool) "roundtrip is identity" true (roundtrip v = v)

let test_jsonx_parse () =
  let ok s = match Jsonx.of_string s with Ok v -> v | Error m -> Alcotest.failf "%s: %s" s m in
  let bad s =
    match Jsonx.of_string s with
    | Ok _ -> Alcotest.failf "%S should not parse" s
    | Error _ -> ()
  in
  Alcotest.(check bool) "unicode escape" true (ok {|"\u20ac"|} = Jsonx.Str "\xe2\x82\xac");
  Alcotest.(check bool) "surrogate pair" true (ok {|"\ud83d\ude00"|} = Jsonx.Str "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "nested" true
    (ok {| {"a":[1,2,{"b":null}],"c":true} |}
    = Jsonx.Obj
        [
          ("a", Jsonx.Arr [ Jsonx.Num 1.0; Jsonx.Num 2.0; Jsonx.Obj [ ("b", Jsonx.Null) ] ]);
          ("c", Jsonx.Bool true);
        ]);
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1,}";
  bad "tru";
  bad "1 2";
  bad "\"\\x\"";
  bad "nan"

let test_protocol_roundtrip () =
  let reqs =
    [
      Protocol.Stats;
      Protocol.Metrics;
      Protocol.Ping;
      Protocol.Shutdown;
      Protocol.Fuse
        {
          Protocol.app = Some "harris";
          source = None;
          strategy = Kfuse_fusion.Driver.Greedy;
          c_mshared = Some 2.0;
          gamma = None;
          tg = Some 72.0;
          optimize = true;
          inline = false;
          strict = true;
          budget_ms = Some 250.0;
          no_cache = true;
        };
      Protocol.Fuse
        {
          Protocol.app = None;
          source = Some "k = in(0,0) * 2.0";
          strategy = Kfuse_fusion.Driver.Mincut;
          c_mshared = None;
          gamma = None;
          tg = None;
          optimize = false;
          inline = false;
          strict = false;
          budget_ms = None;
          no_cache = false;
        };
      Protocol.Fuse_exec
        {
          Protocol.fuse =
            {
              Protocol.app = Some "sobel";
              source = None;
              strategy = Kfuse_fusion.Driver.Mincut;
              c_mshared = None;
              gamma = None;
              tg = None;
              optimize = true;
              inline = false;
              strict = false;
              budget_ms = Some 500.0;
              no_cache = false;
            };
          exec_mode = Some Kfuse_exec.Native.Subprocess;
          width = Some 32;
          height = Some 24;
          seed = 7;
          repeat = 2;
          verify = true;
          return_pixels = false;
        };
    ]
  in
  List.iter
    (fun req ->
      match Protocol.request_of_json (Protocol.request_to_json req) with
      | Ok req' -> Alcotest.(check bool) "request roundtrips" true (req = req')
      | Error d -> Alcotest.failf "roundtrip rejected: %s" (Diag.to_string d))
    reqs;
  let bad json =
    match Protocol.request_of_json json with
    | Ok _ -> Alcotest.fail "malformed request accepted"
    | Error d -> Alcotest.(check string) "protocol error code" "KF0801" (Diag.code_id d.Diag.code)
  in
  bad (Jsonx.Obj [ ("op", Jsonx.Str "explode") ]);
  bad (Jsonx.Obj [ ("op", Jsonx.Str "fuse") ]);
  bad (Jsonx.Obj [ ("op", Jsonx.Str "fuse"); ("app", Jsonx.Num 3.0) ]);
  bad
    (Jsonx.Obj
       [ ("op", Jsonx.Str "fuse"); ("app", Jsonx.Str "x"); ("source", Jsonx.Str "y") ]);
  (* fuse_exec and stream_open share one validation: width and height
     must come together, sizes and counts must be positive integers,
     exec_mode must be a known mode. *)
  let target op field =
    Jsonx.Obj [ ("op", Jsonx.Str op); ("app", Jsonx.Str "sobel"); field ]
  in
  List.iter
    (fun op ->
      List.iter
        (fun field -> bad (target op field))
        [ ("width", Jsonx.Num 16.0); ("exec_mode", Jsonx.Str "jit"); ("seed", Jsonx.Num 2.5) ])
    [ "fuse_exec"; "stream_open" ];
  bad (target "fuse_exec" ("repeat", Jsonx.Num 2.5));
  (* lazy ops: an open needs a seed or an extent, edits need id and
     command, inputs must be an array of strings. *)
  List.iter
    (fun req ->
      match Protocol.request_of_json (Protocol.request_to_json req) with
      | Ok req' -> Alcotest.(check bool) "lazy request roundtrips" true (req = req')
      | Error d -> Alcotest.failf "lazy roundtrip rejected: %s" (Diag.to_string d))
    [
      Protocol.Lazy_open
        {
          Protocol.app = None;
          source = None;
          width = Some 64;
          height = Some 48;
          channels = Some 3;
          inputs = [ "in"; "aux" ];
          c_mshared = Some 2.0;
          gamma = None;
          tg = None;
        };
      Protocol.Lazy_open
        {
          Protocol.app = Some "harris";
          source = None;
          width = None;
          height = None;
          channels = None;
          inputs = [];
          c_mshared = None;
          gamma = None;
          tg = None;
        };
      Protocol.Lazy_edit { Protocol.id = "lz-0"; command = "add k = in * 2.0" };
      Protocol.Lazy_flush { Protocol.id = "lz-0"; scratch = true };
      Protocol.Lazy_flush { Protocol.id = "lz-0"; scratch = false };
      Protocol.Lazy_close "lz-0";
    ];
  bad (Jsonx.Obj [ ("op", Jsonx.Str "lazy_open") ]);
  bad (Jsonx.Obj [ ("op", Jsonx.Str "lazy_open"); ("width", Jsonx.Num 64.0) ]);
  bad
    (Jsonx.Obj
       [ ("op", Jsonx.Str "lazy_open"); ("app", Jsonx.Str "x"); ("source", Jsonx.Str "y") ]);
  bad
    (Jsonx.Obj
       [
         ("op", Jsonx.Str "lazy_open");
         ("width", Jsonx.Num 64.0);
         ("height", Jsonx.Num 48.0);
         ("inputs", Jsonx.Arr [ Jsonx.Num 3.0 ]);
       ]);
  bad (Jsonx.Obj [ ("op", Jsonx.Str "lazy_edit"); ("id", Jsonx.Str "lz-0") ]);
  bad (Jsonx.Obj [ ("op", Jsonx.Str "lazy_flush") ]);
  bad (Jsonx.Obj [ ("op", Jsonx.Str "lazy_close") ])

(* ---- end-to-end server ---- *)

(* The crash corpus goes beside the plan cache's disk tier, so moving
   the cache moves it; a memory-only cache keeps the default place. *)
let test_crash_dir_follows_cache () =
  let crash_dir_of cache =
    let socket = temp_socket () in
    Kfuse_util.Pool.with_pool 1 (fun pool ->
        match Svc.Server.start ~socket ~cache ~pool () with
        | Error d -> Alcotest.failf "server start failed: %s" (Diag.to_string d)
        | Ok server ->
          Fun.protect ~finally:(fun () -> Svc.Server.stop server) (fun () ->
              let stats = expect_ok (Svc.Client.with_connection ~socket Svc.Client.stats) in
              match Option.bind (Jsonx.member "native_exec" stats) (Jsonx.mem_str "crash_dir") with
              | Some d -> d
              | None -> Alcotest.failf "stats lacks native_exec.crash_dir: %s" (Jsonx.to_string stats)))
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kfuse-cache-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Alcotest.(check string) "beside the disk tier" (Filename.concat dir "crash-corpus")
    (crash_dir_of (Cache.Plan_cache.create ~dir ()));
  Alcotest.(check string) "memory-only cache"
    (Filename.concat (Cache.Plan_cache.default_dir ()) "crash-corpus")
    (crash_dir_of (Cache.Plan_cache.create ()))

(* Settings outside their range are refused at start, as a typed error,
   before the socket is bound. *)
let test_start_rejects_bad_config () =
  let socket = temp_socket () in
  Kfuse_util.Pool.with_pool 1 (fun pool ->
      List.iter
        (fun (what, start) ->
          match start () with
          | Ok server ->
            Svc.Server.stop server;
            Alcotest.failf "%s accepted" what
          | Error d ->
            Alcotest.(check string) (what ^ " is KF0401") "KF0401" (Diag.code_id d.Diag.code);
            Alcotest.(check bool) (what ^ ": socket never bound") false (Sys.file_exists socket))
        [
          ( "max_streams 0",
            fun () ->
              Svc.Server.start ~socket ~cache:(Cache.Plan_cache.create ()) ~pool ~max_streams:0 () );
          ( "breaker_threshold 0",
            fun () ->
              Svc.Server.start ~socket ~cache:(Cache.Plan_cache.create ()) ~pool
                ~breaker_threshold:0 () );
        ])

let test_concurrent_clients () =
  with_server @@ fun socket _server ->
  (* Two clients, each issuing the same requests concurrently on its own
     connection: both must get correct answers, and the second wave of
     harris requests must be servable from the cache. *)
  let results = Array.make 2 None in
  let client i =
    Thread.create
      (fun () ->
        results.(i) <-
          Some
            (Svc.Client.with_connection ~socket (fun c ->
                 let ( let* ) = Result.bind in
                 let* first = Svc.Client.fuse c (fuse_req "harris") in
                 let* second = Svc.Client.fuse c (fuse_req "harris") in
                 let* () = Svc.Client.ping c in
                 Ok (first, second))))
      ()
  in
  let threads = [ client 0; client 1 ] in
  List.iter Thread.join threads;
  let outcomes = ref [] in
  Array.iter
    (fun r ->
      match r with
      | None -> Alcotest.fail "client thread did not finish"
      | Some result ->
        let first, second = expect_ok result in
        List.iter
          (fun reply ->
            Alcotest.(check bool) "6 fused kernels" true
              (field "kernels_out" reply = Jsonx.Num 6.0);
            outcomes :=
              (match field "outcome" reply with Jsonx.Str s -> s | _ -> "?") :: !outcomes)
          [ first; second ])
    results;
  (* 4 fuse requests for one plan: exactly one computed it, and the
     rest were served from the cache.  Racing first requests do not
     both plan: the second waits for the first and then hits. *)
  let hits = List.length (List.filter (String.equal "hit") !outcomes) in
  let misses = List.length (List.filter (String.equal "miss") !outcomes) in
  Alcotest.(check int) "one request computed the plan" 1 misses;
  Alcotest.(check int) "every other request hit the cache" 3 hits;
  (* The stats request agrees with the per-request outcomes. *)
  let stats =
    expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.stats c))
  in
  let cache_stats = field "cache" stats in
  Alcotest.(check bool) "stats count the hits" true
    (field "hits" cache_stats = Jsonx.Num (float_of_int hits));
  Alcotest.(check bool) "the plan was stored once" true
    (field "stores" cache_stats = Jsonx.Num 1.0);
  match field "fuse" (field "requests" stats) with
  | Jsonx.Obj _ as fuse_stats ->
    Alcotest.(check bool) "4 fuse requests" true (field "total" fuse_stats = Jsonx.Num 4.0);
    Alcotest.(check bool) "no errors" true (field "errors" fuse_stats = Jsonx.Num 0.0);
    Alcotest.(check bool) "latency quantiles present" true
      (match field "latency" fuse_stats with Jsonx.Obj _ -> true | _ -> false)
  | _ -> Alcotest.fail "stats lack fuse request accounting"

let test_error_responses_keep_serving () =
  with_server @@ fun socket _server ->
  Svc.Client.with_connection ~socket (fun c ->
      (* An unknown app is an error response, not a dead connection. *)
      (match Svc.Client.fuse c (fuse_req "no-such-app") with
      | Ok _ -> Alcotest.fail "unknown app should fail"
      | Error _ -> ());
      (* Bad DSL likewise. *)
      (match Svc.Client.fuse c { (fuse_req "x") with Protocol.app = None; source = Some "%" } with
      | Ok _ -> Alcotest.fail "bad DSL should fail"
      | Error _ -> ());
      (* The same connection still works. *)
      Result.map (fun _ -> ()) (Svc.Client.fuse c (fuse_req "sobel")))
  |> expect_ok

(* A verify is a bitwise verdict.  [log(in - 2)] is NaN on every pixel
   of a [0, 1) input, and [max(NaN, 0)] is NaN in the interpreter
   ([Float.max]); libm's [fmax] would return 0 there, a difference the
   absolute-difference report alone cannot see. *)
let test_fuse_exec_verify_bitwise () =
  (match Kfuse_exec.Toolchain.find () with Error _ -> Alcotest.skip () | Ok _ -> ());
  with_server @@ fun socket _server ->
  let source =
    "pipeline nanmax(in) {\n  size 9 7\n  d = max(log(in - 2), 0)\n}\n"
  in
  let req =
    {
      Protocol.fuse = { (fuse_req "sobel") with Protocol.app = None; source = Some source };
      exec_mode = None;
      width = None;
      height = None;
      seed = 3;
      repeat = 1;
      verify = true;
      return_pixels = false;
    }
  in
  let reply =
    expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse_exec c req))
  in
  Alcotest.(check bool) "bit-exact against the interpreter" true
    (field "bit_exact" reply = Jsonx.Bool true);
  Alcotest.(check bool) "nothing to report" true (field "max_abs_diff" reply = Jsonx.Num 0.0)

let test_fuse_exec_end_to_end () =
  (* Plan + compile + native execution over the wire; needs a C
     toolchain, so skip cleanly without one. *)
  (match Kfuse_exec.Toolchain.find () with Error _ -> Alcotest.skip () | Ok _ -> ());
  with_server @@ fun socket _server ->
  let req =
    {
      Protocol.fuse = fuse_req "sobel";
      exec_mode = None;
      width = Some 16;
      height = Some 12;
      seed = 5;
      repeat = 2;
      verify = true;
      return_pixels = true;
    }
  in
  let reply =
    expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse_exec c req))
  in
  (* The native result is bit-exact against the interpreter. *)
  Alcotest.(check bool) "verified exactly" true
    (field "max_abs_diff" reply = Jsonx.Num 0.0);
  let exec = field "exec" reply in
  Alcotest.(check bool) "a known mode ran" true
    (match field "mode" exec with
    | Jsonx.Str s -> Kfuse_exec.Native.mode_of_string s <> None
    | _ -> false);
  Alcotest.(check bool) "one sample per repeat" true
    (match field "samples_ms" exec with Jsonx.Arr l -> List.length l = 2 | _ -> false);
  (match field "outputs" reply with
  | Jsonx.Arr [ out ] ->
    Alcotest.(check bool) "output extent" true
      (field "width" out = Jsonx.Num 16.0 && field "height" out = Jsonx.Num 12.0);
    Alcotest.(check bool) "pixels returned as rows" true
      (match field "pixels" out with
      | Jsonx.Arr rows ->
        List.length rows = 12
        && List.for_all
             (function Jsonx.Arr cells -> List.length cells = 16 | _ -> false)
             rows
      | _ -> false)
  | _ -> Alcotest.fail "expected exactly one output image");
  (* Same plan again: the plan cache serves it, execution still works. *)
  let again =
    expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.fuse_exec c req))
  in
  Alcotest.(check bool) "plan cache hit on replay" true
    (field "outcome" again = Jsonx.Str "hit");
  (* width/height overrides are registry-only: DSL source is refused. *)
  match
    Svc.Client.with_connection ~socket (fun c ->
        Svc.Client.fuse_exec c
          {
            req with
            Protocol.fuse =
              { (fuse_req "x") with Protocol.app = None; source = Some "k = in(0,0)" };
          })
  with
  | Ok _ -> Alcotest.fail "size override on DSL source should fail"
  | Error d ->
    Alcotest.(check string) "typed protocol error" "KF0801" (Diag.code_id d.Diag.code)

(* Sandboxed fuse_exec reuses one warm runner per artifact; stats and
   metrics count it, and stopping the server leaves no runner alive. *)
let test_sandbox_runners_accounted () =
  (match Kfuse_exec.Toolchain.find () with Error _ -> Alcotest.skip () | Ok _ -> ());
  let spawns () = (Kfuse_exec.Native.runner_stats ()).Kfuse_exec.Native.runner_spawns in
  let before = spawns () in
  let socket = temp_socket () in
  let cache = Cache.Plan_cache.create () in
  Kfuse_util.Pool.with_pool 2 (fun pool ->
      match Svc.Server.start ~socket ~cache ~pool () with
      | Error d -> Alcotest.failf "server start failed: %s" (Diag.to_string d)
      | Ok server ->
        Fun.protect ~finally:(fun () -> Svc.Server.stop server) (fun () ->
            let req =
              {
                Protocol.fuse = fuse_req "sobel";
                exec_mode = None;
                (* An extent no other test runs: a fresh artifact. *)
                width = Some 21;
                height = Some 13;
                seed = 5;
                repeat = 1;
                verify = true;
                return_pixels = false;
              }
            in
            for i = 1 to 2 do
              let reply =
                expect_ok
                  (Svc.Client.with_connection ~socket (fun c ->
                       Svc.Client.fuse_exec c { req with Protocol.seed = i }))
              in
              Alcotest.(check bool) "verified exactly" true
                (field "max_abs_diff" reply = Jsonx.Num 0.0);
              Alcotest.(check bool) "sandboxed subprocess" true
                (field "mode" (field "exec" reply) = Jsonx.Str "subprocess"
                && field "sandboxed" (field "exec" reply) = Jsonx.Bool true)
            done;
            Alcotest.(check int) "two requests, one runner" (before + 1) (spawns ());
            let stats =
              expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.stats c))
            in
            let ne = field "native_exec" stats in
            let num name = match field name ne with Jsonx.Num v -> v | _ -> -1.0 in
            Alcotest.(check bool) "a live runner" true (num "runners" >= 1.0);
            Alcotest.(check bool) "spawns counted" true
              (num "runner_spawns" >= float_of_int (before + 1));
            Alcotest.(check bool) "kills counted" true (num "runner_kills" >= 0.0);
            Alcotest.(check bool) "runner CPU reported" true (num "runner_cpu_ms" >= 0.0);
            let text =
              expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.metrics c))
            in
            List.iter
              (fun name ->
                Alcotest.(check bool) ("metrics has " ^ name) true
                  (List.exists
                     (fun line -> String.starts_with ~prefix:(name ^ " ") line)
                     (String.split_on_char '\n' text)))
              [
                "kfused_native_runners";
                "kfused_native_runner_spawns_total";
                "kfused_native_runner_kills_total";
              ]));
  Alcotest.(check int) "no runner outlives the server" 0
    (Kfuse_exec.Native.runner_stats ()).Kfuse_exec.Native.runners

let test_accept_fault_degrades () =
  with_server @@ fun socket server ->
  Faults.with_spec "service.accept@1" (fun () ->
      (* The first connection is accepted and immediately dropped by the
         injected fault: the client sees a closed connection, an error,
         not a hang. *)
      (match
         Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c)
       with
      | Ok () -> Alcotest.fail "dropped connection should not answer"
      | Error _ -> ());
      (* The server survives: the next connection is served. *)
      expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c)));
  Alcotest.(check int) "drop is counted" 1
    (Svc.Metrics.counter (Svc.Server.metrics server) "connections_dropped");
  let text =
    expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.metrics c))
  in
  Alcotest.(check bool) "metrics expose the drop" true
    (contains "kfused_connections_dropped_total 1" text)

let test_stale_socket_replaced () =
  let socket = temp_socket () in
  let cache = Cache.Plan_cache.create () in
  Kfuse_util.Pool.with_pool 1 (fun pool ->
      (* A dead server's socket file. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX socket);
      Unix.close fd;
      Alcotest.(check bool) "stale file exists" true (Sys.file_exists socket);
      match Svc.Server.start ~socket ~cache ~pool () with
      | Error d -> Alcotest.failf "stale socket not replaced: %s" (Diag.to_string d)
      | Ok server ->
        expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.ping c));
        (* A live server refuses a second bind on the same path. *)
        (match Svc.Server.start ~socket ~cache ~pool () with
        | Ok other ->
          Svc.Server.stop other;
          Alcotest.fail "two servers bound the same socket"
        | Error d ->
          Alcotest.(check string) "refused with KF0802" "KF0802" (Diag.code_id d.Diag.code));
        Svc.Server.stop server;
        Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket))

let test_connect_retry_over_restart () =
  (* The restart signature: nobody is listening yet (ECONNREFUSED /
     ENOENT), then a server appears.  An idempotent [Client.call] must
     absorb the outage inside its jittered-backoff retry loop instead of
     surfacing a raw connect error — this is what makes a supervised
     shard restart invisible to retrying clients. *)
  let socket = temp_socket () in
  let cache = Cache.Plan_cache.create () in
  Kfuse_util.Pool.with_pool 1 (fun pool ->
      let server = ref None in
      let starter =
        Thread.create
          (fun () ->
            Thread.delay 0.15;
            match Svc.Server.start ~socket ~cache ~pool () with
            | Error d -> Alcotest.failf "late start failed: %s" (Diag.to_string d)
            | Ok s -> server := Some s)
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          Thread.join starter;
          Option.iter Svc.Server.stop !server)
        (fun () ->
          (* Before any listener exists: with retries this must succeed;
             the first attempts fail with the connection-transient class
             and reconnect per attempt. *)
          let retry = { Svc.Client.default_retry with attempts = 8; backoff_ms = 50. } in
          match Svc.Client.call ~socket ~retry (Protocol.Fuse (fuse_req "harris")) with
          | Ok reply ->
            Alcotest.(check bool) "answered after the server came up" true
              (field "kernels_out" reply = Jsonx.Num 6.0)
          | Error d -> Alcotest.failf "retry loop gave up: %s" (Diag.to_string d)));
  (* Without retries the same outage is a typed Service_error — never a
     raised Unix_error. *)
  let socket2 = temp_socket () in
  match Svc.Client.call ~socket:socket2 ~retry:{ Svc.Client.default_retry with attempts = 0 }
          Protocol.Ping
  with
  | Ok _ -> Alcotest.fail "ping with nobody listening should fail"
  | Error d ->
    Alcotest.(check string) "typed connect failure" "KF0802" (Diag.code_id d.Diag.code)
  | exception exn -> Alcotest.failf "non-typed failure: %s" (Printexc.to_string exn)

(* A lazy session over the wire: open an empty builder, grow it with
   textual edits, flush incrementally and from scratch, and check the
   plan fingerprint against the same edit sequence applied through the
   library locally — the differential harness crossing the socket. *)
let test_lazy_session_end_to_end () =
  with_server @@ fun socket _server ->
  (* Two weakly-connected components: the in-chain (later edited) and
     the aux-chain (untouched — its planning decisions must be reused). *)
  let edits =
    [
      "add blur = conv(in, gauss3, mirror)";
      "param gain 1.5";
      "add mag = blur * gain + in";
      "input aux";
      "add a1 = conv(aux, gauss5, mirror)";
      "add a2 = a1 * 2.0";
      "add mix = mag - blur";
    ]
  in
  (* The local reference: same empty builder, same edit sequence. *)
  let lp =
    Kfuse_lazy.Lazy_pipeline.create ~inputs:[ "in" ] ~width:48 ~height:32
      Kfuse_fusion.Config.default
    |> Result.get_ok
  in
  List.iter
    (fun line ->
      match
        Result.bind
          (Kfuse_lazy.Command.parse lp line)
          (Kfuse_lazy.Command.apply lp)
      with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "local %S rejected: %s" line (Diag.to_string d))
    edits;
  let reference =
    match Kfuse_lazy.Lazy_pipeline.flush lp with
    | Ok plan -> plan.Kfuse_lazy.Replan.fingerprint
    | Error d -> Alcotest.failf "local flush failed: %s" (Diag.to_string d)
  in
  let num name v =
    match field name v with
    | Jsonx.Num f -> f
    | j -> Alcotest.failf "field %S not a number: %s" name (Jsonx.to_string j)
  in
  let str name v =
    match field name v with
    | Jsonx.Str s -> s
    | j -> Alcotest.failf "field %S not a string: %s" name (Jsonx.to_string j)
  in
  Svc.Client.with_connection ~socket (fun c ->
      let ( let* ) = Result.bind in
      let* opened =
        Svc.Client.request c
          (Protocol.Lazy_open
             {
               Protocol.app = None;
               source = None;
               width = Some 48;
               height = Some 32;
               channels = None;
               inputs = [ "in" ];
               c_mshared = None;
               gamma = None;
               tg = None;
             })
      in
      let id = str "id" opened in
      (* Edits apply in order; each reply reports the new generation. *)
      let* () =
        List.fold_left
          (fun acc line ->
            let* () = acc in
            let* reply =
              Svc.Client.request c (Protocol.Lazy_edit { Protocol.id; command = line })
            in
            Alcotest.(check string) "edit targets the session" id (str "id" reply);
            Ok ())
          (Ok ()) edits
      in
      (* A rejected edit is a typed error and leaves the session live:
         'blur' is consumed downstream, and 'frob' is not a command. *)
      (match
         Svc.Client.request c (Protocol.Lazy_edit { Protocol.id; command = "del blur" })
       with
      | Ok _ -> Alcotest.fail "deleting a consumed kernel should fail"
      | Error _ -> ());
      (match
         Svc.Client.request c (Protocol.Lazy_edit { Protocol.id; command = "frob x" })
       with
      | Ok _ -> Alcotest.fail "unknown command should fail"
      | Error d ->
        Alcotest.(check string) "parse error code" "KF0201" (Diag.code_id d.Diag.code));
      (* Flush #1 plans everything fresh; #2 replays fully from memo;
         the scratch flush is the differential reference on the wire. *)
      let* flush1 =
        Svc.Client.request c (Protocol.Lazy_flush { Protocol.id; scratch = false })
      in
      Alcotest.(check bool) "first flush planned blocks" true
        (num "blocks_replanned" (field "replan" flush1) > 0.0);
      Alcotest.(check string) "wire plan matches local library plan" reference
        (str "fingerprint" flush1);
      let* flush2 =
        Svc.Client.request c (Protocol.Lazy_flush { Protocol.id; scratch = false })
      in
      Alcotest.(check bool) "reflush replays from memo" true
        (num "blocks_replanned" (field "replan" flush2) = 0.0);
      let* scratch =
        Svc.Client.request c (Protocol.Lazy_flush { Protocol.id; scratch = true })
      in
      Alcotest.(check string) "incremental == scratch over the wire"
        (str "fingerprint" flush1) (str "fingerprint" scratch);
      (* One more edit — confined to the in-chain — then
         incremental-vs-scratch again. *)
      let* _ =
        Svc.Client.request c
          (Protocol.Lazy_edit { Protocol.id; command = "retarget mix blur in" })
      in
      let* flush3 =
        Svc.Client.request c (Protocol.Lazy_flush { Protocol.id; scratch = false })
      in
      let* scratch3 =
        Svc.Client.request c (Protocol.Lazy_flush { Protocol.id; scratch = true })
      in
      Alcotest.(check string) "post-edit incremental == scratch"
        (str "fingerprint" flush3) (str "fingerprint" scratch3);
      Alcotest.(check bool) "edit dirtied only part of the DAG" true
        (num "blocks_reused" (field "replan" flush3) > 0.0);
      let* closed = Svc.Client.request c (Protocol.Lazy_close id) in
      Alcotest.(check bool) "close reports the flush count" true
        (num "flushes" closed = 5.0);
      (* Ops on a closed session are typed unknown-session errors. *)
      (match Svc.Client.request c (Protocol.Lazy_flush { Protocol.id; scratch = false }) with
      | Ok _ -> Alcotest.fail "flush on a closed session should fail"
      | Error d ->
        Alcotest.(check string) "unknown session code" "KF0806" (Diag.code_id d.Diag.code));
      (* The session accounting made it into stats. *)
      let* stats = Svc.Client.stats c in
      let lazy_stats = field "lazy" stats in
      Alcotest.(check bool) "one session opened" true (num "opened" lazy_stats = 1.0);
      Alcotest.(check bool) "one session closed" true (num "closed" lazy_stats = 1.0);
      Alcotest.(check bool) "no session left active" true (num "active" lazy_stats = 0.0);
      Alcotest.(check bool) "five flushes counted" true (num "flushes" lazy_stats = 5.0);
      Ok ())
  |> expect_ok

(* Opening from a registry app seeds the builder with the app's
   pipeline; the first flush must equal planning the app from scratch. *)
let test_lazy_open_seeded () =
  with_server @@ fun socket _server ->
  Svc.Client.with_connection ~socket (fun c ->
      let ( let* ) = Result.bind in
      let* opened =
        Svc.Client.request c
          (Protocol.Lazy_open
             {
               Protocol.app = Some "harris";
               source = None;
               width = None;
               height = None;
               channels = None;
               inputs = [];
               c_mshared = None;
               gamma = None;
               tg = None;
             })
      in
      let id =
        match field "id" opened with
        | Jsonx.Str s -> s
        | _ -> Alcotest.fail "lazy_open reply lacks an id"
      in
      let* flushed =
        Svc.Client.request c (Protocol.Lazy_flush { Protocol.id; scratch = false })
      in
      let reference =
        match Kfuse_apps.Registry.find "harris" with
        | None -> Alcotest.fail "harris app missing"
        | Some e -> (
          match
            Kfuse_lazy.Replan.scratch Kfuse_fusion.Config.default
              (e.Kfuse_apps.Registry.pipeline ())
          with
          | Ok plan -> plan.Kfuse_lazy.Replan.fingerprint
          | Error d -> Alcotest.failf "reference plan failed: %s" (Diag.to_string d))
      in
      Alcotest.(check bool) "seeded flush matches scratch reference" true
        (field "fingerprint" flushed = Jsonx.Str reference);
      let* _ = Svc.Client.request c (Protocol.Lazy_close id) in
      Ok ())
  |> expect_ok

(* [kfusec serve] defers its pool's domains to the first request that
   can share work.  Lazy flushes, scratch ones included, plan on the
   request's domain and must not spawn them; a fuse does. *)
let test_lazy_flushes_spawn_no_domain () =
  let socket = temp_socket () in
  let cache = Cache.Plan_cache.create () in
  let before = Kfuse_util.Pool.live_domains () in
  Kfuse_util.Pool.with_pool 2 (fun pool ->
      match Svc.Server.start ~socket ~cache ~pool () with
      | Error d -> Alcotest.failf "server start failed: %s" (Diag.to_string d)
      | Ok server ->
        Fun.protect ~finally:(fun () -> Svc.Server.stop server) @@ fun () ->
        Svc.Client.with_connection ~socket (fun c ->
            let ( let* ) = Result.bind in
            let* opened =
              Svc.Client.request c
                (Protocol.Lazy_open
                   {
                     Protocol.app = Some "harris";
                     source = None;
                     width = None;
                     height = None;
                     channels = None;
                     inputs = [];
                     c_mshared = None;
                     gamma = None;
                     tg = None;
                   })
            in
            let id =
              match field "id" opened with
              | Jsonx.Str s -> s
              | _ -> Alcotest.fail "lazy_open reply lacks an id"
            in
            let* _ = Svc.Client.request c (Protocol.Lazy_flush { Protocol.id; scratch = false }) in
            let* _ =
              Svc.Client.request c (Protocol.Lazy_edit { Protocol.id; command = "param k 0.05" })
            in
            let* _ = Svc.Client.request c (Protocol.Lazy_flush { Protocol.id; scratch = false }) in
            let* _ = Svc.Client.request c (Protocol.Lazy_flush { Protocol.id; scratch = true }) in
            Alcotest.(check int) "lazy flushes spawn no domain" before
              (Kfuse_util.Pool.live_domains ());
            let* _ = Svc.Client.fuse c (fuse_req "harris") in
            Alcotest.(check int) "a fuse spawns the worker" (before + 1)
              (Kfuse_util.Pool.live_domains ());
            Svc.Client.request c (Protocol.Lazy_close id))
        |> expect_ok |> ignore);
  Alcotest.(check int) "joined at shutdown" before (Kfuse_util.Pool.live_domains ())

let test_shutdown_request () =
  let socket = temp_socket () in
  let cache = Cache.Plan_cache.create () in
  Kfuse_util.Pool.with_pool 1 (fun pool ->
      match Svc.Server.start ~socket ~cache ~pool () with
      | Error d -> Alcotest.failf "start failed: %s" (Diag.to_string d)
      | Ok server ->
        expect_ok (Svc.Client.with_connection ~socket (fun c -> Svc.Client.shutdown c));
        (* wait returns promptly because the shutdown request stopped the
           accept loop; joining proves no thread is left behind. *)
        Svc.Server.wait server;
        Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket))

(* ---- key memo ----

   A request's plan key is memoized on its plan-shaping fields.  The
   scenarios take the socket of a [serve] or of a router, so both roles
   run the same checks; [planner] is the socket of the process that
   holds the plan cache (the server itself, or a router's shard). *)

let unparse p =
  match Kfuse_dsl.Unparse.pipeline p with
  | Ok s -> s
  | Error e -> Alcotest.failf "unparse: %s" e

let source_req src = { (fuse_req "harris") with Protocol.app = None; source = Some src }
let call socket req = expect_ok (Svc.Client.call ~socket req)

(* [stat socket ["cache"; "hits"]] reads one counter of [stats]. *)
let stat socket path =
  match Jsonx.num (List.fold_left (fun v k -> field k v) (call socket Protocol.Stats) path) with
  | Some f -> int_of_float f
  | None -> Alcotest.failf "stats field %s is not a number" (String.concat "." path)

let memo_stat socket name = stat socket [ "key_memo"; name ]

let plan_view reply =
  Jsonx.Obj
    (List.map
       (fun k -> (k, field k reply))
       [ "strategy"; "kernels_out"; "objective"; "partition"; "inlined" ])

let exec_view reply =
  let outputs =
    match field "outputs" reply with
    | Jsonx.Arr l -> List.map (fun o -> Jsonx.Arr [ field "width" o; field "height" o ]) l
    | _ -> Alcotest.fail "fuse_exec reply lacks outputs"
  in
  Jsonx.Obj
    [
      ("plan", plan_view reply);
      ("artifact", field "artifact" (field "exec" reply));
      ("outputs", Jsonx.Arr outputs);
    ]

let exec_req ?(optimize = false) (width, height) =
  {
    Protocol.fuse = { (fuse_req "harris") with Protocol.optimize };
    exec_mode = None;
    width = Some width;
    height = Some height;
    seed = 3;
    repeat = 1;
    verify = false;
    return_pixels = false;
  }

(* Each case differs from the first of its list in exactly one
   plan-shaping field and plans differently from it, so a field missing
   from the memo's digest would replay the first case's plan for it.
   Every reply must equal the [no_cache] reply, computed fresh.  The
   second pass of [fuse] cases runs concurrently, which is where a
   router's single flight would merge two requests it keyed alike. *)
let memo_field_coverage socket =
  let no_cache = function
    | Protocol.Fuse f -> Protocol.Fuse { f with Protocol.no_cache = true }
    | Protocol.Fuse_exec e ->
      Protocol.Fuse_exec
        { e with Protocol.fuse = { e.Protocol.fuse with Protocol.no_cache = true } }
    | r -> r
  in
  let check_cases ~name ~view ~concurrent cases =
    let fresh = List.map (fun r -> view (call socket (no_cache r))) cases in
    List.iteri
      (fun i v ->
        if i > 0 then
          Alcotest.(check bool)
            (Printf.sprintf "%s case %d plans unlike case 0" name i)
            false
            (Jsonx.to_string v = Jsonx.to_string (List.hd fresh)))
      fresh;
    let replies = Array.make (List.length cases) Jsonx.Null in
    let serve i r = replies.(i) <- view (call socket r) in
    List.iter
      (fun pass ->
        if pass = 2 && concurrent then
          List.iter Thread.join (List.mapi (fun i r -> Thread.create (serve i) r) cases)
        else List.iteri serve cases;
        List.iteri
          (fun i want ->
            Alcotest.(check string)
              (Printf.sprintf "%s case %d, pass %d, equals a fresh plan" name i pass)
              (Jsonx.to_string want) (Jsonx.to_string replies.(i)))
          fresh)
      [ 1; 2 ]
  in
  let base = source_req (unparse (Kfuse_apps.Harris.pipeline ())) in
  check_cases ~name:"fuse" ~view:plan_view ~concurrent:true
    (List.map
       (fun f -> Protocol.Fuse f)
       [
         base;
         { base with Protocol.tg = Some 700. };
         { base with Protocol.gamma = Some 50. };
         { base with Protocol.c_mshared = Some 8. };
         { base with Protocol.strategy = Kfuse_fusion.Driver.Baseline };
         { base with Protocol.inline = true };
       ]);
  (* The extent override and [optimize] show only in what runs: the
     outputs' extent and the compiled artifact. *)
  match Kfuse_exec.Toolchain.find () with
  | Error _ -> ()
  | Ok _ ->
    check_cases ~name:"fuse_exec" ~view:exec_view ~concurrent:false
      (List.map
         (fun e -> Protocol.Fuse_exec e)
         [ exec_req (64, 48); exec_req (96, 40); exec_req ~optimize:true (64, 48) ])

(* A bad source is never memoized: it is parsed again and answers with
   its full diagnostic every time. *)
let memo_errors socket =
  let entries = memo_stat socket "entries" in
  List.iter
    (fun src ->
      let diag () =
        match Svc.Client.call ~socket (Protocol.Fuse (source_req src)) with
        | Ok _ -> Alcotest.failf "bad source %S was planned" src
        | Error d -> Diag.to_string d
      in
      let first = diag () in
      Alcotest.(check string) "same diagnostic twice" first (diag ()))
    [ "pipeline p(in) {\n  size 8 8\n  k = in +\n}"; "pipeline p(in) {\n  k = nope\n}" ];
  Alcotest.(check int) "nothing memoized" entries (memo_stat socket "entries")

(* N repeats of one text: one miss, then N-1 hits, in the replies and in
   both the plan cache's and the memo's counters; a renamed copy is an
   iso-miss in the plan cache's counters on first sight, and from then
   on it and the original are both hits. *)
let memo_accounting socket ~planner =
  let p = Kfuse_apps.Sobel.pipeline () in
  let n = 5 in
  let outcomes =
    List.init n (fun _ -> field "outcome" (call socket (Protocol.Fuse (source_req (unparse p)))))
  in
  Alcotest.(check (list string)) "one miss, then hits"
    ("miss" :: List.init (n - 1) (fun _ -> "hit"))
    (List.map (function Jsonx.Str s -> s | _ -> "?") outcomes);
  let cache name = stat planner [ "cache"; name ] in
  Alcotest.(check int) "cache.hits" (n - 1) (cache "hits");
  Alcotest.(check int) "key_memo.hits" (n - 1) (memo_stat socket "hits");
  Alcotest.(check int) "key_memo.misses" 1 (memo_stat socket "misses");
  let metrics = expect_ok (Svc.Client.with_connection ~socket Svc.Client.metrics) in
  Alcotest.(check bool) "metrics carry the memo" true
    (List.mem
       (Printf.sprintf "kfused_key_memo_hits_total %d" (n - 1))
       (String.split_on_char '\n' metrics));
  let renamed =
    let module P = Kfuse_ir.Pipeline in
    let module K = Kfuse_ir.Kernel in
    let rename n = if List.mem n p.P.inputs then n else "x_" ^ n in
    let ren = Kfuse_ir.Expr.rename_images rename in
    P.create ~name:p.P.name ~width:p.P.width ~height:p.P.height ~channels:p.P.channels
      ~params:p.P.params ~inputs:p.P.inputs
      (List.map
         (fun (k : K.t) ->
           let op =
             match k.K.op with
             | K.Map e -> K.Map (ren e)
             | K.Reduce { init; combine; arg } -> K.Reduce { init; combine; arg = ren arg }
           in
           K.create ~name:(rename k.K.name) ~inputs:(List.map rename k.K.inputs) op)
         (Array.to_list p.P.kernels))
  in
  (* A reply says [miss] for both kinds of miss; the cache counts which. *)
  let send q =
    match field "outcome" (call socket (Protocol.Fuse (source_req (unparse q)))) with
    | Jsonx.Str s -> s
    | _ -> "?"
  in
  Alcotest.(check string) "a renamed copy misses" "miss" (send renamed);
  Alcotest.(check int) "a renamed copy is an iso-miss" 1 (cache "iso_misses");
  Alcotest.(check int) "and no further hit" (n - 1) (cache "hits");
  (* Both namings now share the structure's slot: neither evicts the
     other. *)
  Alcotest.(check string) "the renamed copy again" "hit" (send renamed);
  Alcotest.(check string) "the original after it" "hit" (send p);
  Alcotest.(check int) "no further iso-miss" 1 (cache "iso_misses");
  Alcotest.(check int) "two more hits" (n + 1) (cache "hits")

(* More distinct texts than the memo holds leave it full, not larger. *)
let memo_bound socket =
  let n = Svc.Key_memo.capacity + 8 in
  let misses = memo_stat socket "misses" in
  expect_ok
    (Svc.Client.with_connection ~socket (fun c ->
         let rec go i =
           if i = n then Ok ()
           else
             let src = Printf.sprintf "pipeline p(in) {\n  size 8 8\n  k = in * %d\n}" i in
             Result.bind (Svc.Client.fuse c (source_req src)) (fun _ -> go (i + 1))
         in
         go 0));
  Alcotest.(check int) "memo at capacity" Svc.Key_memo.capacity (memo_stat socket "entries");
  Alcotest.(check int) "every text keyed once" (misses + n) (memo_stat socket "misses")

let test_key_memo_fields () = with_server @@ fun socket _ -> memo_field_coverage socket
let test_key_memo_errors () = with_server @@ fun socket _ -> memo_errors socket

let test_key_memo_accounting () =
  with_server @@ fun socket _ -> memo_accounting socket ~planner:socket

let test_key_memo_bound () = with_server @@ fun socket _ -> memo_bound socket

(* The digest is injective on the plan-shaping fields: no two of these
   requests share one, including pairs that plain concatenation or a
   decimal float rendering would merge. *)
let test_key_memo_digest () =
  let base = fuse_req "ab" in
  let reqs =
    [
      base;
      { base with Protocol.app = Some "abc" };
      { base with Protocol.source = Some "ab" };
      { base with Protocol.app = Some "a"; source = Some "b" };
      { base with Protocol.app = None; source = Some "ab" };
      { base with Protocol.gamma = Some 0. };
      { base with Protocol.gamma = Some (-0.) };
      { base with Protocol.tg = Some 0. };
      { base with Protocol.c_mshared = Some 0. };
      { base with Protocol.strategy = Kfuse_fusion.Driver.Greedy };
      { base with Protocol.optimize = true };
      { base with Protocol.inline = true };
    ]
  in
  let digests =
    List.map (fun f -> Svc.Key_memo.digest f) reqs
    @ [ Svc.Key_memo.digest ~size:(4, 3) base; Svc.Key_memo.digest ~size:(3, 4) base ]
  in
  Alcotest.(check int) "all distinct" (List.length digests)
    (List.length (List.sort_uniq String.compare digests));
  Alcotest.(check string) "fields outside the plan do not key"
    (Svc.Key_memo.digest base)
    (Svc.Key_memo.digest
       { base with Protocol.strict = true; budget_ms = Some 5.; no_cache = true })

(* ---- the kfusec serve binary ---- *)

let paper_apps = [ "harris"; "sobel"; "unsharp"; "shitomasi"; "enhance"; "night" ]

let outcome reply =
  match Jsonx.mem_str "outcome" reply with
  | Some o -> o
  | None -> Alcotest.failf "reply lacks an outcome: %s" (Jsonx.to_string reply)

(* Two waves of the six paper apps against a live daemon: the first
   concurrent, the second (the same requests again) all plan-cache hits
   keyed from the key memo, with the daemon's stats and metrics agreeing;
   then --shutdown drains it. *)
let test_binary_waves () =
  with_daemon "serve" [ "-j"; "2" ] @@ fun d ->
  let first = Array.make (List.length paper_apps) (-1, "") in
  List.mapi (fun i app -> Thread.create (fun () -> first.(i) <- query d [ "-a"; app ]) ()) paper_apps
  |> List.iter Thread.join;
  Array.iteri
    (fun i (code, text) ->
      if code <> 0 then Alcotest.failf "wave 1, %s: exit %d: %s" (List.nth paper_apps i) code text)
    first;
  List.iter
    (fun app ->
      Alcotest.(check string) ("wave 2 " ^ app) "hit" (outcome (query_json d [ "-a"; app ])))
    paper_apps;
  let stats = query_json d [ "--stats" ] in
  Alcotest.(check bool) "cache hits >= 6" true (num_at stats [ "cache"; "hits" ] >= 6.0);
  Alcotest.(check bool) "positive hit rate" true (num_at stats [ "cache"; "hit_rate" ] > 0.0);
  let fuse = [ "requests"; "fuse" ] in
  Alcotest.(check (float 0.0)) "12 fuse requests" 12.0 (num_at stats (fuse @ [ "total" ]));
  Alcotest.(check (float 0.0)) "none failed" 0.0 (num_at stats (fuse @ [ "errors" ]));
  Alcotest.(check (float 0.0)) "12 latency samples" 12.0
    (num_at stats (fuse @ [ "latency"; "samples" ]));
  Alcotest.(check (float 0.0)) "wave 2 keyed from the memo" 6.0
    (num_at stats [ "key_memo"; "hits" ]);
  let text = metrics d in
  Alcotest.(check (float 0.0)) "plan cache hits metric" 6.0
    (metric text "kfused_plan_cache_hits_total");
  Alcotest.(check (float 0.0)) "key memo hits metric" 6.0 (metric text "kfused_key_memo_hits_total");
  shutdown d

(* [text] with every identifier token in [names] renamed. *)
let rename_words names text =
  let ident c = c = '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9') in
  let buf = Buffer.create (String.length text) in
  let n = String.length text in
  let rec go i =
    if i < n then
      if ident text.[i] then begin
        let j = ref i in
        while !j < n && ident text.[!j] do incr j done;
        let w = String.sub text i (!j - i) in
        Buffer.add_string buf (Option.value ~default:w (List.assoc_opt w names));
        go !j
      end
      else (Buffer.add_char buf text.[i]; go (i + 1))
  in
  go 0;
  Buffer.contents buf

(* Sobel and a copy with every kernel renamed, each twice, against one
   daemon: the copy is an iso miss, then both hit one slot. *)
let test_binary_renamed_copy_slot () =
  with_temp_dir @@ fun dir ->
  let original = "../examples/pipelines/sobel.pipe" in
  let renamed = Filename.concat dir "sobel-renamed.pipe" in
  let src = In_channel.with_open_text original In_channel.input_all in
  Out_channel.with_open_text renamed (fun oc ->
      output_string oc (rename_words [ ("dx", "gx"); ("dy", "gy"); ("mag", "norm") ] src));
  Alcotest.(check bool) "the copy is renamed" true
    (contains "norm" (In_channel.with_open_text renamed In_channel.input_all));
  with_daemon "serve" [] @@ fun d ->
  Alcotest.(check (list string)) "outcomes" [ "miss"; "miss"; "hit"; "hit" ]
    (List.map (fun f -> outcome (query_json d [ f ])) [ original; renamed; original; renamed ]);
  let stats = query_json d [ "--stats" ] in
  Alcotest.(check (float 0.0)) "one iso miss" 1.0 (num_at stats [ "cache"; "iso_misses" ]);
  Alcotest.(check (float 0.0)) "two entries" 2.0 (num_at stats [ "cache"; "entries" ]);
  shutdown d

(* A store whose plans carry an older build's format header: a fresh
   daemon drops each entry (one disk error), recomputes, and serves the
   recomputed plan as a hit. *)
let test_binary_old_format_store () =
  with_temp_dir @@ fun store ->
  let sobel d = outcome (query_json d [ "-a"; "sobel" ]) in
  with_daemon "serve" [ "--cache-dir"; store ] (fun d ->
      Alcotest.(check string) "cold store" "miss" (sobel d);
      shutdown d);
  let plans =
    Sys.readdir store |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".plan")
    |> List.map (Filename.concat store)
  in
  Alcotest.(check bool) "a plan was stored" true (plans <> []);
  let current = Printf.sprintf "kfuse-plan %d " Cache.Plan_cache.format_version in
  List.iter
    (fun path ->
      let data = In_channel.with_open_bin path In_channel.input_all in
      if not (String.starts_with ~prefix:current data) then
        Alcotest.failf "%s: unexpected header %S" path (String.sub data 0 (min 40 (String.length data)));
      let body = String.sub data (String.length current) (String.length data - String.length current) in
      Out_channel.with_open_bin path (fun oc -> output_string oc ("kfuse-plan 2 " ^ body)))
    plans;
  with_daemon "serve" [ "--cache-dir"; store ] @@ fun d ->
  Alcotest.(check string) "old entry recomputed" "miss" (sobel d);
  Alcotest.(check (float 0.0)) "one disk error" 1.0
    (num_at (query_json d [ "--stats" ]) [ "cache"; "disk_errors" ]);
  Alcotest.(check string) "recomputed plan served" "hit" (sobel d);
  Alcotest.(check int) "ping answers" 0 (fst (query d [ "--ping" ]));
  shutdown d

(* An injected accept fault costs the first connection, not the daemon. *)
let test_binary_accept_fault () =
  with_daemon ~env:[ "KFUSE_FAULTS=service.accept@1" ] "serve" [ "-j"; "2" ] @@ fun d ->
  let code, _ = query d [ "--ping" ] in
  Alcotest.(check bool) "the dropped connection fails" true (code <> 0);
  let code, text = query d [ "-a"; "harris" ] in
  Alcotest.(check int) "then it serves" 0 code;
  Alcotest.(check bool) "status ok" true (contains "\"status\":\"ok\"" text);
  Alcotest.(check (float 0.0)) "drop in the metrics" 1.0
    (metric (metrics d) "kfused_connections_dropped_total");
  shutdown d

let suite =
  [
    Alcotest.test_case "jsonx: encode/decode roundtrip" `Quick test_jsonx_roundtrip;
    Alcotest.test_case "jsonx: parser accepts/rejects" `Quick test_jsonx_parse;
    Alcotest.test_case "protocol: request roundtrip + rejection" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "kfused: two concurrent clients share the cache" `Quick
      test_concurrent_clients;
    Alcotest.test_case "kfused: error responses keep the connection alive" `Quick
      test_error_responses_keep_serving;
    Alcotest.test_case "kfused: fuse_exec plans, compiles and executes" `Slow
      test_fuse_exec_end_to_end;
    Alcotest.test_case "kfused: fuse_exec verify is bitwise (NaN under max)" `Slow
      test_fuse_exec_verify_bitwise;
    Alcotest.test_case "kfused: sandbox runners reused, counted, stopped" `Slow
      test_sandbox_runners_accounted;
    Alcotest.test_case "kfused: service.accept fault drops one connection" `Quick
      test_accept_fault_degrades;
    Alcotest.test_case "kfused: stale socket replaced, live refused" `Quick
      test_stale_socket_replaced;
    Alcotest.test_case "client: connect retry rides out a restart" `Quick
      test_connect_retry_over_restart;
    Alcotest.test_case "kfused: shutdown request stops the server" `Quick
      test_shutdown_request;
    Alcotest.test_case "kfused: lazy session edits, flushes, differentials" `Quick
      test_lazy_session_end_to_end;
    Alcotest.test_case "kfused: lazy_open seeded from a registry app" `Quick
      test_lazy_open_seeded;
    Alcotest.test_case "kfused: lazy flushes spawn no pool domain" `Quick
      test_lazy_flushes_spawn_no_domain;
    Alcotest.test_case "key memo: digest is injective" `Quick
      test_key_memo_digest;
    Alcotest.test_case "key memo: every plan-shaping field keys it" `Slow
      test_key_memo_fields;
    Alcotest.test_case "key memo: bad source re-diagnosed every time" `Quick
      test_key_memo_errors;
    Alcotest.test_case "key memo: repeats hit, renamed copies miss-iso" `Quick
      test_key_memo_accounting;
    Alcotest.test_case "key memo: bounded at its capacity" `Quick test_key_memo_bound;
    Alcotest.test_case "kfused: crash corpus follows the cache dir" `Quick
      test_crash_dir_follows_cache;
    Alcotest.test_case "kfused: bad settings are a typed start error" `Quick
      test_start_rejects_bad_config;
    Alcotest.test_case "kfusec serve: two waves, stats, metrics, shutdown" `Slow
      test_binary_waves;
    Alcotest.test_case "kfusec serve: a renamed copy shares its original's slot" `Slow
      test_binary_renamed_copy_slot;
    Alcotest.test_case "kfusec serve: an old-format plan store is recomputed" `Slow
      test_binary_old_format_store;
    Alcotest.test_case "kfusec serve: an accept fault drops one connection" `Slow
      test_binary_accept_fault;
  ]
