(* The sharded kfused topology, end to end over real processes: a
   Router running in this process supervising kfusec-serve shard
   subprocesses.  Exercises the robustness contract from the outside:

   - SIGKILL of a shard under retrying client load yields zero
     non-typed client failures, the supervisor restarts it (counted in
     [shard_restarts]), and requests homed on the dead shard reroute to
     a neighbor with the KF0807 annotation — replies staying
     bit-identical (modulo cache provenance) to a single server's;
   - N concurrent identical cold fuse requests coalesce into exactly
     one plan search (single-flight), all N replies byte-identical;
   - stream ids are shard-prefixed and pinned;
   - a crashed fleet's stale sockets are reclaimed on restart. *)

module Svc = Kfuse_service
module Jsonx = Svc.Jsonx
module Protocol = Svc.Protocol
module Cache = Kfuse_cache
module Diag = Kfuse_util.Diag

open Support

(* Small supervision knobs so crash → respawn → ready fits in test time. *)
let fast_config =
  { Svc.Shard.restart_backoff_ms = 50.; storm_window_ms = 1_000.; dead_cooldown_ms = 2_000. }

let with_fleet ?(count = 2) ?(faults = "") f =
  let dir = temp_dir "kfuse-topo" in
  let socket = temp_socket () in
  (* Shards are real kfusec-serve processes; they inherit the
     environment, so KFUSE_FAULTS arms fault points in the shards
     without touching this process's registry. *)
  Unix.putenv "KFUSE_FAULTS" faults;
  let shard_argv ~index:_ ~socket =
    [
      kfusec; "serve"; "--socket"; socket; "--cache-dir"; Filename.concat dir "cache";
      "--max-conns"; "8";
    ]
  in
  match
    Svc.Router.start ~socket ~dir ~count ~shard_argv ~shard_config:fast_config
      ~health_interval_ms:50. ~health_timeout_ms:500. ~request_timeout_ms:20_000. ()
  with
  | Error d -> Alcotest.failf "fleet start failed: %s" (Diag.to_string d)
  | Ok router ->
    Fun.protect
      ~finally:(fun () ->
        Svc.Router.stop router;
        Unix.putenv "KFUSE_FAULTS" "")
      (fun () ->
        if not (Svc.Router.await_ready ~timeout_ms:15_000. router) then
          Alcotest.fail "fleet did not become ready";
        f socket router)

(* Strip the fields that legitimately differ between a single server
   and a (possibly rerouted) fleet reply: cache provenance and timing,
   plus the router's reroute annotation.  Everything else — partition,
   objective, warnings — must be bit-identical. *)
let normalize ?(volatile = [ "plan_ms"; "cached"; "outcome"; "router" ]) reply =
  match reply with
  | Jsonx.Obj fields -> Jsonx.Obj (List.filter (fun (k, _) -> not (List.mem k volatile)) fields)
  | v -> v

(* The router's keyspace map, reproduced from its documented contract:
   leading 32 bits of the structural fingerprint, mod the fleet size. *)
let home_shard (req : Svc.Protocol.fuse_request) ~count =
  match Svc.Planner.pipeline (req.app, req.source) with
  | Error d -> Alcotest.failf "load_pipeline: %s" (Diag.to_string d)
  | Ok p ->
    let s = Cache.Fingerprint.structural p in
    let h =
      match int_of_string_opt ("0x" ^ String.sub s 0 8) with
      | Some v -> v
      | None -> Alcotest.failf "unexpected fingerprint %S" s
    in
    abs h mod count

let shard_pid router i =
  match Svc.Shard.pid (Svc.Router.shards router).(i) with
  | Some pid -> pid
  | None -> Alcotest.failf "shard %d has no pid" i

(* ---- basics ---- *)

let test_fleet_basics () =
  with_fleet ~count:2 @@ fun socket router ->
  (match Svc.Client.call ~socket Protocol.Ping with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "ping: %s" (Diag.to_string d));
  let stats =
    match Svc.Client.call ~socket Protocol.Stats with
    | Ok v -> v
    | Error d -> Alcotest.failf "stats: %s" (Diag.to_string d)
  in
  Alcotest.(check bool) "role is router" true (field "role" stats = Jsonx.Str "router");
  (match field "shards" stats with
  | Jsonx.Arr l -> Alcotest.(check int) "two shards" 2 (List.length l)
  | _ -> Alcotest.fail "stats lack shard array");
  let reply =
    match Svc.Client.call ~socket (Protocol.Fuse (fuse_req "harris")) with
    | Ok v -> v
    | Error d -> Alcotest.failf "fuse: %s" (Diag.to_string d)
  in
  Alcotest.(check bool) "6 fused kernels" true (field "kernels_out" reply = Jsonx.Num 6.0);
  let m = Svc.Router.metrics router in
  Alcotest.(check int) "one request routed" 1 (Svc.Metrics.counter m "requests_routed");
  List.iter
    (fun obj ->
      match field obj stats with
      | Jsonx.Obj _ -> ()
      | v -> Alcotest.failf "router stats %s: %s" obj (Jsonx.to_string v))
    [ "connections"; "limits" ];
  (* A lazy session is pinned like a stream: its id comes back
     shard-prefixed and routes later ops to the owning shard. *)
  let call req =
    match Svc.Client.call ~socket req with
    | Ok v -> v
    | Error d -> Alcotest.failf "%s: %s" (Protocol.op_name req) (Diag.to_string d)
  in
  let lazy_id =
    match
      Jsonx.mem_str "id"
        (call
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
              }))
    with
    | Some id -> id
    | None -> Alcotest.fail "lazy_open reply lacks id"
  in
  Alcotest.(check bool) "lazy id is shard-prefixed" true (lazy_id.[0] = 's');
  ignore (call (Protocol.Lazy_flush { Protocol.id = lazy_id; scratch = false }));
  ignore (call (Protocol.Lazy_close lazy_id));
  match Svc.Client.call ~socket Protocol.Metrics with
  | Error d -> Alcotest.failf "metrics: %s" (Diag.to_string d)
  | Ok v -> (
    match Jsonx.mem_str "text" v with
    | Some text ->
      let has needle =
        let nl = String.length needle and tl = String.length text in
        let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "exposition names the fleet counters" true
        (has "kfused_requests_routed_total" && has "kfused_shards_up")
    | None -> Alcotest.fail "metrics reply lacks text")

(* ---- failover under load ---- *)

let test_failover_under_storm () =
  with_fleet ~count:4 @@ fun socket router ->
  let req = Protocol.Fuse (fuse_req "harris") in
  let home = home_shard (fuse_req "harris") ~count:4 in
  (* Baseline: what a single server says for the same request. *)
  let baseline =
    let ssock = temp_socket () in
    let cache = Cache.Plan_cache.create () in
    Kfuse_util.Pool.with_pool 2 (fun pool ->
        match Svc.Server.start ~socket:ssock ~cache ~pool () with
        | Error d -> Alcotest.failf "baseline server: %s" (Diag.to_string d)
        | Ok server ->
          Fun.protect
            ~finally:(fun () -> Svc.Server.stop server)
            (fun () ->
              match Svc.Client.call ~socket:ssock req with
              | Ok v -> Jsonx.to_string (normalize v)
              | Error d -> Alcotest.failf "baseline fuse: %s" (Diag.to_string d)))
  in
  let clients = 6 and per_client = 8 in
  let results = Array.make clients [] in
  let failures = Array.make clients [] in
  let threads =
    Array.init clients (fun i ->
        Thread.create
          (fun () ->
            for _ = 1 to per_client do
              (match
                 Svc.Client.call ~socket
                   ~retry:{ Svc.Client.default_retry with attempts = 10; seed = i }
                   req
               with
              | Ok v -> results.(i) <- Jsonx.to_string (normalize v) :: results.(i)
              | Error d -> failures.(i) <- d :: failures.(i)
              | exception exn ->
                Alcotest.failf "non-typed client failure: %s" (Printexc.to_string exn));
              Thread.delay 0.01
            done)
          ())
  in
  (* Kill the home shard mid-storm: requests in flight against it must
     fail over to a neighbor, the supervisor must respawn it. *)
  Thread.delay 0.03;
  Unix.kill (shard_pid router home) Sys.sigkill;
  Array.iter Thread.join threads;
  Array.iteri
    (fun i fs ->
      List.iter
        (fun d -> Alcotest.failf "client %d saw %s" i (Diag.to_string d))
        fs)
    failures;
  let all = Array.to_list results |> List.concat in
  Alcotest.(check int) "every request answered" (clients * per_client) (List.length all);
  List.iter
    (fun r -> Alcotest.(check string) "reply identical to single server" baseline r)
    all;
  let m = Svc.Router.metrics router in
  Alcotest.(check bool) "requests rerouted off the dead shard" true
    (Svc.Metrics.counter m "requests_rerouted" >= 1);
  (* The clients are done before the supervisor's respawn necessarily
     lands (tick + backoff + spawn); give it a bounded settling window,
     then require both the restart count and a routable shard. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec settle () =
    let s = (Svc.Router.shards router).(home) in
    let recovered =
      Svc.Metrics.counter m "shard_restarts" >= 1
      && match Svc.Shard.state s with Svc.Shard.Up -> true | _ -> false
    in
    if recovered then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "shard %d never came back (state %s, %d restarts)" home
        (Svc.Shard.state_string s)
        (Svc.Metrics.counter m "shard_restarts")
    else begin
      Thread.delay 0.05;
      settle ()
    end
  in
  settle ()

(* A rerouted reply must carry the typed degraded-locality warning. *)
let test_reroute_annotation () =
  with_fleet ~count:2 @@ fun socket router ->
  let req = Protocol.Fuse (fuse_req "harris") in
  let home = home_shard (fuse_req "harris") ~count:2 in
  (* Warm the shared disk cache so the reroute is served, then kill the
     home shard and ask again before the supervisor can respawn it. *)
  (match Svc.Client.call ~socket req with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "warm fuse: %s" (Diag.to_string d));
  Unix.kill (shard_pid router home) Sys.sigkill;
  let reply =
    match Svc.Client.call ~socket req with
    | Ok v -> v
    | Error d -> Alcotest.failf "fuse after kill: %s" (Diag.to_string d)
  in
  (match Jsonx.member "router" reply with
  | Some r ->
    Alcotest.(check bool) "marked rerouted" true
      (Jsonx.mem_bool "rerouted" r = Some true);
    (match Jsonx.mem_str "warning" r with
    | Some w ->
      Alcotest.(check bool) "KF0807 warning" true
        (String.length w >= 6 && String.sub w 0 7 = "warning")
    | None -> Alcotest.fail "reroute lacks warning")
  | None ->
    (* The supervisor may have respawned the home shard between the kill
       and the request (50 ms backoff): then the reply is served at home
       with no annotation, which is also a correct outcome — but the
       kill must at least be visible to the supervisor eventually. *)
    ());
  ignore router

(* ---- single flight ---- *)

let test_single_flight () =
  (* Every shard reply is delayed 50 ms (proto.slow_write armed in the
     shard process via the environment), so 8 requests fired together
     all arrive while the leader's flight is still open. *)
  with_fleet ~count:1 ~faults:"proto.slow_write/1" @@ fun socket router ->
  let req = Protocol.Fuse (fuse_req "harris") in
  let n = 8 in
  let replies = Array.make n "" in
  let threads =
    Array.init n (fun i ->
        Thread.create
          (fun () ->
            match Svc.Client.call ~socket req with
            | Ok v -> replies.(i) <- Jsonx.to_string v
            | Error d -> Alcotest.failf "client %d: %s" i (Diag.to_string d))
          ())
  in
  Array.iter Thread.join threads;
  Array.iter
    (fun r ->
      Alcotest.(check string) "all replies byte-identical" replies.(0) r)
    replies;
  let m = Svc.Router.metrics router in
  Alcotest.(check int) "one upstream request" 1 (Svc.Metrics.counter m "requests_routed");
  Alcotest.(check int) "the rest coalesced" (n - 1)
    (Svc.Metrics.counter m "requests_coalesced");
  (* The shard's own cache agrees: exactly one plan search happened. *)
  let shard_socket = Svc.Shard.socket (Svc.Router.shards router).(0) in
  match Svc.Client.with_connection ~socket:shard_socket (fun c -> Svc.Client.stats c) with
  | Error d -> Alcotest.failf "shard stats: %s" (Diag.to_string d)
  | Ok stats ->
    let cache = field "cache" stats in
    Alcotest.(check bool) "exactly one plan computed" true
      (field "misses" cache = Jsonx.Num 1.0);
    Alcotest.(check bool) "no shard-side hits" true (field "hits" cache = Jsonx.Num 0.0)

(* Distinct requests must not coalesce. *)
let test_single_flight_distinct_keys () =
  with_fleet ~count:1 ~faults:"proto.slow_write/1" @@ fun socket router ->
  let reqs = [| Protocol.Fuse (fuse_req "harris"); Protocol.Fuse (fuse_req "sobel") |] in
  let threads =
    Array.map
      (fun req ->
        Thread.create
          (fun () ->
            match Svc.Client.call ~socket req with
            | Ok _ -> ()
            | Error d -> Alcotest.failf "fuse: %s" (Diag.to_string d))
          ())
      reqs
  in
  Array.iter Thread.join threads;
  let m = Svc.Router.metrics router in
  Alcotest.(check int) "nothing coalesced" 0 (Svc.Metrics.counter m "requests_coalesced");
  Alcotest.(check int) "both routed" 2 (Svc.Metrics.counter m "requests_routed")

(* ---- key memo ----

   The router memoizes plan keys as [serve] does; the scenarios are
   {!Test_service}'s.  Shard replies are slowed in the field-coverage
   fleet so that its concurrent pass overlaps in the single flight. *)

let test_key_memo_fields () =
  with_fleet ~count:1 ~faults:"proto.slow_write/1" @@ fun socket _ ->
  Test_service.memo_field_coverage socket

let test_key_memo_accounting () =
  with_fleet ~count:1 @@ fun socket router ->
  let planner = Svc.Shard.socket (Svc.Router.shards router).(0) in
  Test_service.memo_accounting socket ~planner;
  Test_service.memo_errors socket;
  Test_service.memo_bound socket

(* ---- streams ---- *)

let test_stream_pinning () =
  require_toolchain ();
  with_fleet ~count:2 @@ fun socket _router ->
  let open_req =
    {
      Protocol.fuse = fuse_req "harris";
      exec_mode = None;
      width = Some 64;
      height = Some 64;
      seed = 7;
    }
  in
  let reply =
    match Svc.Client.call ~socket (Protocol.Stream_open open_req) with
    | Ok v -> v
    | Error d -> Alcotest.failf "stream_open: %s" (Diag.to_string d)
  in
  let id =
    match Jsonx.mem_str "id" reply with
    | Some id -> id
    | None -> Alcotest.failf "stream_open reply lacks id: %s" (Jsonx.to_string reply)
  in
  Alcotest.(check bool) "id is shard-prefixed" true
    (String.length id > 2 && id.[0] = 's' && String.contains id '-');
  (* Pushes route through the prefix back to the owning shard. *)
  (match
     Svc.Client.call ~socket
       (Protocol.Stream_push { Protocol.id; verify = false; return_pixels = false })
   with
  | Ok v ->
    Alcotest.(check bool) "push answered by the pinned shard" true
      (Jsonx.mem_str "status" v = Some "ok")
  | Error d -> Alcotest.failf "stream_push: %s" (Diag.to_string d));
  (* A server-shaped id the router never issued is a typed error. *)
  (match
     Svc.Client.call ~socket
       (Protocol.Stream_push { Protocol.id = "st-0"; verify = false; return_pixels = false })
   with
  | Ok _ -> Alcotest.fail "foreign stream id should be rejected"
  | Error d ->
    Alcotest.(check bool) "typed stream error" true (d.Diag.code = Diag.Stream_unknown));
  match Svc.Client.call ~socket (Protocol.Stream_close id) with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "stream_close: %s" (Diag.to_string d)

(* ---- stale socket reclaim ---- *)

let test_fleet_socket_sweep () =
  let dir = temp_dir "kfuse-topo" in
  (* A crashed fleet's leavings: stale bound-but-dead sockets for the
     shards we will reuse, plus one from a previously larger fleet. *)
  List.iter
    (fun path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.close fd)
    [ Svc.Shard.socket_path ~dir 0; Svc.Shard.socket_path ~dir 7 ];
  (match Svc.Shard.sweep_sockets ~dir ~count:2 with
  | Ok () -> ()
  | Error d -> Alcotest.failf "sweep failed: %s" (Diag.to_string d));
  Alcotest.(check bool) "stale shard-0 socket reclaimed" false
    (Sys.file_exists (Svc.Shard.socket_path ~dir 0));
  Alcotest.(check bool) "leftover shard-7 socket reclaimed" false
    (Sys.file_exists (Svc.Shard.socket_path ~dir 7));
  (* A live listener is refused, not stolen. *)
  let live = Svc.Shard.socket_path ~dir 1 in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX live);
  Unix.listen fd 1;
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Svc.Shard.sweep_sockets ~dir ~count:2 with
      | Ok () -> Alcotest.fail "sweep should refuse a live listener"
      | Error _ -> ())

(* A fleet of no shards is a typed start error, before any socket or
   directory is touched. *)
let test_zero_shards_refused () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kfuse-topo-none-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  let socket = temp_socket () in
  match
    Svc.Router.start ~socket ~dir ~count:0 ~shard_argv:(fun ~index:_ ~socket:_ -> []) ()
  with
  | Ok router ->
    Svc.Router.stop router;
    Alcotest.fail "a 0-shard fleet started"
  | Error d ->
    Alcotest.(check string) "KF0401" "KF0401" (Diag.code_id d.Diag.code);
    Alcotest.(check bool) "socket never bound" false (Sys.file_exists socket);
    Alcotest.(check bool) "fleet dir never made" false (Sys.file_exists dir)

(* ---- the kfusec shard-serve binary ---- *)

(* The same DSL source twice through a live router: the second is keyed
   from its memo, and the replies agree apart from timing and cache
   provenance. *)
let test_binary_router_memo () =
  with_daemon "shard-serve" [ "--shards"; "2" ] @@ fun d ->
  let source = "../examples/pipelines/unsharp.pipe" in
  let first = query_json d [ source ] and second = query_json d [ source ] in
  let stats = query_json d [ "--stats" ] in
  Alcotest.(check (float 0.0)) "memo hits" 1.0 (num_at stats [ "key_memo"; "hits" ]);
  Alcotest.(check (float 0.0)) "memo misses" 1.0 (num_at stats [ "key_memo"; "misses" ]);
  Alcotest.(check (option string)) "first misses" (Some "miss") (Jsonx.mem_str "outcome" first);
  Alcotest.(check (option string)) "second hits" (Some "hit") (Jsonx.mem_str "outcome" second);
  let norm = normalize ~volatile:[ "plan_ms"; "cached"; "outcome" ] in
  Alcotest.(check string) "replies agree" (Jsonx.to_string (norm first))
    (Jsonx.to_string (norm second));
  Alcotest.(check (float 0.0)) "memo hit metric" 1.0 (metric (metrics d) "kfused_key_memo_hits_total");
  stop d;
  Alcotest.(check bool) "fleet shut down" true (contains "fleet shut down" (log_text d))

(* A 4-shard fleet under 8 retrying clients has the shard that owns the
   request SIGKILLed a quarter into the storm: every call still succeeds with a
   single server's reply (modulo provenance), the supervisor restarts
   the shard, requests reroute meanwhile, and SIGTERM drains it all. *)
let test_binary_fleet_kill_under_storm () =
  let reference =
    with_daemon "serve" [] (fun d -> normalize (query_json d [ "--app"; "harris" ]))
  in
  with_daemon "shard-serve" [ "--shards"; "4"; "--health-interval-ms"; "100" ] @@ fun d ->
  let fleet = Option.get d.fleet in
  let retrying =
    [ "--timeout-ms"; "5000"; "--retries"; "8"; "--retry-backoff-ms"; "30"; "--app"; "harris" ]
  in
  ignore (query_json d retrying);
  let stats = query_json d [ "--stats" ] in
  let connections = [ "connections" ] in
  Alcotest.(check (float 0.0)) "no shed" 0.0 (num_at stats (connections @ [ "shed" ]));
  Alcotest.(check (float 0.0)) "no accept errors" 0.0
    (num_at stats (connections @ [ "accept_errors" ]));
  Alcotest.(check (float 0.0)) "router max_conns" 16.0 (num_at stats [ "limits"; "max_conns" ]);
  (* The victim is the shard that served the warm-up: harris's home. *)
  let served i =
    let shard = Filename.concat fleet (Printf.sprintf "shard-%d.sock" i) in
    let code, text = run_capture [ "query"; "--socket"; shard; "--stats" ] in
    if code <> 0 then Alcotest.failf "shard %d stats: %s" i text;
    match Jsonx.member "requests" (json_of "shard stats" text) with
    | Some r -> (
      match Option.bind (Jsonx.member "fuse" r) (Jsonx.mem_num "total") with
      | Some n -> n > 0.0
      | None -> false)
    | None -> false
  in
  let home =
    match List.find_opt served [ 0; 1; 2; 3 ] with
    | Some i -> i
    | None -> Alcotest.fail "no shard served the warm-up"
  in
  let victim =
    match Jsonx.arr (field "shards" stats) with
    | Some shards -> int_of_float (num_at (List.nth shards home) [ "pid" ])
    | None -> Alcotest.fail "router stats lack a shards array"
  in
  let clients = 8 and per_client = 12 in
  let replies = Array.make clients [] and answered = Atomic.make 0 in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            for _ = 1 to per_client do
              replies.(c) <- query d retrying :: replies.(c);
              Atomic.incr answered
            done)
          ())
  in
  (* Mid-storm: a quarter of the calls answered, the rest to come. *)
  while Atomic.get answered < clients * per_client / 4 do
    Unix.sleepf 0.005
  done;
  Unix.kill victim Sys.sigkill;
  List.iter Thread.join threads;
  let all = List.concat (Array.to_list replies) in
  Alcotest.(check int) "every call answered" (clients * per_client) (List.length all);
  let want = Jsonx.to_string reference in
  List.iter
    (fun (code, text) ->
      if code <> 0 then Alcotest.failf "a client call failed (exit %d): %s" code text;
      Alcotest.(check string) "a single server's reply" want
        (Jsonx.to_string (normalize (json_of "storm reply" text))))
    all;
  let rec settled n =
    let text = metrics d in
    if (metric text "kfused_shard_restarts_total" >= 1.0 && metric text "kfused_shards_up" = 4.0)
       || n = 0
    then text
    else (Unix.sleepf 0.2; settled (n - 1))
  in
  let text = settled 50 in
  Alcotest.(check bool) "the shard was restarted" true
    (metric text "kfused_shard_restarts_total" >= 1.0);
  Alcotest.(check bool) "requests were rerouted" true
    (metric text "kfused_requests_rerouted_total" >= 1.0);
  Alcotest.(check (float 0.0)) "all shards up" 4.0 (metric text "kfused_shards_up");
  stop d;
  Alcotest.(check bool) "fleet shut down" true (contains "fleet shut down" (log_text d))

(* A SIGKILLed router runs no drain, yet takes its shards with it:
   each was spawned to get SIGTERM when the router dies, so none is
   left serving a fleet that nothing routes to.  A shard still running
   after 5 s fails the test, and is killed so it does not outlive it. *)
let test_binary_router_sigkill_takes_shards () =
  with_daemon "shard-serve" [ "--shards"; "2" ] @@ fun d ->
  let pids =
    match Jsonx.arr (field "shards" (query_json d [ "--stats" ])) with
    | Some shards -> List.map (fun s -> int_of_float (num_at s [ "pid" ])) shards
    | None -> Alcotest.fail "router stats lack a shards array"
  in
  Alcotest.(check int) "two shard pids" 2 (List.length pids);
  (* Gone, or a zombie waiting for init to reap it. *)
  let running pid =
    match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
    | stat -> (
      match String.rindex_opt stat ')' with
      | Some i -> String.length stat > i + 2 && stat.[i + 2] <> 'Z'
      | None -> true)
    | exception Sys_error _ -> false
  in
  Alcotest.(check (list int)) "shards run before the kill" [] (List.filter (fun p -> not (running p)) pids);
  kill d;
  let rec await n =
    match List.filter running pids with
    | [] -> []
    | left when n = 0 -> left
    | _ -> Unix.sleepf 0.02; await (n - 1)
  in
  let left = await 250 in
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) left;
  Alcotest.(check (list int)) "no shard outlives its router by 5 s" [] left

let suite =
  [
    Alcotest.test_case "fleet basics" `Slow test_fleet_basics;
    Alcotest.test_case "failover under storm" `Slow test_failover_under_storm;
    Alcotest.test_case "reroute annotation" `Slow test_reroute_annotation;
    Alcotest.test_case "single flight" `Slow test_single_flight;
    Alcotest.test_case "single flight distinct keys" `Slow test_single_flight_distinct_keys;
    Alcotest.test_case "stream pinning" `Slow test_stream_pinning;
    Alcotest.test_case "fleet socket sweep" `Quick test_fleet_socket_sweep;
    Alcotest.test_case "zero shards is a typed start error" `Quick test_zero_shards_refused;
    Alcotest.test_case "router key memo: every plan-shaping field keys it" `Slow
      test_key_memo_fields;
    Alcotest.test_case "router key memo: accounting, errors, bound" `Slow
      test_key_memo_accounting;
    Alcotest.test_case "kfusec shard-serve: the router memoizes a repeated source" `Slow
      test_binary_router_memo;
    Alcotest.test_case "kfusec shard-serve: SIGKILL a shard under storm, then drain" `Slow
      test_binary_fleet_kill_under_storm;
    Alcotest.test_case "kfusec shard-serve: a SIGKILLed router takes its shards" `Slow
      test_binary_router_sigkill_takes_shards;
  ]
