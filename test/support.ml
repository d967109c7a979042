(* Helpers shared by the test suites: temporary files, JSON access, a
   two-thread map, and the two ways to talk to a daemon, an in-process
   [Server] ([with_server]) or the built kfusec binary ([with_daemon],
   [query], [run_capture]). *)

module Svc = Kfuse_service
module Jsonx = Svc.Jsonx
module Diag = Kfuse_util.Diag
module Child = Kfuse_exec.Supervisor.Child

let kfusec = "../bin/kfusec.exe"

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

let temp_socket () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "kfused-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* [rm -rf path], without a shell. *)
let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir f =
  let dir = temp_dir "kfuse-test" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let field name v =
  match Jsonx.member name v with
  | Some f -> f
  | None -> Alcotest.failf "response lacks %S: %s" name (Jsonx.to_string v)

let fuse_req ?budget_ms ?(strict = false) app =
  {
    Svc.Protocol.app = Some app;
    source = None;
    strategy = Kfuse_fusion.Driver.Mincut;
    c_mshared = None;
    gamma = None;
    tg = None;
    optimize = false;
    inline = false;
    strict;
    budget_ms;
    no_cache = false;
  }

let expect_ok = function
  | Ok v -> v
  | Error d -> Alcotest.failf "request failed: %s" (Diag.to_string d)

(* [f] over [xs] on two threads, each taking the next element when it
   finishes one, results in order: C compiles and daemon round trips
   overlap on two cores.  [f] must not raise; a failure is its result,
   checked by the caller. *)
let map2_threads f xs =
  let xs = Array.of_list xs in
  let results = Array.make (Array.length xs) None and next = Atomic.make 0 in
  let rec run () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length xs then begin
      results.(i) <- Some (f xs.(i));
      run ()
    end
  in
  List.iter Thread.join [ Thread.create run (); Thread.create run () ];
  Array.to_list results |> List.map Option.get

let toolchain () =
  match Kfuse_exec.Toolchain.find () with Error _ -> Alcotest.skip () | Ok t -> t

let require_toolchain () = ignore (toolchain ())

(* An in-process server on a fresh socket over a two-domain pool.  Its
   crash corpus goes to a throwaway directory unless [crash_dir] names
   one, so no test writes into the operator's. *)
let with_server ?cache_dir ?exec_sandbox ?max_conns ?queue ?request_timeout_ms
    ?drain_timeout_ms ?exec_limits ?crash_dir ?breaker_threshold ?max_streams
    ?stream_idle_ms f =
  let socket = temp_socket () in
  let cache = Kfuse_cache.Plan_cache.create ?dir:cache_dir () in
  let own_crash_dir = Option.is_none crash_dir in
  let crash_dir = match crash_dir with Some d -> d | None -> temp_dir "kfuse-test-crash" in
  Fun.protect ~finally:(fun () -> if own_crash_dir then remove_tree crash_dir) @@ fun () ->
  Kfuse_util.Pool.with_pool 2 (fun pool ->
      match
        Svc.Server.start ~socket ~cache ~pool ?max_conns ?queue ?request_timeout_ms
          ?drain_timeout_ms ?exec_limits ~crash_dir ?exec_sandbox ?breaker_threshold
          ?max_streams ?stream_idle_ms ()
      with
      | Error d -> Alcotest.failf "server start failed: %s" (Diag.to_string d)
      | Ok server ->
        Fun.protect ~finally:(fun () -> Svc.Server.stop server) (fun () -> f socket server))

(* ---- the kfusec binary ---- *)

(* Run kfusec with [args], stdout and stderr captured together.  [env]
   is a shell prefix; the default empty KFUSE_FAULTS insulates a run
   from faults armed for the whole suite (CI's fault-matrix job). *)
let run_capture ?(env = "KFUSE_FAULTS=") args =
  let out = Filename.temp_file "kfusec_out" ".txt" in
  let cmd =
    Printf.sprintf "%s %s %s > %s 2>&1" env kfusec (String.concat " " args) out
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_text out In_channel.input_all in
  (try Sys.remove out with Sys_error _ -> ());
  (code, text)

let json_of what text =
  match Jsonx.of_string (String.trim text) with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s is not JSON (%s): %s" what e text

(* [path] inside a JSON object, as a number. *)
let num_at v path =
  let rec go v = function
    | [] -> ( match v with Jsonx.Num n -> n | _ -> Alcotest.failf "not a number: %s" (Jsonx.to_string v))
    | k :: rest -> go (field k v) rest
  in
  go v path

(* The value of the Prometheus sample [name] in a --metrics reply. *)
let metric text name =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ n; v ] when n = name -> float_of_string_opt v
         | _ -> None)
  |> function
  | Some v -> v
  | None -> Alcotest.failf "metrics lack %s:\n%s" name text

(* Live processes whose command line mentions [path]. *)
let processes_mentioning path =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter (fun pid ->
         match In_channel.with_open_bin ("/proc/" ^ pid ^ "/cmdline") In_channel.input_all with
         | cmd -> contains path cmd
         | exception Sys_error _ -> false)

type daemon = {
  socket : string;
  dir : string;  (** private to this daemon; removed on exit *)
  log : string;  (** its stdout and stderr *)
  fleet : string option;  (** shard-serve's --shard-dir *)
  child : Child.t;
  mutable ended : bool;
}

let read_file path =
  try In_channel.with_open_text path In_channel.input_all with Sys_error _ -> ""

let logs d =
  d.log
  :: (match d.fleet with
     | None -> []
     | Some f ->
       (try Array.to_list (Sys.readdir f) with Sys_error _ -> [])
       |> List.filter (fun n -> Filename.check_suffix n ".log")
       |> List.map (Filename.concat f))

let log_text d = read_file d.log

(* A thread killed by an uncaught exception leaves the process up but
   part of it dead; the runtime says so on stderr. *)
let check_no_silent_death d =
  List.iter
    (fun path ->
      if contains "killed on uncaught exception" (read_file path) then
        Alcotest.failf "%s: a thread died on an uncaught exception:\n%s" path (read_file path))
    (logs d)

(* Wait for [d] to exit (sending SIGTERM first unless [term] is false,
   for a daemon already asked to shut down) and check it drained: exit
   0, "shut down" logged, its socket removed, no thread died silently,
   and nothing it started (shards, sandbox runners) outlives it.  With
   [taken], another daemon has since bound [d.socket]: the file must
   stay. *)
let stop ?(term = true) ?(taken = false) d =
  if not d.ended then begin
    d.ended <- true;
    if term then Child.signal d.child Sys.sigterm;
    let rec await n =
      match Child.poll d.child with
      | Some st -> st
      | None when n = 0 ->
        ignore (Child.terminate d.child);
        Alcotest.failf "daemon did not exit within 20 s:\n%s" (log_text d)
      | None -> Unix.sleepf 0.005; await (n - 1)
    in
    (match await 4000 with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED c -> Alcotest.failf "daemon exited %d:\n%s" c (log_text d)
    | _ -> Alcotest.failf "daemon died on a signal:\n%s" (log_text d));
    Alcotest.(check bool) "daemon logged its shutdown" true (contains "shut down" (log_text d));
    if taken then
      Alcotest.(check bool) "the other daemon's socket kept" true (Sys.file_exists d.socket)
    else Alcotest.(check bool) "socket removed" false (Sys.file_exists d.socket);
    check_no_silent_death d;
    Alcotest.(check (list string)) "nothing outlives the daemon" []
      (processes_mentioning d.dir)
  end

(* SIGKILL [d]: no drain, so [with_daemon] then only checks its logs. *)
let kill d =
  d.ended <- true;
  Child.kill d.child;
  let rec reap n =
    if Child.running d.child && n > 0 then (Unix.sleepf 0.01; reap (n - 1))
  in
  reap 500

(* Run [f] against a live [kfusec serve] or [kfusec shard-serve] with
   [args], listening on [d.socket] once [f] runs (for shard-serve: once
   the fleet is ready, with shards under [d.fleet]).  [socket] defaults
   to one under [d.dir].  The daemon gets an empty KFUSE_FAULTS, then
   [env] ("NAME=value" items), and its default cache under [d.dir].
   [ulimit] ("-n 24") runs it under that shell limit.  On return, [stop]
   checks the drain unless [f] did. *)
let with_daemon ?(env = []) ?ulimit ?socket cmd args f =
  let dir = temp_dir "kfuse-daemon" in
  let socket = Option.value socket ~default:(Filename.concat dir "d.sock") in
  let log = Filename.concat dir "daemon.log" in
  let fleet = if cmd = "shard-serve" then Some (Filename.concat dir "fleet") else None in
  let argv =
    [ "env"; "KFUSE_FAULTS="; "XDG_CACHE_HOME=" ^ Filename.concat dir "xdg" ]
    @ env
    @ [ kfusec; cmd; "--socket"; socket ]
    @ (match fleet with Some f -> [ "--shard-dir"; f ] | None -> [])
    @ args
  in
  let argv =
    match ulimit with
    | None -> argv
    | Some u -> [ "sh"; "-c"; "ulimit " ^ u ^ "; exec \"$@\""; "sh" ] @ argv
  in
  let child =
    match Child.spawn ~stdout_path:log ~stderr_path:log ~argv () with
    | Ok c -> c
    | Error e -> Alcotest.failf "cannot start kfusec %s: %s" cmd e
  in
  let d = { socket; dir; log; fleet; child; ended = false } in
  Fun.protect
    ~finally:(fun () ->
      ignore (Child.terminate child);
      remove_tree dir)
  @@ fun () ->
  let ready () =
    match fleet with
    | None -> Sys.file_exists socket
    | Some _ -> contains "fleet ready" (log_text d)
  in
  let rec await n =
    if not (ready ()) then
      if n = 0 || not (Child.running child) then
        Alcotest.failf "kfusec %s never became ready:\n%s" cmd (log_text d)
      else (Unix.sleepf 0.005; await (n - 1))
  in
  await 4000;
  let r = f d in
  if d.ended then check_no_silent_death d else stop d;
  r

(* [kfusec query --socket d.socket args]. *)
let query d args = run_capture ([ "query"; "--socket"; d.socket ] @ args)

(* A query that must succeed, its reply parsed. *)
let query_json d args =
  let code, text = query d args in
  if code <> 0 then
    Alcotest.failf "query %s exited %d: %s" (String.concat " " args) code text;
  json_of ("query " ^ String.concat " " args) text

let metrics d =
  let code, text = query d [ "--metrics" ] in
  if code <> 0 then Alcotest.failf "query --metrics exited %d: %s" code text;
  text

(* Ask [d] to shut down over its socket, then [stop] it. *)
let shutdown d =
  let code, text = query d [ "--shutdown" ] in
  if code <> 0 then Alcotest.failf "query --shutdown exited %d: %s" code text;
  stop ~term:false d
