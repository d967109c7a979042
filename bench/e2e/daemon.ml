(* Real kfusec daemons: spawn, wait until they answer, read their CPU time
   and peak memory from /proc, and stop them.

   Every file a daemon writes — sockets, plan and artifact caches, crash
   corpus, compiler temporaries, its log — lands under the directory it
   was started in, which lies inside the benchmark's work directory.
   Socket paths stay relative: a Unix socket path is limited to 107
   bytes, and the checkout may live deep in the file system. *)

module Svc = Kfuse_service
module Jsonx = Svc.Jsonx

type t = { pid : int; socket : string; dir : string; log : string }

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* The environment of a child: ours, with [vars] replacing any binding of
   the same names. *)
let environment vars =
  let keep b =
    match String.index_opt b '=' with
    | Some i -> not (List.mem_assoc (String.sub b 0 i) vars)
    | None -> true
  in
  Array.append
    (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) vars))

(* [spawn ~kfusec ~dir ~socket ?env args] starts [kfusec args] with its
   caches under [dir] and its output in [dir/daemon.log]. *)
let spawn ~kfusec ~dir ~socket ?(env = []) args =
  mkdir_p (Filename.concat dir "tmp");
  let adir = absolute dir in
  let log = Filename.concat dir "daemon.log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let env =
    environment
      ([ ("XDG_CACHE_HOME", Filename.concat adir "xdg"); ("TMPDIR", Filename.concat adir "tmp") ]
      @ env)
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process_env kfusec (Array.of_list (kfusec :: args)) env null out out)
  in
  { pid; socket; dir; log }

let no_retry = { Svc.Client.default_retry with Svc.Client.attempts = 0 }

let call ?(timeout_ms = 60_000.) socket req =
  Svc.Client.call ~socket ~timeout_ms ~retry:no_retry req

let exited t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> None
  | _, st -> Some st
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 255)

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* [await t ~ready] polls until [ready ()] holds, the daemon dies, or a
   minute passes. *)
let await t ~ready =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    match exited t with
    | Some st ->
      Error (Printf.sprintf "daemon %s died before it was ready (%s)" t.socket (status_string st))
    | None ->
      if ready () then Ok ()
      else if Unix.gettimeofday () > deadline then
        Error (Printf.sprintf "daemon %s not ready after 60 s" t.socket)
      else begin
        Thread.delay 0.01;
        go ()
      end
  in
  go ()

let pings t () = Result.is_ok (call ~timeout_ms:1_000. t.socket Svc.Protocol.Ping)

(* The router answers pings itself; a fleet is ready once its stats show
   every shard up. *)
let shards_up t () =
  match call ~timeout_ms:1_000. t.socket Svc.Protocol.Stats with
  | Error _ -> false
  | Ok s -> (
    match Option.bind (Jsonx.member "shards" s) Jsonx.arr with
    | Some (_ :: _ as l) -> List.for_all (fun sh -> Jsonx.mem_str "state" sh = Some "up") l
    | _ -> false)

(* Processes that make up the daemon: the router's stats list its
   shards' pids. *)
let pids t =
  let shard_pids =
    match call ~timeout_ms:5_000. t.socket Svc.Protocol.Stats with
    | Error _ -> []
    | Ok s ->
      Option.value ~default:[] (Option.bind (Jsonx.member "shards" s) Jsonx.arr)
      |> List.filter_map (fun sh -> Option.map int_of_float (Jsonx.mem_num "pid" sh))
  in
  t.pid :: shard_pids

let read_file path =
  match open_in path with
  | exception Sys_error _ -> ""
  | ic ->
    let b = Buffer.create 2048 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    close_in ic;
    Buffer.contents b

(* Clock ticks per second of /proc/<pid>/stat times: USER_HZ, 100 on
   every Linux architecture this runs on. *)
let ticks_per_s = 100.

(* utime + stime + cutime + cstime of [pid] in ms: the process's own CPU
   time plus that of the children it has reaped (sandboxed executions,
   compiler runs). *)
let cpu_ms pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  match String.rindex_opt s ')' with
  | None -> 0.
  | Some i ->
    let fields =
      String.split_on_char ' ' (String.trim (String.sub s (i + 1) (String.length s - i - 1)))
    in
    let f n = try float_of_string (List.nth fields n) with _ -> 0. in
    (* fields.(0) is the state, field 3 of stat(5); utime is field 14. *)
    (f 11 +. f 12 +. f 13 +. f 14) *. 1000. /. ticks_per_s

(* A /proc/<pid>/status memory field ("VmRSS", "VmHWM") in MiB. *)
let status_mb field pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ f; v ] when f = field -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> ( try float_of_string kb /. 1024. with _ -> acc)
        | [] -> acc)
      | _ -> acc)
    0. (String.split_on_char '\n' s)

let rss_mb = status_mb "VmRSS"
let hwm_mb = status_mb "VmHWM"

(* Restart [pid]'s VmHWM from its current resident set (clear_refs 5). *)
let reset_hwm pid =
  try
    let oc = open_out (Printf.sprintf "/proc/%d/clear_refs" pid) in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* [stop t] sends SIGTERM and waits for the drain.  [Error] when the
   daemon exits non-zero, dies on a signal, or needs a SIGKILL. *)
let stop t =
  match exited t with
  | Some st -> Error (Printf.sprintf "daemon %s exited early (%s)" t.socket (status_string st))
  | None ->
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 30. in
    let rec wait () =
      match exited t with
      | Some (Unix.WEXITED 0) -> Ok ()
      | Some st ->
        Error (Printf.sprintf "daemon %s ended with %s at teardown" t.socket (status_string st))
      | None when Unix.gettimeofday () > deadline ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid);
        Error (Printf.sprintf "daemon %s ignored SIGTERM for 30 s" t.socket)
      | None ->
        Thread.delay 0.01;
        wait ()
    in
    wait ()
