module Diag = Kfuse_util.Diag
module Deadline = Kfuse_util.Deadline
module Faults = Kfuse_util.Faults
module Fingerprint = Kfuse_cache.Fingerprint
module Pipeline = Kfuse_ir.Pipeline

(* {1 Sandbox policy} *)

type policy = Sandboxed | Dlopen_trusted

let policy_to_string = function Sandboxed -> "on" | Dlopen_trusted -> "dlopen-trusted"

let policy_of_string = function
  | "on" -> Some Sandboxed
  | "dlopen-trusted" -> Some Dlopen_trusted
  | _ -> None

(* {1 Resource limits} *)

type limits = {
  wall_ms : float option;
  cpu_s : int option;
  mem_bytes : int option;
  fsize_bytes : int option;
}

let no_limits = { wall_ms = None; cpu_s = None; mem_bytes = None; fsize_bytes = None }

let default_limits =
  {
    wall_ms = Some 30_000.;
    cpu_s = Some 60;
    mem_bytes = Some (2 * 1024 * 1024 * 1024);
    fsize_bytes = Some (256 * 1024 * 1024);
  }

(* {1 Outcome} *)

type failure =
  | Timeout of { wall_ms : float; escalated : bool }
  | Crashed of { signal : string }
  | Limit of { what : string; signal : string }
  | Nonzero_exit of { code : int }
  | Spawn_failed of { reason : string }
  | Protocol of { reason : string }

type run = {
  status : (unit, failure) result;
  wall_ms : float;
  stderr_tail : string;
}

let signal_name s =
  let names =
    [
      (Sys.sigsegv, "SIGSEGV"); (Sys.sigbus, "SIGBUS"); (Sys.sigfpe, "SIGFPE");
      (Sys.sigill, "SIGILL"); (Sys.sigabrt, "SIGABRT"); (Sys.sigterm, "SIGTERM");
      (Sys.sigkill, "SIGKILL"); (Sys.sigint, "SIGINT"); (Sys.sigpipe, "SIGPIPE");
      (Sys.sigquit, "SIGQUIT"); (Sys.sigxcpu, "SIGXCPU"); (Sys.sigxfsz, "SIGXFSZ");
      (Sys.sigtrap, "SIGTRAP"); (Sys.sighup, "SIGHUP"); (Sys.sigusr1, "SIGUSR1");
      (Sys.sigusr2, "SIGUSR2");
    ]
  in
  match List.assoc_opt s names with
  | Some n -> n
  | None -> Printf.sprintf "signal %d" s

(* Bound every captured stderr tail before it is embedded in a KF09xx
   diagnostic: diagnostics travel over the 16 MiB-capped wire protocol,
   and a misbehaving child can write arbitrarily much. *)
let stderr_tail_limit = 4096

let read_tail path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        let n = in_channel_length ic in
        let keep = min n stderr_tail_limit in
        seek_in ic (n - keep);
        let s = really_input_string ic keep in
        if keep < n then "[... truncated ...]\n" ^ s else s)

(* {1 Chaos misbehaviour (exec.* fault points)} *)

type misbehave = No_fault | Fault_crash | Fault_hang | Fault_oom

(* Drawn in the parent: the Faults registry holds a mutex, and the
   misbehaviour itself runs inside the runner. *)
let draw_fault () =
  if Faults.fires "exec.crash" then Fault_crash
  else if Faults.fires "exec.hang" then Fault_hang
  else if Faults.fires "exec.oom" then Fault_oom
  else No_fault

let misbehave_code = function
  | No_fault -> 0
  | Fault_crash -> 1
  | Fault_hang -> 2
  | Fault_oom -> 3

(* {1 Spawn} *)

(* The whole fork/dup2/setrlimit/exec sequence lives in a C stub
   ([kfuse_spawn] in kfuse_exec_stubs.c): OCaml 5 forbids [Unix.fork]
   once other domains exist — and both kfused's fusion pool and the
   test runner create domains — while a C-side fork whose child runs
   only async-signal-safe libc calls and never re-enters the OCaml
   runtime is fine.  Limits are [RLIMIT_CPU (s); RLIMIT_AS;
   RLIMIT_FSIZE], -1 for unlimited; the extra fds land on 3, 4, ... in
   the child, which inherits no other fd above 2, and which gets SIGTERM
   when the spawning thread dies if the last argument says so.  Returns
   the child pid; raises [Failure] when the fork itself fails. *)
external raw_spawn :
  string array ->
  Unix.file_descr * Unix.file_descr * Unix.file_descr ->
  int array ->
  Unix.file_descr array ->
  bool ->
  int = "kfuse_spawn"

(* SIGTERM→SIGKILL escalation delay of the watchdogs. *)
let term_grace_ms = 500.

(* {1 Classification} *)

let classify ~limits ~misbehave ~watchdog_fired ~escalated ~wall status =
  match status with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED 127 ->
    Error (Spawn_failed { reason = "could not execute the artifact (exit 127)" })
  | Unix.WEXITED code -> Error (Nonzero_exit { code })
  | Unix.WSTOPPED s ->
    (* waitpid without WUNTRACED never reports stops; keep the match
       total anyway. *)
    Error (Crashed { signal = signal_name s })
  | Unix.WSIGNALED s ->
    if watchdog_fired && (s = Sys.sigterm || s = Sys.sigkill) then
      Error (Timeout { wall_ms = wall; escalated })
    else if s = Sys.sigxcpu || (s = Sys.sigkill && limits.cpu_s <> None) then
      (* SIGXCPU at the soft limit; the kernel sends SIGKILL at the hard
         one if the child ignored the first warning. *)
      Error (Limit { what = "CPU time (RLIMIT_CPU)"; signal = signal_name s })
    else if s = Sys.sigxfsz then
      Error (Limit { what = "output file size (RLIMIT_FSIZE)"; signal = signal_name s })
    else if s = Sys.sigabrt && (limits.mem_bytes <> None || misbehave = Fault_oom) then
      (* Generated code routes every allocation through kf_malloc, which
         abort()s on failure — under RLIMIT_AS that is the canonical
         out-of-memory signature.  The stderr tail disambiguates the
         rare genuine assert. *)
      Error
        (Limit
           { what = "address space (RLIMIT_AS): allocation failed"; signal = signal_name s })
    else Error (Crashed { signal = signal_name s })

(* {1 Supervised children} *)

(* Every child — a compiler run, a shard server, a runner — is a
   [Child]: the C-stub spawn, then non-blocking liveness polls,
   best-effort signals and a bounded terminate-then-escalate teardown,
   with its lifetime split across as many callers and ticks as need
   it. *)
module Child = struct
  type t = {
    pid : int;
    mutable reaped : Unix.process_status option;
    (* waitpid races: the monitor thread and the drain path may both
       poll; the first reap latches the status for everyone else. *)
    lock : Mutex.t;
  }

  let pid t = t.pid

  let open_sink ~append = function
    | None -> None
    | Some path ->
      let flags =
        Unix.O_WRONLY :: Unix.O_CREAT :: Unix.O_CLOEXEC
        :: (if append then [ Unix.O_APPEND ] else [ Unix.O_TRUNC ])
      in
      Some (Unix.openfile path flags 0o600)

  (* [stderr_fd] (kept by the caller) overrides [stderr_path]; [extra]
     land on fds 3, 4, ... of the child.  Only [Runner] needs either, and
     only its children may outlive the spawning thread, so only they
     are spawned without [die_with_parent]. *)
  let spawn_fds ~die_with_parent ?(limits = no_limits) ?stdout_path ?stderr_path ?stderr_fd
      ?(extra = [||]) ?(append = true) ~argv () =
    match argv with
    | [] -> Error "empty argv"
    | _ -> (
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
      let close_all fds = List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds in
      match
        let stdout_fd = open_sink ~append stdout_path in
        let stderr_sink =
          (* stderr may share stdout's sink: one shard log per shard. *)
          if stderr_fd <> None then None
          else if stderr_path = stdout_path then stdout_fd
          else open_sink ~append stderr_path
        in
        (stdout_fd, stderr_sink)
      with
      | exception Unix.Unix_error (e, _, p) ->
        close_all [ devnull ];
        Error (Printf.sprintf "cannot open %s: %s" p (Unix.error_message e))
      | stdout_fd, stderr_sink ->
        let out = Option.value ~default:devnull stdout_fd in
        let err =
          match stderr_fd with Some fd -> fd | None -> Option.value ~default:out stderr_sink
        in
        let owned =
          devnull
          :: (Option.to_list stdout_fd
             @ if stderr_sink <> None && stderr_sink <> stdout_fd then Option.to_list stderr_sink
               else [])
        in
        let lim = function None -> -1 | Some v -> v in
        let lims = [| lim limits.cpu_s; lim limits.mem_bytes; lim limits.fsize_bytes |] in
        let r =
          match raw_spawn (Array.of_list argv) (devnull, out, err) lims extra die_with_parent with
          | pid -> Ok { pid; reaped = None; lock = Mutex.create () }
          | exception Failure reason -> Error reason
        in
        close_all owned;
        r)

  let spawn ?limits ?stdout_path ?stderr_path ?append ~argv () =
    spawn_fds ~die_with_parent:true ?limits ?stdout_path ?stderr_path ?append ~argv ()

  (* Non-blocking reap: [None] while the child is still running, the
     latched exit status once it is gone.  Never raises — an ECHILD
     (someone else reaped it) degrades to a synthetic 0 exit. *)
  let poll t =
    Mutex.protect t.lock (fun () ->
        match t.reaped with
        | Some _ as s -> s
        | None -> (
          match Unix.waitpid [ Unix.WNOHANG ] t.pid with
          | 0, _ -> None
          | _, st ->
            t.reaped <- Some st;
            Some st
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
            let st = Unix.WEXITED 0 in
            t.reaped <- Some st;
            Some st))

  (* The latched status, without reaping: while it is [None] the pid
     still names this child (a zombie keeps its pid). *)
  let latched t = Mutex.protect t.lock (fun () -> t.reaped)

  let running t = poll t = None

  let signal t s = if poll t = None then try Unix.kill t.pid s with Unix.Unix_error _ -> ()

  let kill t = signal t Sys.sigkill

  (* Blocking reap, latched like [poll]. *)
  let wait t =
    match poll t with
    | Some st -> st
    | None ->
      let rec go () =
        match Unix.waitpid [] t.pid with
        | _, st -> st
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
      in
      let st = go () in
      Mutex.protect t.lock (fun () ->
          match t.reaped with
          | Some s -> s
          | None ->
            t.reaped <- Some st;
            st)

  (* The status once the child exits within [ms], else [None]. *)
  let await t ~ms =
    let until = Unix.gettimeofday () +. (ms /. 1000.) in
    let rec go () =
      match poll t with
      | Some _ as st -> st
      | None when Unix.gettimeofday () >= until -> None
      | None ->
        Unix.sleepf 0.001;
        go ()
    in
    go ()

  let kill_and_wait t =
    kill t;
    wait t

  (* SIGTERM, SIGKILL past [grace_ms], reap: the status and whether
     SIGKILL was needed. *)
  let stop t ~grace_ms =
    signal t Sys.sigterm;
    match await t ~ms:grace_ms with
    | Some st -> (st, false)
    | None -> (kill_and_wait t, true)

  (* A long-lived child (a kfused shard) gets this long to drain its own
     in-flight work on SIGTERM. *)
  let terminate_grace_ms = 2_000.

  let terminate t = fst (stop t ~grace_ms:terminate_grace_ms)
end

(* {1 Supervised run} *)

(* The watchdog's cap: the tighter of the request deadline and the
   configured wall limit. *)
let wall_cap ~deadline (limits : limits) = Deadline.cap deadline limits.wall_ms

let run ?(deadline = Deadline.none) ?(limits = no_limits) ?stdout_path ?stderr_path ~argv () =
  match wall_cap ~deadline limits with
  | Some w when w <= 0. ->
    (* The deadline is already gone: don't even spawn. *)
    { status = Error (Timeout { wall_ms = 0.; escalated = false }); wall_ms = 0.; stderr_tail = "" }
  | wall_ms ->
    let own_stderr = stderr_path = None in
    let err_path =
      match stderr_path with Some p -> p | None -> Filename.temp_file "kfuse-sup" ".err"
    in
    Fun.protect
      ~finally:(fun () -> if own_stderr then try Sys.remove err_path with Sys_error _ -> ())
      (fun () ->
        match Child.spawn ~limits ?stdout_path ~stderr_path:err_path ~append:false ~argv () with
        | Error reason ->
          { status = Error (Spawn_failed { reason }); wall_ms = 0.; stderr_tail = "" }
        | Ok c ->
          let t0 = Unix.gettimeofday () in
          let status, watchdog_fired, escalated =
            match Option.map (fun ms -> Child.await c ~ms) wall_ms with
            | None -> (Child.wait c, false, false)
            | Some (Some st) -> (st, false, false)
            | Some None ->
              let st, escalated = Child.stop c ~grace_ms:term_grace_ms in
              (st, true, escalated)
          in
          let wall = (Unix.gettimeofday () -. t0) *. 1000. in
          let status =
            classify ~limits ~misbehave:No_fault ~watchdog_fired ~escalated ~wall status
          in
          { status; wall_ms = wall; stderr_tail = read_tail err_path })

let failure_diag ~what r =
  match r.status with
  | Ok () -> None
  | Error f ->
    let tail = if r.stderr_tail = "" then "" else "\n" ^ r.stderr_tail in
    Some
      (match f with
      | Timeout { wall_ms; escalated } ->
        Diag.errorf Diag.Exec_timeout
          "%s exceeded its %.0f ms wall-clock deadline and was killed (SIGTERM%s)%s" what
          wall_ms
          (if escalated then ", escalated to SIGKILL" else "")
          tail
      | Crashed { signal } -> Diag.errorf Diag.Exec_crashed "%s crashed with %s%s" what signal tail
      | Limit { what = lim; signal } ->
        Diag.errorf Diag.Exec_limit "%s exceeded a resource limit: %s (%s)%s" what lim signal
          tail
      | Nonzero_exit { code } -> Diag.errorf Diag.Exec_failed "%s exited with %d%s" what code tail
      | Spawn_failed { reason } | Protocol { reason } ->
        Diag.errorf Diag.Exec_failed "%s: %s%s" what reason tail)

(* {1 Persistent runners} *)

external memfd : string -> int -> Unix.file_descr = "kfuse_memfd"
external wait_readable : Unix.file_descr -> int -> bool = "kfuse_wait_readable"
external set_cpu_soft : int -> int -> unit = "kfuse_set_cpu_soft"

(* Clock ticks per second of /proc/<pid>/stat times: USER_HZ, 100 on
   every Linux architecture this runs on. *)
let ticks_per_s = 100.

(* utime + stime of [pid], in ms; 0 once the process is gone. *)
let proc_cpu_ms pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s -> (
    match String.rindex_opt s ')' with
    | None -> 0.
    | Some i ->
      let fields = String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) in
      (* fields.(0) is the state, field 3 of stat(5); utime is field 14. *)
      let f n = try float_of_string (List.nth fields n) with _ -> 0. in
      (f 11 +. f 12) *. 1000. /. ticks_per_s)

(* [run] spawns per execution; a runner is a [Child] spawned once that
   serves requests over a pipe until the parent closes it.  It shares a
   sealed, pre-allocated memfd arena with the parent, which only
   pwrite/preads it.  Each exchange has its own watchdog (a poll on the
   reply pipe with the request's deadline), its own RLIMIT_CPU budget
   and its own stderr; any failure is classified like a [run] child's
   and the runner is killed. *)
module Runner = struct
  type t = {
    child : Child.t;
    limits : limits;
    arena : Unix.file_descr;
    arena_bytes : int;
    requests : Unix.file_descr;  (* parent's write end; EOF stops the runner *)
    replies : Unix.file_descr;  (* parent's read end *)
    stderr : Unix.file_descr;  (* memfd holding the runner's stderr *)
    mutable served : int;
    mutable closed : bool;
  }

  let request_cap = 256

  let pid t = Child.pid t.child
  let arena t = t.arena
  let arena_bytes t = t.arena_bytes
  let served t = t.served
  let alive t = Child.running t.child
  let cpu_ms t = if Child.latched t.child = None then proc_cpu_ms (pid t) else 0.

  let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

  let spawn ~limits ~arena_bytes ~argv =
    (* Writing to the pipe of a runner that just died must be an EPIPE,
       not a fatal SIGPIPE. *)
    Kfuse_util.Sigpipe.ignore ();
    let opened = ref [] in
    let own fd =
      opened := fd :: !opened;
      fd
    in
    let fail what e =
      List.iter close_noerr !opened;
      Error (what ^ ": " ^ e)
    in
    match own (memfd "kf-arena" arena_bytes) with
    | exception Failure e -> fail "cannot allocate the runner arena" e
    | arena -> (
      match
        let stderr = own (memfd "kf-stderr" 0) in
        let req_r, req_w = Unix.pipe ~cloexec:true () in
        let rep_r, rep_w = Unix.pipe ~cloexec:true () in
        List.iter (fun fd -> ignore (own fd)) [ req_r; req_w; rep_r; rep_w ];
        (stderr, req_r, req_w, rep_r, rep_w)
      with
      | exception Failure e -> fail "cannot set up the runner" e
      | exception Unix.Unix_error (e, fn, _) ->
        fail "cannot set up the runner" (fn ^ ": " ^ Unix.error_message e)
      | stderr, req_r, req_w, rep_r, rep_w -> (
        (* RLIMIT_CPU at spawn is the runner's lifetime backstop: a full
           [cpu_s] for every request it may serve.  Each exchange lowers
           the soft limit to one request's worth. *)
        let spawn_limits =
          { limits with cpu_s = Option.map (fun c -> c * (request_cap + 1)) limits.cpu_s }
        in
        let r =
          Child.spawn_fds ~die_with_parent:false ~limits:spawn_limits ~stderr_fd:stderr
            ~extra:[| arena; req_r; rep_w |] ~argv ()
        in
        List.iter close_noerr [ req_r; rep_w ];
        match r with
        | Error e ->
          List.iter close_noerr [ arena; stderr; req_w; rep_r ];
          Error e
        | Ok child ->
          Ok
            {
              child;
              limits;
              arena;
              arena_bytes;
              requests = req_w;
              replies = rep_r;
              stderr;
              served = 0;
              closed = false;
            }))

  (* Read only once the runner is reaped: the memfd's file offset is
     shared with the runner's fd 2. *)
  let stderr_tail t =
    match (Unix.fstat t.stderr).Unix.st_size with
    | exception Unix.Unix_error _ -> ""
    | n -> (
      let keep = min n stderr_tail_limit in
      let b = Bytes.create keep in
      match
        ignore (Unix.lseek t.stderr (n - keep) Unix.SEEK_SET);
        Unix.read t.stderr b 0 keep
      with
      | exception Unix.Unix_error _ -> ""
      | got ->
        let s = Bytes.sub_string b 0 got in
        if keep < n then "[... truncated ...]\n" ^ s else s)

  (* Between requests, while the runner waits on its request pipe: a
     failure's tail is then that request's stderr alone, and clean
     requests never add up to RLIMIT_FSIZE.  The file offset is shared,
     so this rewinds the runner's fd 2 too. *)
  let reset_stderr t =
    try
      Unix.ftruncate t.stderr 0;
      ignore (Unix.lseek t.stderr 0 Unix.SEEK_SET)
    with Unix.Unix_error _ -> ()

  (* Close the parent's ends once, the request pipe first: EOF on it
     makes an idle runner exit. *)
  let release t =
    if not t.closed then begin
      t.closed <- true;
      List.iter close_noerr [ t.requests; t.arena; t.replies; t.stderr ]
    end

  let close t =
    release t;
    match Child.await t.child ~ms:1000. with Some st -> st | None -> Child.kill_and_wait t.child

  let kill t =
    ignore (Child.kill_and_wait t.child);
    release t

  (* One request's CPU budget: the runner's CPU so far, rounded up to
     whole seconds, plus [cpu_s].  Clean requests therefore never add
     up to a kill; a runaway one gets SIGXCPU after [cpu_s]. *)
  let arm_cpu t =
    match t.limits.cpu_s with
    | None -> ()
    | Some c ->
      let used_s = int_of_float (Float.ceil (proc_cpu_ms (pid t) /. 1000.)) in
      set_cpu_soft (pid t) (used_s + c)

  let exchange t ~wall_ms ~misbehave ~request ~reply =
    let t0 = Unix.gettimeofday () in
    let elapsed () = (Unix.gettimeofday () -. t0) *. 1000. in
    let reply_len = Bytes.length reply in
    let finish ?(watchdog_fired = false) ?(escalated = false) st =
      let wall = elapsed () in
      let status = classify ~limits:t.limits ~misbehave ~watchdog_fired ~escalated ~wall st in
      { status; wall_ms = wall; stderr_tail = stderr_tail t }
    in
    (* The reply pipe hit EOF (or the request pipe EPIPE): the runner is
       exiting.  One that closed its end but keeps running is killed. *)
    let died got =
      match Child.await t.child ~ms:term_grace_ms with
      | None ->
        ignore (Child.kill_and_wait t.child);
        {
          status = Error (Protocol { reason = "closed its reply pipe without exiting" });
          wall_ms = elapsed ();
          stderr_tail = stderr_tail t;
        }
      | Some st -> (
        match finish st with
        | { status = Ok (); _ } as r ->
          let reason =
            Printf.sprintf "exited 0 mid-request after %d of %d reply bytes" got reply_len
          in
          { r with status = Error (Protocol { reason }) }
        | r -> r)
    in
    let timed_out () =
      let st, escalated = Child.stop t.child ~grace_ms:term_grace_ms in
      finish ~watchdog_fired:true ~escalated st
    in
    let kill_at = Option.map (fun w -> t0 +. (w /. 1000.)) wall_ms in
    let rec read got =
      if got = reply_len then { status = Ok (); wall_ms = elapsed (); stderr_tail = "" }
      else
        let timeout_ms =
          match kill_at with
          | None -> -1
          | Some k -> max 0 (int_of_float (Float.ceil ((k -. Unix.gettimeofday ()) *. 1000.)))
        in
        if wait_readable t.replies timeout_ms then
          match Unix.read t.replies reply got (reply_len - got) with
          | 0 -> died got
          | k -> read (got + k)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> read got
        else
          match kill_at with
          | Some k when Unix.gettimeofday () >= k -> timed_out ()
          | _ -> read got
    in
    arm_cpu t;
    if t.served > 0 then reset_stderr t;
    t.served <- t.served + 1;
    match Unix.write t.requests request 0 (Bytes.length request) with
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> died 0
    | _ -> read 0
end

(* {1 Crash forensics} *)

let crash_tmp_seq = Atomic.make 0

(* The artifact mirrors the fuzz-corpus file format ('#' header comments
   the DSL lexer skips, then the unparsed pipeline), so `kfusec fuzz
   --corpus <dir>` can replay and shrink a production crash.  Reusing
   Fuzz.Corpus directly would invert the dependency arrow (kfuse_fuzz
   depends on kfuse_exec), so the few header lines are written here. *)
let save_crash_artifact ~dir ?seed ~toolchain ~diag (p : Pipeline.t) =
  match Kfuse_dsl.Unparse.pipeline p with
  | Error reason -> Error reason
  | Ok text ->
    let rec mkdirs d =
      if not (Sys.file_exists d) then begin
        mkdirs (Filename.dirname d);
        try Sys.mkdir d 0o755 with Sys_error _ -> ()
      end
    in
    mkdirs dir;
    let name = Printf.sprintf "%s.pipe" (String.sub (Fingerprint.structural p) 0 16) in
    let path = Filename.concat dir name in
    if Sys.file_exists path then Ok path
    else begin
      let one_line s = String.map (fun c -> if c = '\n' then ' ' else c) s in
      let clip n s = if String.length s <= n then s else String.sub s 0 n ^ " [...]" in
      let detail =
        clip 600 (one_line (Diag.to_string diag)) ^ " | toolchain: " ^ one_line toolchain
      in
      (* A temp name of its own per writer: workers of one daemon, and
         the shards of a fleet, share one crash directory and may save
         the same artifact at once.  Each rename is atomic, so the file
         is one whole artifact whichever lands last. *)
      let tmp =
        Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
          (Atomic.fetch_and_add crash_tmp_seq 1)
      in
      match
        let oc = open_out tmp in
        Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
            output_string oc "# kfuse-fuzz corpus entry\n";
            (match seed with
            | Some s -> output_string oc (Printf.sprintf "# seed: %d\n" s)
            | None -> ());
            output_string oc "# oracle: exec-supervisor\n";
            output_string oc (Printf.sprintf "# detail: %s\n" detail);
            output_string oc text);
        Sys.rename tmp path
      with
      | () -> Ok path
      | exception Sys_error e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        Error e
    end

(* {1 Per-fingerprint circuit breaker} *)

module Breaker = struct
  type state = Closed | Open of { mutable since : float; diag : Diag.t }

  type entry = { mutable fails : int; mutable state : state }

  type t = {
    threshold : int;
    cooldown_ms : float;
    mutex : Mutex.t;
    entries : (string, entry) Hashtbl.t;
    mutable open_count : int;
  }

  type verdict = Allow | Probe | Quarantined of Diag.t

  let default_threshold = 3

  let create ?(threshold = default_threshold) ?(cooldown_ms = 60_000.) () =
    if threshold < 1 then invalid_arg "Breaker.create: threshold must be positive";
    {
      threshold;
      cooldown_ms;
      mutex = Mutex.create ();
      entries = Hashtbl.create 16;
      open_count = 0;
    }

  let threshold t = t.threshold

  let with_lock t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let entry t key =
    match Hashtbl.find_opt t.entries key with
    | Some e -> e
    | None ->
      let e = { fails = 0; state = Closed } in
      Hashtbl.replace t.entries key e;
      e

  let check t key =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.entries key with
        | None | Some { state = Closed; _ } -> Allow
        | Some { state = Open o; _ } ->
          let now = Unix.gettimeofday () in
          if t.cooldown_ms > 0. && (now -. o.since) *. 1000. >= t.cooldown_ms then begin
            (* Half-open: let one request probe; refresh [since] so
               concurrent requests keep getting the quarantine verdict
               instead of stampeding the broken plan. *)
            o.since <- now;
            Probe
          end
          else Quarantined o.diag)

  let record_failure t key diag =
    with_lock t (fun () ->
        let e = entry t key in
        e.fails <- e.fails + 1;
        match e.state with
        | Open o ->
          (* A failed half-open probe re-arms the cooldown. *)
          o.since <- Unix.gettimeofday ();
          false
        | Closed ->
          if e.fails >= t.threshold then begin
            e.state <- Open { since = Unix.gettimeofday (); diag };
            t.open_count <- t.open_count + 1;
            true
          end
          else false)

  let record_success t key =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.entries key with
        | None -> false
        | Some e ->
          e.fails <- 0;
          let was_open = match e.state with Open _ -> true | Closed -> false in
          e.state <- Closed;
          if was_open then t.open_count <- t.open_count - 1;
          was_open)

  let quarantined t = with_lock t (fun () -> t.open_count)

  let reset t key =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.entries key with
        | None -> ()
        | Some e ->
          (match e.state with Open _ -> t.open_count <- t.open_count - 1 | Closed -> ());
          Hashtbl.remove t.entries key)

  let reset_all t =
    with_lock t (fun () ->
        Hashtbl.reset t.entries;
        t.open_count <- 0)
end
