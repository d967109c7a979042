module Diag = Kfuse_util.Diag
module Child = Kfuse_exec.Supervisor.Child

(* ---- fleet layout ---- *)

let socket_path ~dir i = Filename.concat dir (Printf.sprintf "shard-%d.sock" i)
let log_path ~dir i = Filename.concat dir (Printf.sprintf "shard-%d.log" i)

(* A crashed fleet leaves one stale socket file per shard.  Claim every
   slot the new fleet will use, plus any [shard-<j>.sock] leftover from
   a previously larger fleet: [Listener.claim_socket] unlinks stale files
   and refuses live listeners, so two fleets can never fight over a
   directory. *)
let sweep_sockets ~dir ~count =
  let claim i = Listener.claim_socket (socket_path ~dir i) in
  let rec go i = if i >= count then Ok () else Result.bind (claim i) (fun () -> go (i + 1)) in
  Result.bind (go 0) (fun () ->
      match Sys.readdir dir with
      | exception Sys_error _ -> Ok ()
      | entries ->
        Array.fold_left
          (fun acc name ->
            Result.bind acc (fun () ->
                match Scanf.sscanf_opt name "shard-%d.sock%!" Fun.id with
                | Some j when j >= count -> claim j
                | _ -> Ok ()))
          (Ok ()) entries)

(* ---- supervision policy ---- *)

type config = {
  storm_threshold : int;
  storm_window_ms : float;
  restart_backoff_ms : float;
  max_restart_backoff_ms : float;
  dead_cooldown_ms : float;
  max_ping_misses : int;
}

let default_config =
  {
    storm_threshold = 5;
    storm_window_ms = 2_000.;
    restart_backoff_ms = 100.;
    max_restart_backoff_ms = 5_000.;
    dead_cooldown_ms = 10_000.;
    max_ping_misses = 4;
  }

(* ---- one shard slot ---- *)

type state =
  | Starting  (** spawned, not yet answering pings *)
  | Up
  | Backoff of { until : float }  (** crashed; respawn at [until] *)
  | Dead of { since : float }  (** restart storm tripped the breaker *)

type t = {
  index : int;
  socket : string;
  log : string;
  argv : string list;
  mutable child : Child.t option;
  mutable state : state;
  mutable spawns : int;
  mutable spawned_at : float;
  mutable consecutive_failures : int;
  mutable ping_misses : int;
  mutable last_exit : string option;
}

type event = Respawned | Exited of string | Killed_hung | Marked_dead

let create ~index ~socket ~log ~argv =
  {
    index;
    socket;
    log;
    argv;
    child = None;
    state = Backoff { until = 0. };  (* the first tick spawns *)
    spawns = 0;
    spawned_at = 0.;
    consecutive_failures = 0;
    ping_misses = 0;
    last_exit = None;
  }

let index t = t.index
let socket t = t.socket
let state t = t.state
let restarts t = max 0 (t.spawns - 1)
let consecutive_failures t = t.consecutive_failures
let last_exit t = t.last_exit
let pid t = Option.map Child.pid t.child

let state_string t =
  match t.state with
  | Starting -> "starting"
  | Up -> "up"
  | Backoff _ -> "backoff"
  | Dead _ -> "dead"

(* A shard is routable while its process is believed alive: [Up] for
   sure, [Starting] optimistically — the forwarder treats a refused
   connect as "try the next shard", so routing to a not-yet-bound shard
   costs one failed connect, not a client-visible error. *)
let routable t = match t.state with Starting | Up -> true | Backoff _ | Dead _ -> false

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by %s" (Kfuse_exec.Supervisor.signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (Kfuse_exec.Supervisor.signal_name s)

(* Exponential respawn backoff: base * 2^(streak-1), capped. *)
let backoff_delay_s cfg t =
  let step =
    cfg.restart_backoff_ms *. (2. ** float_of_int (max 0 (t.consecutive_failures - 1)))
  in
  Float.min step cfg.max_restart_backoff_ms /. 1000.

let record_failure cfg t ~now ~what =
  t.last_exit <- Some what;
  t.consecutive_failures <- t.consecutive_failures + 1;
  if t.consecutive_failures >= cfg.storm_threshold then begin
    t.state <- Dead { since = now };
    true
  end
  else begin
    t.state <- Backoff { until = now +. backoff_delay_s cfg t };
    false
  end

let spawn_now cfg t ~now =
  match
    Child.spawn ~stdout_path:t.log ~stderr_path:t.log ~append:true ~argv:t.argv ()
  with
  | Ok c ->
    t.child <- Some c;
    t.spawns <- t.spawns + 1;
    t.spawned_at <- now;
    t.ping_misses <- 0;
    t.state <- Starting;
    let events = if t.spawns > 1 then [ Respawned ] else [] in
    Ok events
  | Error reason ->
    (* A failed spawn counts like an instant crash: back off (or trip
       the storm breaker) instead of hammering fork in a tight loop. *)
    let dead = record_failure cfg t ~now ~what:("spawn failed: " ^ reason) in
    Error (if dead then [ Marked_dead ] else [])

(* One supervision step.  Pure bookkeeping plus at most one spawn and a
   bounded [ping]; called from the router's monitor thread (which owns
   all mutation — routing threads only read). *)
let tick cfg t ~now ?ping () =
  let events = ref [] in
  let emit e = events := e :: !events in
  (* 1. Observe a death. *)
  (match t.child with
  | None -> ()
  | Some c -> (
    match Child.poll c with
    | None -> ()
    | Some status ->
      let what = status_string status in
      t.child <- None;
      emit (Exited what);
      (* Only a {e rapid} failure feeds the storm counter: surviving
         past the window proves the binary basically works, so the
         streak restarts at 1. *)
      if (now -. t.spawned_at) *. 1000. >= cfg.storm_window_ms then
        t.consecutive_failures <- 0;
      if record_failure cfg t ~now ~what then emit Marked_dead));
  (* 2. Respawn decisions. *)
  (match (t.child, t.state) with
  | None, Backoff { until } when now >= until -> (
    match spawn_now cfg t ~now with
    | Ok evs | Error evs -> List.iter emit evs)
  | None, Dead { since }
    when cfg.dead_cooldown_ms > 0. && (now -. since) *. 1000. >= cfg.dead_cooldown_ms -> (
    (* Half-open probe: one respawn.  [consecutive_failures] stays at
       the threshold, so a single rapid failure re-marks it dead for a
       whole new cooldown; only surviving past the storm window resets
       the streak. *)
    match spawn_now cfg t ~now with
    | Ok evs | Error evs -> List.iter emit evs)
  | _ -> ());
  (* 3. Health check. *)
  (match (t.child, ping) with
  | Some c, Some ping when Child.running c -> (
    match t.state with
    | Starting | Up ->
      if ping t.socket then begin
        t.ping_misses <- 0;
        t.state <- Up
      end
      else begin
        t.ping_misses <- t.ping_misses + 1;
        if t.ping_misses >= cfg.max_ping_misses then begin
          (* Alive as a process, dead as a server: kill it and let the
             next tick's poll apply the normal crash/backoff path. *)
          Child.kill c;
          emit Killed_hung
        end
      end
    | Backoff _ | Dead _ -> ())
  | _ -> ());
  List.rev !events

let stop ?(grace_ms = 2_000.) t =
  (match t.child with
  | Some c ->
    ignore (Child.terminate ~grace_ms c);
    t.child <- None
  | None -> ());
  t.state <- Dead { since = Unix.gettimeofday () }
