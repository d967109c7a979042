module Diag = Kfuse_util.Diag
module Deadline = Kfuse_util.Deadline
module Faults = Kfuse_util.Faults

type handler = deadline:Deadline.t -> Protocol.request -> Jsonx.t

type t = {
  socket_path : string;
  listen_fd : Unix.file_descr;
  (* The device and inode of the socket file [bind] made: [wait] removes
     the path only while it still names this file. *)
  socket_id : int * int;
  metrics : Metrics.t;
  handler : handler;
  max_conns : int;
  queue_bound : int;
  request_timeout_ms : float;  (* <= 0. disables deadlines and socket timeouts *)
  drain_timeout_ms : float;
  stopping : bool Atomic.t;
  (* Set by [signal_stop] — possibly from a signal handler, so it must
     stay a bare atomic store: [wait]'s polling loop notices it and runs
     the real stop work (locks, broadcast, shutdown) in a normal
     thread context. *)
  stop_requested : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable workers : Thread.t array;
  (* Admission state, all under [q_lock]: accepted connections wait in
     [queue] until one of the [max_conns] workers picks them up.  [busy]
     counts workers serving a connection; [active.(i)] is the fd worker
     [i] is serving, so a forced drain can shut it down. *)
  q_lock : Mutex.t;
  q_cond : Condition.t;
  queue : Unix.file_descr Queue.t;
  mutable busy : int;
  active : Unix.file_descr option array;
}

let socket t = t.socket_path
let stopping t = Atomic.get t.stopping

let in_flight t =
  Mutex.lock t.q_lock;
  let n = t.busy + Queue.length t.queue in
  Mutex.unlock t.q_lock;
  n

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let initiate_stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Wake idle workers so they drain the queue and exit. *)
    Mutex.lock t.q_lock;
    Condition.broadcast t.q_cond;
    Mutex.unlock t.q_lock;
    (* Wake the accept loop: closing a listener from another thread does
       not interrupt a blocked accept(2), but shutdown(2) makes it fail
       at once, and every later one too, without going through the
       socket's path, which may be gone or another daemon's by now.  New
       connections are refused from here on.  [wait] closes the
       descriptor once the accept thread is joined. *)
    try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end

let signal_stop t = Atomic.set t.stop_requested true

let request_deadline t =
  if t.request_timeout_ms > 0.0 then Deadline.after_ms t.request_timeout_ms
  else Deadline.none

(* Decode, answer [ping] and [shutdown], and run the handler for every
   other op: the operation name (the metrics key), the reply, and
   whether to stop after sending it.  Never raises: a frame that does
   not decode, or a handler that fails, becomes an error reply. *)
let respond t ~deadline v =
  match Protocol.request_of_json v with
  | Error d -> ("invalid", Protocol.error d, false)
  | Ok req ->
    let resp =
      match req with
      | Protocol.Ping -> Protocol.ok [ ("pong", Jsonx.Bool true) ]
      | Protocol.Shutdown -> Protocol.ok [ ("stopping", Jsonx.Bool true) ]
      | req -> (
        match t.handler ~deadline req with
        | resp -> resp
        | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
        | exception exn -> Protocol.error (Diag.of_exn exn))
    in
    (Protocol.op_name req, resp, req = Protocol.Shutdown)

let is_ok resp = match Jsonx.mem_str "status" resp with Some "ok" -> true | _ -> false

(* The front end's share of a [stats] reply, the same for every caller. *)
let with_front_end_stats t resp =
  match resp with
  | Jsonx.Obj fields when is_ok resp ->
    let count name = Jsonx.Num (float_of_int (Metrics.counter t.metrics name)) in
    Jsonx.Obj
      (fields
      @ [
          ( "connections",
            Jsonx.Obj
              [
                ("accepted", count "connections_accepted");
                ("dropped", count "connections_dropped");
                ("accept_errors", count "accept_errors");
                ( "active",
                  Jsonx.Num (float_of_int (Metrics.gauge t.metrics "connections_active")) );
                ("shed", count "requests_shed");
                ("timed_out", count "requests_timed_out");
              ] );
          ( "limits",
            Jsonx.Obj
              [
                ("max_conns", Jsonx.Num (float_of_int t.max_conns));
                ("queue", Jsonx.Num (float_of_int t.queue_bound));
                ("request_timeout_ms", Jsonx.Num t.request_timeout_ms);
                ("drain_timeout_ms", Jsonx.Num t.drain_timeout_ms);
              ] );
        ])
  | resp -> resp

(* One reply, chaos points included.  Returns [true] when the connection
   is still good for another request; every failure mode frees the slot
   rather than wedging it. *)
let send_reply t fd ~deadline resp =
  match Faults.hit "proto.drop_reply" with
  | exception Faults.Fault _ ->
    (* Chaos: the reply vanishes and the connection drops; the client
       must time out or see a clean close. *)
    false
  | () -> (
    (match Faults.hit "proto.slow_write" with
    | () -> ()
    | exception Faults.Fault _ -> Thread.delay 0.05);
    match Faults.hit "proto.torn_frame" with
    | exception Faults.Fault _ ->
      (* Chaos: half a frame, then the connection drops; the client must
         surface a typed mid-frame error. *)
      (try Protocol.send_torn fd resp with _ -> ());
      false
    | () -> (
      match Protocol.send ~deadline fd resp with
      | () -> true
      | exception Deadline.Expired _ ->
        Metrics.incr t.metrics "requests_timed_out";
        false
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Metrics.incr t.metrics "requests_timed_out";
        false
      | exception Diag.Fatal d ->
        (* The response overran [max_frame]; nothing was written, so the
           slot is still good: answer with the typed error instead. *)
        (match Protocol.send ~deadline fd (Protocol.error d) with
        | () -> true
        | exception _ -> false)
      | exception _ -> false))

let handle_conn t fd =
  let rec loop () =
    match Protocol.recv fd with
    | Ok None -> ()
    | Error d when d.Diag.code = Diag.Request_timeout ->
      (* A slow-loris (or idle) peer ran out the receive timeout: free
         the slot with a typed reply if the pipe still works. *)
      Metrics.incr t.metrics "requests_timed_out";
      (try Protocol.send fd (Protocol.error d) with _ -> ())
    | Error d ->
      (* Framing is broken; answer if the pipe still works, then
         drop the connection. *)
      Metrics.incr t.metrics "protocol_errors";
      (try Protocol.send fd (Protocol.error d) with _ -> ())
    | Ok (Some v) ->
      let deadline = request_deadline t in
      let t0 = Unix.gettimeofday () in
      let op, resp, stop = respond t ~deadline v in
      let resp = if op = "stats" then with_front_end_stats t resp else resp in
      Metrics.observe t.metrics ~op ~ok:(is_ok resp) ((Unix.gettimeofday () -. t0) *. 1000.);
      let keep = send_reply t fd ~deadline resp in
      if stop then initiate_stop t
      else if keep && not (Atomic.get t.stopping) then loop ()
  in
  loop ()

(* ---- admission ---- *)

let set_conn_timeouts t fd =
  if t.request_timeout_ms > 0.0 then begin
    let s = t.request_timeout_ms /. 1000.0 in
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s with
    | Unix.Unix_error _ | Invalid_argument _ -> ());
    try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s with
    | Unix.Unix_error _ | Invalid_argument _ -> ()
  end

let shed t fd ~busy ~queued =
  Metrics.incr t.metrics "requests_shed";
  let d =
    Diag.errorf Diag.Overloaded
      "overloaded (%d connections in flight, %d queued of %d): retry with backoff" busy
      queued t.queue_bound
  in
  (* A one-frame reply fits the socket buffer; SO_SNDTIMEO bounds a
     pathological peer so the accept thread cannot be pinned. *)
  (try Protocol.send fd (Protocol.error d) with _ -> ());
  close_quietly fd

let admit t fd =
  let forced =
    match Faults.hit "service.shed" with
    | () -> false
    | exception Faults.Fault _ -> true
  in
  Mutex.lock t.q_lock;
  let busy = t.busy and queued = Queue.length t.queue in
  (* Read under [q_lock], as the workers read it, so nothing is queued
     after the last worker has left. *)
  let stopping = Atomic.get t.stopping in
  (* Every admitted connection is either served or queued, so the two
     bounds are one sum.  [queued] includes connections no worker has
     woken to take yet: a burst into an idle server fills the queue, not
     past it.  Shed beyond the sum, or when the ["service.shed"] chaos
     point fires. *)
  if (not stopping) && (not forced) && busy + queued < t.max_conns + t.queue_bound then begin
    Queue.push fd t.queue;
    Condition.signal t.q_cond;
    Mutex.unlock t.q_lock
  end
  else begin
    Mutex.unlock t.q_lock;
    (* A client that raced the stop is closed, not shed. *)
    if stopping then close_quietly fd else shed t fd ~busy ~queued
  end

let rec worker_loop t slot =
  Mutex.lock t.q_lock;
  while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
    Condition.wait t.q_cond t.q_lock
  done;
  match Queue.take_opt t.queue with
  | None ->
    (* Stopping with a drained queue. *)
    Mutex.unlock t.q_lock
  | Some fd ->
    t.busy <- t.busy + 1;
    t.active.(slot) <- Some fd;
    Mutex.unlock t.q_lock;
    Metrics.incr_gauge t.metrics "connections_active";
    (match handle_conn t fd with
    | () -> ()
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception _ -> ());
    Metrics.decr_gauge t.metrics "connections_active";
    Mutex.lock t.q_lock;
    t.busy <- t.busy - 1;
    t.active.(slot) <- None;
    Mutex.unlock t.q_lock;
    (* Close after clearing the slot, under which a forced drain may
       have issued a shutdown: the fd stays valid until this close. *)
    close_quietly fd;
    worker_loop t slot

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stopping) then
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ ->
        (match Faults.hit "service.accept" with
        | () ->
          Metrics.incr t.metrics "connections_accepted";
          set_conn_timeouts t fd;
          admit t fd
        | exception Faults.Fault _ ->
          (* Degrade: this connection is lost, the listener is not. *)
          Metrics.incr t.metrics "connections_dropped";
          close_quietly fd);
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ when Atomic.get t.stopping ->
        (* [initiate_stop]'s shutdown: EINVAL. *)
        ()
      | exception Unix.Unix_error _ ->
        (* EMFILE, ENFILE, ENOBUFS...: the pending connection stays in
           the backlog, and a worker closing its connection frees the
           descriptor a retry needs.  Back off instead of spinning. *)
        Metrics.incr t.metrics "accept_errors";
        Thread.delay 0.01;
        loop ()
  in
  loop ()

(* ---- lifecycle ---- *)

let claim_socket path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    (* A socket file exists: stale (no listener) or live (refuse). *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
      Unix.close probe;
      Error (Diag.errorf Diag.Service_error "another kfused is already serving on %s" path)
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      close_quietly probe;
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      close_quietly probe;
      Error (Diag.errorf ~file:path Diag.Io_error "cannot probe socket: %s" (Unix.error_message e)))
  | _ -> Error (Diag.errorf ~file:path Diag.Io_error "exists and is not a socket")

let default_max_conns = 16
let default_queue = 64
let default_request_timeout_ms = 30_000.
let default_drain_timeout_ms = 5_000.

let start ~socket:path ~metrics ?(max_conns = default_max_conns) ?(queue = default_queue)
    ?(request_timeout_ms = default_request_timeout_ms)
    ?(drain_timeout_ms = default_drain_timeout_ms) handler =
  if max_conns < 1 then
    Error (Diag.errorf Diag.Config_invalid "max_conns must be >= 1 (got %d)" max_conns)
  else if queue < 0 then
    Error (Diag.errorf Diag.Config_invalid "queue must be >= 0 (got %d)" queue)
  else
    match claim_socket path with
    | Error _ as e -> e
    | Ok () -> (
      match
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        try
          Unix.bind fd (Unix.ADDR_UNIX path);
          let st = Unix.lstat path in
          Unix.listen fd 64;
          (fd, (st.Unix.st_dev, st.Unix.st_ino))
        with e ->
          close_quietly fd;
          raise e
      with
      | exception Unix.Unix_error (e, _, _) ->
        Error (Diag.errorf ~file:path Diag.Io_error "cannot listen: %s" (Unix.error_message e))
      | listen_fd, socket_id ->
        List.iter (Metrics.touch metrics)
          [
            "connections_accepted"; "connections_dropped"; "accept_errors"; "requests_shed";
            "requests_timed_out"; "protocol_errors";
          ];
        Metrics.adjust_gauge metrics "connections_active" 0;
        let t =
          {
            socket_path = path;
            listen_fd;
            socket_id;
            metrics;
            handler;
            max_conns;
            queue_bound = queue;
            request_timeout_ms;
            drain_timeout_ms;
            stopping = Atomic.make false;
            stop_requested = Atomic.make false;
            accept_thread = None;
            workers = [||];
            q_lock = Mutex.create ();
            q_cond = Condition.create ();
            queue = Queue.create ();
            busy = 0;
            active = Array.make max_conns None;
          }
        in
        t.workers <- Array.init max_conns (fun slot -> Thread.create (worker_loop t) slot);
        t.accept_thread <- Some (Thread.create accept_loop t);
        Ok t)

let wait t =
  (* Poll instead of parking in [Thread.join] right away: every blocked
     thread of this listener sits in an uninterruptible C call (join,
     cond-wait, accept), so a process signal is only guaranteed to run
     its OCaml handler once some thread reaches a poll point — which
     this loop is.  The handler itself ([signal_stop]) just flips an
     atomic; the stop work that takes locks happens here, in a normal
     thread context. *)
  while not (Atomic.get t.stopping || Atomic.get t.stop_requested) do
    Thread.delay 0.02
  done;
  initiate_stop t;
  Option.iter Thread.join t.accept_thread;
  (* The listener is closed; workers finish in-flight requests and drain
     the admission queue.  Past the drain deadline, force the issue:
     shut down every connection still being served or queued, so the
     handlers' blocked reads and writes fail promptly and the workers
     can be joined.  Zero leaked handler threads, bounded shutdown. *)
  let deadline = Deadline.after_ms t.drain_timeout_ms in
  let shut fd = try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> () in
  let rec drain forced =
    Mutex.lock t.q_lock;
    let pending = t.busy + Queue.length t.queue in
    let force = pending > 0 && (not forced) && Deadline.expired deadline in
    if force then begin
      Array.iter (Option.iter shut) t.active;
      Queue.iter shut t.queue
    end;
    Mutex.unlock t.q_lock;
    if pending > 0 then begin
      Thread.delay 0.005;
      drain (forced || force)
    end
  in
  drain false;
  Array.iter Thread.join t.workers;
  (* Remove the socket file only if it is still the one [bind] made: once
     its path was removed, another daemon may have bound the same path.
     The descriptor, open until after this check, keeps the inode from
     being reused. *)
  (match Unix.lstat t.socket_path with
  | { Unix.st_dev; st_ino; _ } when (st_dev, st_ino) = t.socket_id -> (
    try Unix.unlink t.socket_path with Unix.Unix_error _ -> ())
  | _ | (exception Unix.Unix_error _) -> ());
  close_quietly t.listen_fd
