module Diag = Kfuse_util.Diag
module Deadline = Kfuse_util.Deadline
module Faults = Kfuse_util.Faults
module Plan_cache = Kfuse_cache.Plan_cache
module Fingerprint = Kfuse_cache.Fingerprint
module Ir = Kfuse_ir

(* Single-flight bookkeeping: concurrent identical fuse requests (same
   plan key) become one upstream computation.  Waiters hold the entry
   directly, so the leader can drop it from the table before
   broadcasting — a request arriving after that starts a fresh flight,
   which is exactly right: the cold computation it would have shared is
   already in the shard's plan cache. *)
type sf_entry = { mutable sf_reply : Jsonx.t option }

type t = {
  socket_path : string;
  listen_fd : Unix.file_descr;
  shards : Shard.t array;
  shard_cfg : Shard.config;
  health_interval_ms : float;
  health_timeout_ms : float;
  forward_timeout_ms : float;
  request_timeout_ms : float;
  drain_timeout_ms : float;
  shard_grace_ms : float;
  metrics : Metrics.t;
  started_at : float;
  stopping : bool Atomic.t;
  stop_requested : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable monitor_thread : Thread.t option;
  mutable workers : Thread.t array;
  max_conns : int;
  queue_bound : int;
  (* Admission, mirroring {!Server}: accepted connections wait in
     [queue] until one of [max_conns] workers picks them up; beyond
     [queue_bound] they are shed with KF0803. *)
  q_lock : Mutex.t;
  q_cond : Condition.t;
  queue : Unix.file_descr Queue.t;
  mutable busy : int;
  active : Unix.file_descr option array;
  sf_lock : Mutex.t;
  sf_cond : Condition.t;
  sf_inflight : (string, sf_entry) Hashtbl.t;
}

let socket t = t.socket_path
let metrics t = t.metrics
let shards t = t.shards

let in_flight t =
  Mutex.lock t.q_lock;
  let n = t.busy + Queue.length t.queue in
  Mutex.unlock t.q_lock;
  n

(* The router holds no plan cache of its own — plans live in the
   shards.  [Metrics.render] wants cache stats; give it honest zeros. *)
let no_cache_stats =
  {
    Plan_cache.hits = 0;
    misses = 0;
    iso_misses = 0;
    evictions = 0;
    entries = 0;
    capacity = 0;
    disk_hits = 0;
    disk_misses = 0;
    disk_errors = 0;
    stores = 0;
  }

(* ---- keyspace ---- *)

(* Home shard of a pipeline: the leading 32 bits of the rename-invariant
   structural fingerprint, mod the fleet size.  Using the structural
   hash (the same string that names the disk-cache slot) means renamed
   copies of one pipeline land on one shard — maximal L1 plan-cache
   locality per shard, while the shared disk tier backstops reroutes. *)
let home_index t structural =
  let n = Array.length t.shards in
  let h =
    match
      if String.length structural >= 8 then
        int_of_string_opt ("0x" ^ String.sub structural 0 8)
      else None
    with
    | Some v -> v
    | None -> Hashtbl.hash structural
  in
  abs h mod n

(* ---- forwarding ---- *)

let is_ok resp = match Jsonx.mem_str "status" resp with Some "ok" -> true | _ -> false

(* Append a KF0807 degraded-locality warning to a rerouted reply: the
   answer is correct (shards are stateless replicas over a shared disk
   cache), but it was computed away from its home shard. *)
let annotate_reroute ~home ~served reply =
  match reply with
  | Jsonx.Obj fields when is_ok reply ->
    let w =
      Diag.warningf Diag.Shard_degraded
        "served by shard %d: home shard %d is down or restarting (cache locality degraded)"
        served home
    in
    Jsonx.Obj
      (fields
      @ [
          ( "router",
            Jsonx.Obj
              [
                ("rerouted", Jsonx.Bool true);
                ("shard", Jsonx.Num (float_of_int served));
                ("home", Jsonx.Num (float_of_int home));
                ("warning", Jsonx.Str (Diag.to_string w));
              ] );
        ])
  | v -> v

let unavailable t ~home =
  Metrics.incr t.metrics "requests_unroutable";
  Protocol.error
    (Diag.errorf Diag.Shard_unavailable
       "no live shard for this request (home shard %d): all %d shards are down or restarting; retry with backoff"
       home (Array.length t.shards))

(* Forward to the home shard, failing over to the next routable one on
   a connection transient (the restart signature: refused/reset connect,
   vanished peer without a typed verdict).  A typed shard reply — ok or
   error — ends the scan: it is the shard's own verdict and is relayed. *)
let forward_routed t ~structural req =
  let n = Array.length t.shards in
  let home = home_index t structural in
  let rec go i =
    if i >= n then unavailable t ~home
    else
      let idx = (home + i) mod n in
      if not (Shard.routable t.shards.(idx)) then go (i + 1)
      else
        let socket = Shard.socket t.shards.(idx) in
        match Client.call_once ~socket ~timeout_ms:t.forward_timeout_ms req with
        | Ok reply, _ ->
          Metrics.incr t.metrics "requests_routed";
          if idx <> home then begin
            Metrics.incr t.metrics "requests_rerouted";
            annotate_reroute ~home ~served:idx reply
          end
          else reply
        | Error _, true -> go (i + 1)
        | Error d, false ->
          Metrics.incr t.metrics "requests_routed";
          Protocol.error d
  in
  go 0

(* ---- single flight ---- *)

let single_flight t key compute =
  Mutex.lock t.sf_lock;
  match Hashtbl.find_opt t.sf_inflight key with
  | Some e ->
    (* Follower: block until the leader publishes, then share its
       reply verbatim — N identical cold requests, one computation. *)
    let rec wait () =
      match e.sf_reply with
      | Some r -> r
      | None ->
        Condition.wait t.sf_cond t.sf_lock;
        wait ()
    in
    let r = wait () in
    Mutex.unlock t.sf_lock;
    Metrics.incr t.metrics "requests_coalesced";
    r
  | None ->
    let e = { sf_reply = None } in
    Hashtbl.replace t.sf_inflight key e;
    Mutex.unlock t.sf_lock;
    let r =
      match compute () with
      | r -> r
      | exception exn ->
        (* Never leave followers parked on a dead flight. *)
        Mutex.lock t.sf_lock;
        e.sf_reply <- Some (Protocol.error (Diag.of_exn exn));
        Hashtbl.remove t.sf_inflight key;
        Condition.broadcast t.sf_cond;
        Mutex.unlock t.sf_lock;
        raise exn
    in
    Mutex.lock t.sf_lock;
    e.sf_reply <- Some r;
    Hashtbl.remove t.sf_inflight key;
    Condition.broadcast t.sf_cond;
    Mutex.unlock t.sf_lock;
    r

(* ---- per-op handling ---- *)

let pipeline_of (f : Protocol.fuse_request) =
  Result.bind (Server.load_pipeline f) Ir.Validate.result

let handle_fuse t req (f : Protocol.fuse_request) =
  match pipeline_of f with
  | Error d -> Protocol.error d
  | Ok p ->
    let structural = Fingerprint.structural p in
    if f.Protocol.no_cache then forward_routed t ~structural req
    else begin
      (* The coalescing key is the full plan key (structural + exact +
         config + strategy + flags) plus the knobs the cache key
         deliberately excludes but which shape {e this} reply: strict
         mode and the search budget. *)
      let config =
        Server.request_config ~c_mshared:f.Protocol.c_mshared ~gamma:f.Protocol.gamma
          ~tg:f.Protocol.tg
      in
      let key =
        Fingerprint.plan_key ~config ~strategy:f.Protocol.strategy
          ~optimize:f.Protocol.optimize ~inline:f.Protocol.inline p
      in
      let sf_key =
        Printf.sprintf "%s/%s/%b/%s" key.Fingerprint.structural key.Fingerprint.exact
          f.Protocol.strict
          (match f.Protocol.budget_ms with
          | None -> "-"
          | Some b -> string_of_float b)
      in
      single_flight t sf_key (fun () -> forward_routed t ~structural req)
    end

let handle_by_fingerprint t req (f : Protocol.fuse_request) =
  match pipeline_of f with
  | Error d -> Protocol.error d
  | Ok p -> forward_routed t ~structural:(Fingerprint.structural p) req

(* Stream ids cross the router prefixed with their shard: the server's
   ["st-3"] becomes ["s1-st-3"].  Pushes and closes are pinned — a
   stream's temporal state lives in exactly one shard process, so there
   is no failover: if that shard is gone, so is the session. *)
let prefix_stream_id ~shard id = Printf.sprintf "s%d-%s" shard id

let parse_stream_id t id =
  match String.index_opt id '-' with
  | Some j when j > 1 && id.[0] = 's' -> (
    match int_of_string_opt (String.sub id 1 (j - 1)) with
    | Some i when i >= 0 && i < Array.length t.shards ->
      Some (i, String.sub id (j + 1) (String.length id - j - 1))
    | _ -> None)
  | _ -> None

let rewrite_reply_id ~shard reply =
  match reply with
  | Jsonx.Obj fields ->
    Jsonx.Obj
      (List.map
         (function
           | "id", Jsonx.Str id -> ("id", Jsonx.Str (prefix_stream_id ~shard id))
           | kv -> kv)
         fields)
  | v -> v

let handle_stream_open t req (o : Protocol.stream_open_request) =
  match pipeline_of o.Protocol.fuse with
  | Error d -> Protocol.error d
  | Ok p ->
    let structural = Fingerprint.structural p in
    let n = Array.length t.shards in
    let home = home_index t structural in
    let rec go i =
      if i >= n then unavailable t ~home
      else
        let idx = (home + i) mod n in
        if not (Shard.routable t.shards.(idx)) then go (i + 1)
        else
          let socket = Shard.socket t.shards.(idx) in
          match Client.call_once ~socket ~timeout_ms:t.forward_timeout_ms req with
          | Ok reply, _ ->
            Metrics.incr t.metrics "requests_routed";
            let reply = rewrite_reply_id ~shard:idx reply in
            if idx <> home then begin
              Metrics.incr t.metrics "requests_rerouted";
              annotate_reroute ~home ~served:idx reply
            end
            else reply
          | Error _, true -> go (i + 1)
          | Error d, false ->
            Metrics.incr t.metrics "requests_routed";
            Protocol.error d
    in
    go 0

let handle_stream_op ?(kind = "stream") t ~id ~rebuild =
  match parse_stream_id t id with
  | None ->
    Protocol.error
      (Diag.errorf Diag.Stream_unknown "unknown %s id %S (not issued by this router)" kind
         id)
  | Some (idx, orig) ->
    let s = t.shards.(idx) in
    if not (Shard.routable s) then
      Protocol.error
        (Diag.errorf Diag.Shard_unavailable
           "%s %S lives on shard %d, which is down or restarting; reopen the %s" kind id
           idx kind)
    else (
      match
        Client.call_once ~socket:(Shard.socket s) ~timeout_ms:t.forward_timeout_ms
          (rebuild orig)
      with
      | Ok reply, _ ->
        Metrics.incr t.metrics "requests_routed";
        rewrite_reply_id ~shard:idx reply
      | Error _, true ->
        (* The shard died mid-request, taking the session's state with
           it: no retry can resurrect it. *)
        Protocol.error
          (Diag.errorf Diag.Shard_unavailable
             "%s %S: lost the connection to shard %d (it crashed or is restarting); reopen the %s"
             kind id idx kind)
      | Error d, false ->
        Metrics.incr t.metrics "requests_routed";
        Protocol.error d)

(* A lazy session, like a stream, lives in exactly one shard process —
   but an empty builder has no pipeline to fingerprint, so placement
   uses a cheap request-shaped affinity key (the shard re-validates the
   seed anyway). *)
let lazy_affinity (o : Protocol.lazy_open_request) =
  match (o.Protocol.app, o.Protocol.source) with
  | Some a, _ -> "lazy-app:" ^ a
  | None, Some s -> "lazy-src:" ^ Digest.to_hex (Digest.string s)
  | None, None ->
    Printf.sprintf "lazy-new:%dx%dx%d:%s"
      (Option.value ~default:0 o.Protocol.width)
      (Option.value ~default:0 o.Protocol.height)
      (Option.value ~default:1 o.Protocol.channels)
      (String.concat "," o.Protocol.inputs)

let shard_json i s =
  Jsonx.Obj
    [
      ("index", Jsonx.Num (float_of_int i));
      ("socket", Jsonx.Str (Shard.socket s));
      ("state", Jsonx.Str (Shard.state_string s));
      ("pid", match Shard.pid s with Some p -> Jsonx.Num (float_of_int p) | None -> Jsonx.Null);
      ("restarts", Jsonx.Num (float_of_int (Shard.restarts s)));
      ( "consecutive_failures",
        Jsonx.Num (float_of_int (Shard.consecutive_failures s)) );
      ( "last_exit",
        match Shard.last_exit s with Some e -> Jsonx.Str e | None -> Jsonx.Null );
    ]

let stats_json t =
  let c name = Jsonx.Num (float_of_int (Metrics.counter t.metrics name)) in
  Protocol.ok
    [
      ("role", Jsonx.Str "router");
      ("socket", Jsonx.Str t.socket_path);
      ("uptime_s", Jsonx.Num (Unix.gettimeofday () -. t.started_at));
      ("shards", Jsonx.Arr (Array.to_list (Array.mapi shard_json t.shards)));
      ("requests_routed", c "requests_routed");
      ("requests_rerouted", c "requests_rerouted");
      ("requests_coalesced", c "requests_coalesced");
      ("requests_unroutable", c "requests_unroutable");
      ("shard_restarts", c "shard_restarts");
    ]

(* [dispatch] never raises: a failing handler becomes an error response,
   keeping the connection and the router alive. *)
let dispatch t v =
  match Protocol.request_of_json v with
  | Error d -> ("invalid", Protocol.error d, false)
  | Ok req -> (
    let op = Protocol.op_name req in
    let guarded f =
      match f () with
      | resp -> (op, resp, false)
      | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
      | exception exn -> (op, Protocol.error (Diag.of_exn exn), false)
    in
    match req with
    | Protocol.Ping -> (op, Protocol.ok [ ("pong", Jsonx.Bool true) ], false)
    | Protocol.Shutdown -> (op, Protocol.ok [ ("stopping", Jsonx.Bool true) ], true)
    | Protocol.Stats -> (op, stats_json t, false)
    | Protocol.Metrics ->
      let text =
        Metrics.render t.metrics ~cache:no_cache_stats
          ~uptime_s:(Unix.gettimeofday () -. t.started_at)
      in
      (op, Protocol.ok [ ("text", Jsonx.Str text) ], false)
    | Protocol.Fuse f -> guarded (fun () -> handle_fuse t req f)
    | Protocol.Fuse_exec e -> guarded (fun () -> handle_by_fingerprint t req e.Protocol.fuse)
    | Protocol.Stream_open o -> guarded (fun () -> handle_stream_open t req o)
    | Protocol.Stream_push s ->
      guarded (fun () ->
          handle_stream_op t ~id:s.Protocol.id ~rebuild:(fun orig ->
              Protocol.Stream_push { s with Protocol.id = orig }))
    | Protocol.Stream_close id ->
      guarded (fun () ->
          handle_stream_op t ~id ~rebuild:(fun orig -> Protocol.Stream_close orig))
    | Protocol.Lazy_open o ->
      guarded (fun () -> forward_routed t ~structural:(lazy_affinity o) req)
    | Protocol.Lazy_edit e ->
      guarded (fun () ->
          handle_stream_op ~kind:"lazy session" t ~id:e.Protocol.id ~rebuild:(fun orig ->
              Protocol.Lazy_edit { e with Protocol.id = orig }))
    | Protocol.Lazy_flush f ->
      guarded (fun () ->
          handle_stream_op ~kind:"lazy session" t ~id:f.Protocol.id ~rebuild:(fun orig ->
              Protocol.Lazy_flush { f with Protocol.id = orig }))
    | Protocol.Lazy_close id ->
      guarded (fun () ->
          handle_stream_op ~kind:"lazy session" t ~id ~rebuild:(fun orig ->
              Protocol.Lazy_close orig)))

(* ---- connection handling (mirrors Server) ---- *)

let initiate_stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Mutex.lock t.q_lock;
    Condition.broadcast t.q_cond;
    Mutex.unlock t.q_lock;
    (* Poke the accept loop: closing a listener from another thread does
       not interrupt a blocked accept(2) on Linux. *)
    match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
      (try Unix.connect fd (Unix.ADDR_UNIX t.socket_path) with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  end

let signal_stop t = Atomic.set t.stop_requested true

let request_deadline t =
  if t.request_timeout_ms > 0.0 then Deadline.after_ms t.request_timeout_ms
  else Deadline.none

let send_reply t fd ~deadline resp =
  match Faults.hit "proto.drop_reply" with
  | exception Faults.Fault _ -> false
  | () -> (
    (match Faults.hit "proto.slow_write" with
    | () -> ()
    | exception Faults.Fault _ -> Thread.delay 0.05);
    match Faults.hit "proto.torn_frame" with
    | exception Faults.Fault _ ->
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
      | exception Diag.Fatal d -> (
        match Protocol.send ~deadline fd (Protocol.error d) with
        | () -> true
        | exception _ -> false)
      | exception _ -> false))

let handle_conn t fd =
  let rec loop () =
    match Protocol.recv fd with
    | Ok None -> ()
    | Error d when d.Diag.code = Diag.Request_timeout ->
      Metrics.incr t.metrics "requests_timed_out";
      (try Protocol.send fd (Protocol.error d) with _ -> ())
    | Error d ->
      Metrics.incr t.metrics "protocol_errors";
      (try Protocol.send fd (Protocol.error d) with _ -> ())
    | Ok (Some v) ->
      let deadline = request_deadline t in
      let t0 = Unix.gettimeofday () in
      let op, resp, stop = dispatch t v in
      Metrics.observe t.metrics ~op ~ok:(is_ok resp) ((Unix.gettimeofday () -. t0) *. 1000.);
      let keep = send_reply t fd ~deadline resp in
      if stop then initiate_stop t
      else if keep && not (Atomic.get t.stopping) then loop ()
  in
  loop ()

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
      "router overloaded (%d connections in flight, %d queued of %d): retry with backoff"
      busy queued t.queue_bound
  in
  (try Protocol.send fd (Protocol.error d) with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let admit t fd =
  let forced =
    match Faults.hit "service.shed" with
    | () -> false
    | exception Faults.Fault _ -> true
  in
  Mutex.lock t.q_lock;
  let busy = t.busy and queued = Queue.length t.queue in
  if (not forced) && (busy < t.max_conns || queued < t.queue_bound) then begin
    Queue.push fd t.queue;
    Condition.signal t.q_cond;
    Mutex.unlock t.q_lock
  end
  else begin
    Mutex.unlock t.q_lock;
    shed t fd ~busy ~queued
  end

let rec worker_loop t slot =
  Mutex.lock t.q_lock;
  while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
    Condition.wait t.q_cond t.q_lock
  done;
  match Queue.take_opt t.queue with
  | None -> Mutex.unlock t.q_lock
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
    (try Unix.close fd with Unix.Unix_error _ -> ());
    worker_loop t slot

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stopping then ()
    else begin
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ when Atomic.get t.stopping -> (
        try Unix.close fd with Unix.Unix_error _ -> ())
      | fd, _ -> (
        match Faults.hit "service.accept" with
        | () ->
          Metrics.incr t.metrics "connections_accepted";
          set_conn_timeouts t fd;
          admit t fd;
          loop ()
        | exception Faults.Fault _ ->
          Metrics.incr t.metrics "connections_dropped";
          (try Unix.close fd with Unix.Unix_error _ -> ());
          loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ when Atomic.get t.stopping -> ()
    end
  in
  loop ();
  try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

(* ---- fleet monitor ---- *)

let set_gauge t name target =
  Metrics.adjust_gauge t.metrics name (target - Metrics.gauge t.metrics name)

let fold_events t events =
  List.iter
    (function
      | Shard.Respawned -> Metrics.incr t.metrics "shard_restarts"
      | Shard.Exited _ -> Metrics.incr t.metrics "shard_exits"
      | Shard.Killed_hung -> Metrics.incr t.metrics "shard_hung_kills"
      | Shard.Marked_dead -> Metrics.incr t.metrics "shard_deaths")
    events

let refresh_gauges t =
  let up = ref 0 and dead = ref 0 in
  Array.iter
    (fun s ->
      match Shard.state s with
      | Shard.Up -> incr up
      | Shard.Dead _ -> incr dead
      | Shard.Starting | Shard.Backoff _ -> ())
    t.shards;
  set_gauge t "shards_up" !up;
  set_gauge t "shards_dead" !dead

let monitor_loop t =
  let ping socket = Health.alive ~socket ~timeout_ms:t.health_timeout_ms in
  while not (Atomic.get t.stopping) do
    let now = Unix.gettimeofday () in
    Array.iter
      (fun s -> fold_events t (Shard.tick t.shard_cfg s ~now ~ping ()))
      t.shards;
    refresh_gauges t;
    (* Sleep in small slices so shutdown stays responsive even with a
       long health interval. *)
    let until = now +. (t.health_interval_ms /. 1000.) in
    while (not (Atomic.get t.stopping)) && Unix.gettimeofday () < until do
      Thread.delay 0.01
    done
  done

(* ---- lifecycle ---- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error ((Unix.EEXIST | Unix.EPERM), _, _) -> ()
  end

let start ~socket:path ~dir ~count ~shard_argv ?(shard_config = Shard.default_config)
    ?(health_interval_ms = 250.) ?(health_timeout_ms = 1_000.) ?forward_timeout_ms
    ?(max_conns = 16) ?(queue = 64) ?(request_timeout_ms = 30_000.)
    ?(drain_timeout_ms = 5_000.) ?(shard_grace_ms = 2_000.) () =
  if count < 1 then
    Error (Diag.errorf Diag.Config_invalid "shards must be >= 1 (got %d)" count)
  else if max_conns < 1 then
    Error (Diag.errorf Diag.Config_invalid "max_conns must be >= 1 (got %d)" max_conns)
  else if queue < 0 then
    Error (Diag.errorf Diag.Config_invalid "queue must be >= 0 (got %d)" queue)
  else begin
    mkdir_p dir;
    match
      Result.bind (Server.claim_socket path) (fun () -> Shard.sweep_sockets ~dir ~count)
    with
    | Error _ as e -> e
    | Ok () -> (
      match
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.bind fd (Unix.ADDR_UNIX path);
           Unix.listen fd 64
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        fd
      with
      | exception Unix.Unix_error (e, _, _) ->
        Error (Diag.errorf ~file:path Diag.Io_error "cannot listen: %s" (Unix.error_message e))
      | listen_fd ->
        let metrics = Metrics.create () in
        List.iter (Metrics.touch metrics)
          [
            "connections_accepted"; "connections_dropped"; "requests_shed";
            "requests_timed_out"; "protocol_errors"; "requests_routed";
            "requests_rerouted"; "requests_coalesced"; "requests_unroutable";
            "shard_restarts"; "shard_exits"; "shard_hung_kills"; "shard_deaths";
          ];
        Metrics.adjust_gauge metrics "connections_active" 0;
        Metrics.adjust_gauge metrics "shards_up" 0;
        Metrics.adjust_gauge metrics "shards_dead" 0;
        let shards =
          Array.init count (fun i ->
              Shard.create ~index:i ~socket:(Shard.socket_path ~dir i)
                ~log:(Shard.log_path ~dir i)
                ~argv:(shard_argv ~index:i ~socket:(Shard.socket_path ~dir i)))
        in
        let t =
          {
            socket_path = path;
            listen_fd;
            shards;
            shard_cfg = shard_config;
            health_interval_ms;
            health_timeout_ms;
            forward_timeout_ms =
              Option.value ~default:request_timeout_ms forward_timeout_ms;
            request_timeout_ms;
            drain_timeout_ms;
            shard_grace_ms;
            metrics;
            started_at = Unix.gettimeofday ();
            stopping = Atomic.make false;
            stop_requested = Atomic.make false;
            accept_thread = None;
            monitor_thread = None;
            workers = [||];
            max_conns;
            queue_bound = queue;
            q_lock = Mutex.create ();
            q_cond = Condition.create ();
            queue = Queue.create ();
            busy = 0;
            active = Array.make max_conns None;
            sf_lock = Mutex.create ();
            sf_cond = Condition.create ();
            sf_inflight = Hashtbl.create 16;
          }
        in
        (* First spawns, before the monitor exists: no pings yet, so a
           shard is [Starting] until the first monitor tick hears it. *)
        let now = Unix.gettimeofday () in
        Array.iter (fun s -> fold_events t (Shard.tick t.shard_cfg s ~now ())) t.shards;
        t.workers <- Array.init max_conns (fun slot -> Thread.create (worker_loop t) slot);
        t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
        t.monitor_thread <- Some (Thread.create (fun () -> monitor_loop t) ());
        Ok t)
  end

let await_ready ?(timeout_ms = 10_000.) t =
  let deadline = Unix.gettimeofday () +. (timeout_ms /. 1000.) in
  let all_up () =
    Array.for_all (fun s -> match Shard.state s with Shard.Up -> true | _ -> false) t.shards
  in
  let rec go () =
    if all_up () then true
    else if Unix.gettimeofday () >= deadline || Atomic.get t.stopping then all_up ()
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let wait t =
  while not (Atomic.get t.stopping || Atomic.get t.stop_requested) do
    Thread.delay 0.02
  done;
  initiate_stop t;
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (* Drain router workers first: in-flight requests finish against
     still-running shards, so the drain order is router edge → router
     workers → shard fleet. *)
  let deadline = Deadline.after_ms t.drain_timeout_ms in
  let forced = ref false in
  let rec drain () =
    Mutex.lock t.q_lock;
    let pending = t.busy + Queue.length t.queue in
    if pending > 0 && (not !forced) && Deadline.expired deadline then begin
      forced := true;
      Array.iter
        (function
          | Some fd -> (
            try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          | None -> ())
        t.active;
      Queue.iter
        (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        t.queue
    end;
    Mutex.unlock t.q_lock;
    if pending > 0 then begin
      Thread.delay 0.005;
      drain ()
    end
  in
  drain ();
  Array.iter Thread.join t.workers;
  (* The monitor must stop before the fleet is terminated, or it would
     dutifully respawn every shard we kill. *)
  (match t.monitor_thread with Some th -> Thread.join th | None -> ());
  (* Graceful fleet drain, in parallel: SIGTERM (each shard drains its
     own in-flight work), escalate to SIGKILL past the grace period. *)
  let stoppers =
    Array.map
      (fun s -> Thread.create (fun () -> Shard.stop ~grace_ms:t.shard_grace_ms s) ())
      t.shards
  in
  Array.iter Thread.join stoppers;
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ());
  (* A SIGKILLed shard leaves its socket file behind; sweep so the next
     fleet starts clean even after a forced drain. *)
  Array.iter
    (fun s -> try Unix.unlink (Shard.socket s) with Unix.Unix_error _ -> ())
    t.shards

let stop t =
  initiate_stop t;
  wait t
