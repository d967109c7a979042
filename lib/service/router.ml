module Diag = Kfuse_util.Diag
module Deadline = Kfuse_util.Deadline
module Fingerprint = Kfuse_cache.Fingerprint

(* Single-flight bookkeeping: concurrent identical fuse requests (same
   plan key) become one upstream computation.  Waiters hold the entry
   directly, so the leader can drop it from the table before
   broadcasting — a request arriving after that starts a fresh flight,
   which is exactly right: the cold computation it would have shared is
   already in the shard's plan cache. *)
type sf_entry = { mutable sf_reply : Jsonx.t option }

(* Everything a request handler and the fleet monitor need; the
   connection front end lives in {!Listener}. *)
type fleet = {
  socket_path : string;
  shards : Shard.t array;
  shard_cfg : Shard.config;
  health_interval_ms : float;
  health_timeout_ms : float;
  metrics : Metrics.t;
  started_at : float;
  sf_lock : Mutex.t;
  sf_cond : Condition.t;
  sf_inflight : (string, sf_entry) Hashtbl.t;
  (* The router's one cache: request bytes to plan key (and placement
     digest).  Plans themselves live in the shards. *)
  key_memo : Key_memo.t;
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

(* One forward to shard [idx], bounded by what remains of the request's
   deadline: a failover walk across the fleet cannot outlast the
   client's deadline.  An expired deadline still gets a 1ms attempt,
   since a timeout of 0 would disarm the socket timeouts instead.
   [None] is a connection transient (the restart signature: refused or
   reset connect, vanished peer without a typed verdict); any typed
   shard reply, ok or error, is the shard's own verdict. *)
let forward_to t ~deadline idx req =
  let timeout_ms = Option.map (Float.max 1.0) (Deadline.remaining_ms deadline) in
  match Client.call_once ~socket:(Shard.socket t.shards.(idx)) ?timeout_ms req with
  | Error _, true -> None
  | verdict, _ ->
    Metrics.incr t.metrics "requests_routed";
    Some verdict

(* Forward to the home shard, failing over to the next routable one on
   a connection transient.  A typed reply ends the scan and is relayed,
   after [rewrite] when ok. *)
let forward_routed t ~deadline ?(rewrite = fun ~shard:_ reply -> reply) ~structural req =
  let n = Array.length t.shards in
  let home = home_index t structural in
  let rec go i =
    if i >= n then unavailable t ~home
    else
      let idx = (home + i) mod n in
      if not (Shard.routable t.shards.(idx)) then go (i + 1)
      else
        match forward_to t ~deadline idx req with
        | None -> go (i + 1)
        | Some (Error d) -> Protocol.error d
        | Some (Ok reply) ->
          let reply = rewrite ~shard:idx reply in
          if idx <> home then begin
            Metrics.incr t.metrics "requests_rerouted";
            annotate_reroute ~home ~served:idx reply
          end
          else reply
  in
  go 0

(* ---- single flight ---- *)

let single_flight t key compute =
  (* The leader drops the entry before it broadcasts: followers hold it,
     and a request arriving after that starts a flight of its own. *)
  let publish e r =
    Mutex.protect t.sf_lock (fun () ->
        e.sf_reply <- Some r;
        Hashtbl.remove t.sf_inflight key;
        Condition.broadcast t.sf_cond)
  in
  Mutex.lock t.sf_lock;
  match Hashtbl.find_opt t.sf_inflight key with
  | Some e ->
    (* Follower: block until the leader publishes, then share its
       reply verbatim — N identical cold requests, one computation. *)
    while e.sf_reply = None do
      Condition.wait t.sf_cond t.sf_lock
    done;
    Mutex.unlock t.sf_lock;
    Metrics.incr t.metrics "requests_coalesced";
    Option.get e.sf_reply
  | None -> (
    let e = { sf_reply = None } in
    Hashtbl.replace t.sf_inflight key e;
    Mutex.unlock t.sf_lock;
    match compute () with
    | r ->
      publish e r;
      r
    | exception exn ->
      (* Never leave followers parked on a dead flight. *)
      publish e (Protocol.error (Diag.of_exn exn));
      raise exn)

(* ---- per-op handling ---- *)

(* A request's plan key, memoized on its bytes.  The router loads
   without the extent override, as it always has: placement reads the
   pipeline's [shape] and stays what it was. *)
let plan_key t f = Result.map fst (Key_memo.key t.key_memo f)

let handle_fuse t ~deadline req (f : Protocol.fuse_request) =
  match plan_key t f with
  | Error d -> Protocol.error d
  | Ok key ->
    let structural = key.Fingerprint.shape in
    if f.Protocol.no_cache then forward_routed t ~deadline ~structural req
    else begin
      (* The coalescing key is the full plan key (structural + exact +
         config + strategy + flags) plus the knobs the cache key
         deliberately excludes but which shape {e this} reply: strict
         mode and the search budget. *)
      let sf_key =
        Printf.sprintf "%s/%s/%b/%s" key.Fingerprint.structural key.Fingerprint.exact
          f.Protocol.strict
          (match f.Protocol.budget_ms with
          | None -> "-"
          | Some b -> string_of_float b)
      in
      single_flight t sf_key (fun () -> forward_routed t ~deadline ~structural req)
    end

let handle_by_fingerprint t ~deadline ?rewrite req (f : Protocol.fuse_request) =
  match plan_key t f with
  | Error d -> Protocol.error d
  | Ok key -> forward_routed t ~deadline ?rewrite ~structural:key.Fingerprint.shape req

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

let handle_stream_op ?(kind = "stream") t ~deadline ~id ~rebuild =
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
    else
      match forward_to t ~deadline idx (rebuild orig) with
      | Some (Ok reply) -> rewrite_reply_id ~shard:idx reply
      | Some (Error d) -> Protocol.error d
      | None ->
        (* The shard died mid-request, taking the session's state with
           it: no retry can resurrect it. *)
        Protocol.error
          (Diag.errorf Diag.Shard_unavailable
             "%s %S: lost the connection to shard %d (it crashed or is restarting); reopen the %s"
             kind id idx kind)

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
      ("key_memo", Key_memo.stats_json (Key_memo.stats t.key_memo));
    ]

(* The router's ops.  {!Listener} decodes each frame, turns an exception
   raised here into an error reply, and answers [ping] and [shutdown]
   itself: those two never reach this handler. *)
let dispatch t ~deadline req =
  let session_op ?kind id rebuild = handle_stream_op ?kind t ~deadline ~id ~rebuild in
  match req with
  | Protocol.Stats -> stats_json t
  | Protocol.Metrics ->
    let text =
      Metrics.render t.metrics ~key_memo:(Key_memo.stats t.key_memo)
        ~uptime_s:(Unix.gettimeofday () -. t.started_at)
    in
    Protocol.ok [ ("text", Jsonx.Str text) ]
  | Protocol.Fuse f -> handle_fuse t ~deadline req f
  | Protocol.Fuse_exec e -> handle_by_fingerprint t ~deadline req e.Protocol.fuse
  | Protocol.Stream_open o ->
    handle_by_fingerprint t ~deadline ~rewrite:rewrite_reply_id req o.Protocol.fuse
  | Protocol.Stream_push s ->
    session_op s.Protocol.id (fun orig -> Protocol.Stream_push { s with Protocol.id = orig })
  | Protocol.Stream_close id -> session_op id (fun orig -> Protocol.Stream_close orig)
  | Protocol.Lazy_open o ->
    forward_routed t ~deadline ~rewrite:rewrite_reply_id ~structural:(lazy_affinity o) req
  | Protocol.Lazy_edit e ->
    session_op ~kind:"lazy session" e.Protocol.id (fun orig ->
        Protocol.Lazy_edit { e with Protocol.id = orig })
  | Protocol.Lazy_flush f ->
    session_op ~kind:"lazy session" f.Protocol.id (fun orig ->
        Protocol.Lazy_flush { f with Protocol.id = orig })
  | Protocol.Lazy_close id ->
    session_op ~kind:"lazy session" id (fun orig -> Protocol.Lazy_close orig)
  | _ -> assert false

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

let monitor_loop t listener =
  let stopping () = Listener.stopping listener in
  (* A full protocol round trip, not a socket-file stat: a crashed shard
     leaves its socket file behind, and a wedged one still accepts. *)
  let ping socket =
    Result.is_ok
      (Client.with_connection ~socket ~timeout_ms:t.health_timeout_ms Client.ping)
  in
  while not (stopping ()) do
    let now = Unix.gettimeofday () in
    Array.iter
      (fun s -> fold_events t (Shard.tick t.shard_cfg s ~now ~ping ()))
      t.shards;
    refresh_gauges t;
    (* Sleep in small slices so shutdown stays responsive even with a
       long health interval. *)
    let until = now +. (t.health_interval_ms /. 1000.) in
    while (not (stopping ())) && Unix.gettimeofday () < until do
      Thread.delay 0.01
    done
  done

(* ---- lifecycle ---- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error ((Unix.EEXIST | Unix.EPERM), _, _) -> ()
  end

type t = { fleet : fleet; listener : Listener.t; monitor_thread : Thread.t }

let socket t = Listener.socket t.listener
let metrics t = t.fleet.metrics
let shards t = t.fleet.shards
let in_flight t = Listener.in_flight t.listener
let signal_stop t = Listener.signal_stop t.listener

let default_health_interval_ms = 250.

let start ~socket:path ~dir ~count ~shard_argv ?(shard_config = Shard.default_config)
    ?(health_interval_ms = default_health_interval_ms) ?(health_timeout_ms = 1_000.)
    ?max_conns ?queue ?request_timeout_ms ?drain_timeout_ms () =
  if count < 1 then
    Error (Diag.errorf Diag.Config_invalid "shards must be >= 1 (got %d)" count)
  else begin
    mkdir_p dir;
    match
      Result.bind (Listener.claim_socket path) (fun () -> Shard.sweep_sockets ~dir ~count)
    with
    | Error _ as e -> e
    | Ok () -> (
      let metrics = Metrics.create () in
      List.iter (Metrics.touch metrics)
        [
          "requests_routed"; "requests_rerouted"; "requests_coalesced";
          "requests_unroutable"; "shard_restarts"; "shard_exits"; "shard_hung_kills";
          "shard_deaths";
        ];
      Metrics.adjust_gauge metrics "shards_up" 0;
      Metrics.adjust_gauge metrics "shards_dead" 0;
      let shards =
        Array.init count (fun i ->
            Shard.create ~index:i ~socket:(Shard.socket_path ~dir i)
              ~log:(Shard.log_path ~dir i)
              ~argv:(shard_argv ~index:i ~socket:(Shard.socket_path ~dir i)))
      in
      let fleet =
        {
          socket_path = path;
          shards;
          shard_cfg = shard_config;
          health_interval_ms;
          health_timeout_ms;
          metrics;
          started_at = Unix.gettimeofday ();
          sf_lock = Mutex.create ();
          sf_cond = Condition.create ();
          sf_inflight = Hashtbl.create 16;
          key_memo = Key_memo.create ();
        }
      in
      match
        Listener.start ~socket:path ~metrics ?max_conns ?queue ?request_timeout_ms
          ?drain_timeout_ms (dispatch fleet)
      with
      | Error _ as e -> e
      | Ok listener ->
        (* First spawns, before the monitor exists: no pings yet, so a
           shard is [Starting] until the first monitor tick hears it. *)
        let now = Unix.gettimeofday () in
        Array.iter (fun s -> fold_events fleet (Shard.tick shard_config s ~now ())) shards;
        let monitor_thread = Thread.create (monitor_loop fleet) listener in
        Ok { fleet; listener; monitor_thread })
  end

let await_ready ?(timeout_ms = 10_000.) t =
  let deadline = Unix.gettimeofday () +. (timeout_ms /. 1000.) in
  let all_up () =
    Array.for_all
      (fun s -> match Shard.state s with Shard.Up -> true | _ -> false)
      t.fleet.shards
  in
  let rec go () =
    if all_up () then true
    else if Unix.gettimeofday () >= deadline || Listener.stopping t.listener then all_up ()
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let wait t =
  (* Drain router workers first: in-flight requests finish against
     still-running shards, so the drain order is router edge → router
     workers → shard fleet. *)
  Listener.wait t.listener;
  (* The monitor must stop before the fleet is terminated, or it would
     dutifully respawn every shard we kill. *)
  Thread.join t.monitor_thread;
  (* Graceful fleet drain, in parallel: SIGTERM (each shard drains its
     own in-flight work), escalate to SIGKILL past the grace period. *)
  let stoppers = Array.map (fun s -> Thread.create Shard.stop s) t.fleet.shards in
  Array.iter Thread.join stoppers;
  (* A SIGKILLed shard leaves its socket file behind; sweep so the next
     fleet starts clean even after a forced drain. *)
  Array.iter
    (fun s -> try Unix.unlink (Shard.socket s) with Unix.Unix_error _ -> ())
    t.fleet.shards

let stop t =
  Listener.initiate_stop t.listener;
  wait t
