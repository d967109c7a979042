(** The [kfused] fleet front-end: one router process, [K] shard
    processes.

    Each shard is a full {!Server} on its own Unix socket
    ([<dir>/shard-<i>.sock]), sharing the content-addressed disk plan
    cache as a common L2.  The router speaks the same length-prefixed
    protocol as a single server — clients are unchanged — and maps each
    planning request to a {e home shard} by the leading bits of the
    pipeline's rename-invariant structural fingerprint, so repeated and
    renamed variants of one pipeline keep hitting one shard's warm
    in-memory plan cache.

    Robustness semantics:

    - {b Failover}: a connection-level failure against the home shard
      (refused, reset, vanished mid-request) walks to the next routable
      shard.  A rerouted reply is correct (shards are stateless over the
      shared disk cache) but annotated with a KF0807
      [Shard_degraded] warning under a ["router"] field.
    - {b Breaker}: the per-shard supervisor ({!Shard}) restarts crashed
      shards with exponential backoff; a restart storm marks the shard
      dead and its keyspace reroutes until a cooldown probe succeeds.
      When {e no} shard is routable the client gets a typed KF0808
      [Shard_unavailable] error — retryable, never a torn frame.
    - {b Single-flight}: concurrent identical cold-cache [fuse]
      requests (same plan key + strict/budget knobs) are coalesced into
      one upstream plan search; followers share the leader's reply
      byte-for-byte and count into [requests_coalesced].
    - {b Sessions}: stream and lazy-session ids are prefixed with their
      shard ([s<i>-<id>]) and pinned — session state lives in one
      process, so a dead shard means "reopen the session", not silent
      rebinding.
    - {b Front end}: connections, admission, deadlines and the first
      drain step are {!Listener}'s, exactly as for a single server.
    - {b Drain}: {!stop} (or {!signal_stop} from a signal handler)
      stops accepting, drains router workers, halts the monitor (so it
      stops respawning), then SIGTERMs the fleet in parallel with a
      SIGKILL escalation, and finally sweeps the socket files. *)

module Diag := Kfuse_util.Diag

type t

val start :
  socket:string ->
  dir:string ->
  count:int ->
  shard_argv:(index:int -> socket:string -> string list) ->
  ?shard_config:Shard.config ->
  ?health_interval_ms:float ->
  ?health_timeout_ms:float ->
  ?max_conns:int ->
  ?queue:int ->
  ?request_timeout_ms:float ->
  ?drain_timeout_ms:float ->
  ?shard_grace_ms:float ->
  unit ->
  (t, Diag.t) result
(** [start ~socket ~dir ~count ~shard_argv ()] claims [socket] and every
    shard socket under [dir] (stale files are reclaimed, live listeners
    are a typed refusal), spawns the [count] shards with
    [shard_argv ~index ~socket], and starts the accept loop, worker
    pool, and health monitor.  [max_conns], [queue],
    [request_timeout_ms] and [drain_timeout_ms] configure its
    {!Listener}, with {!Server.start}'s defaults; each router→shard call
    is bounded by what remains of the request deadline.
    [health_interval_ms]/[health_timeout_ms] pace the monitor's pings;
    [shard_grace_ms] is the per-shard SIGTERM grace during drain. *)

val wait : t -> unit
(** Block until a stop is requested ({!stop}, {!signal_stop}, or a
    [shutdown] request), then run the full drain sequence. *)

val stop : t -> unit
(** Request a stop and {!wait} for the drain to finish. *)

val signal_stop : t -> unit
(** Async-signal-safe stop request (an atomic flag — safe from a signal
    handler); {!wait} observes it. *)

val await_ready : ?timeout_ms:float -> t -> bool
(** [await_ready t] polls until every shard has answered a ping
    ([true]) or [timeout_ms] (default 10s) passes ([false] — the fleet
    may still be partially up). *)

val socket : t -> string
val metrics : t -> Metrics.t
val in_flight : t -> int
(** Connections currently queued or being served by the router. *)

val shards : t -> Shard.t array
(** Live view of the fleet's supervision slots (for tests and stats). *)
