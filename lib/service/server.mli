(** The [kfused] server: fusion-as-a-service over a Unix-domain socket,
    built to stay correct under overload, slow peers, and kill signals.

    Connections, admission ([max_conns] workers, a [queue]-bounded
    admission queue, [KF0803] sheds), request deadlines, chaos fault
    points and the drain are {!Listener}'s; this module is its request
    handler.  All workers share one {!Kfuse_cache.Plan_cache} and one
    {!Kfuse_util.Pool}: the pool is batch-exclusive, so concurrent plans
    degrade gracefully to serial execution inside their own thread
    rather than queueing behind each other.  A fusion search is
    budget-capped to what remains of the request deadline.  A failed
    request produces an error {e response}, not a dead server;
    ["exec.crash"] / ["exec.hang"] / ["exec.oom"] make a supervised
    native execution misbehave.

    Native execution is sandboxed by default
    ([exec_sandbox = Supervisor.Sandboxed]): generated code runs as a
    supervised fork/exec child under rlimits and a deadline watchdog
    ({!Kfuse_exec.Supervisor}), so a [fuse_exec] whose generated code
    segfaults, loops, or exhausts memory yields a typed
    [KF0905]/[KF0906]/[KF0907] reply — never a dead or wedged daemon.
    Each such failure writes a crash artifact (a fuzz-corpus-compatible
    [.pipe] file) under [crash_dir] and strikes a per-fingerprint
    circuit breaker: after [breaker_threshold] consecutive failures the
    plan is quarantined ([quarantined_plans] gauge) and subsequent
    requests degrade to the {!Kfuse_ir.Eval} interpreter
    (["mode" = "interpreter"] plus a warning in the reply) until a
    half-open probe after [breaker_cooldown_ms] succeeds. *)

module Diag := Kfuse_util.Diag
module Supervisor := Kfuse_exec.Supervisor

type t

(** [start ~socket ~cache ~pool ?budget_ms ?max_conns ?queue
    ?request_timeout_ms ?drain_timeout_ms ()] binds [socket] (a stale
    socket file left by a dead server is replaced; a live one is
    refused), spawns the worker pool and the accept thread, and
    returns.

    [budget_ms] is the default per-request fusion budget; a request's
    own ["budget_ms"] overrides it, and both are capped by the
    remaining request deadline.  [max_conns] (default 16),
    [queue] (default 64), [request_timeout_ms] (default 30s) and
    [drain_timeout_ms] (default 5s) configure its {!Listener}.

    [exec_sandbox] (default {!Supervisor.Sandboxed}) selects how
    [fuse_exec] and stream sessions run generated code; [exec_limits] (default
    {!Supervisor.default_limits}) are the rlimits for sandboxed
    children.  [crash_dir] (default [crash-corpus] under
    {!Kfuse_cache.Plan_cache.default_dir}) receives crash artifacts.
    [breaker_threshold] (default 3, >= 1) consecutive supervised
    failures quarantine a plan fingerprint; [breaker_cooldown_ms]
    (default 60s) is the quarantine period before a half-open probe.

    Sessions ([stream_*] and [lazy_*], see {!Protocol}) live in one
    {!Session_table} per kind.  [max_streams] (default 64, >= 1) bounds
    the open sessions of each kind — at most that many streams and,
    separately, that many lazy sessions; an open beyond it is shed with
    [KF0803], and concurrent opens cannot overshoot it.
    [stream_queue] (default 4, >= 1) bounds each stream's in-flight
    pushes — a push beyond it is shed with [KF0805] {e before} touching
    the session's temporal state, so the client can retry it verbatim.
    [stream_idle_ms] (default 60s; <= 0 disables) is both kinds'
    idle-expiry horizon: sessions untouched for longer, and with no
    request in flight, are reaped lazily (on the next op of their kind
    or [stats]), releasing any pinned native plan.
    Each stream compiles its plan exactly once at [stream_open] and
    reuses the pinned artifact for every frame
    ({!Kfuse_exec.Native.prepare}/{!Kfuse_exec.Native.run_plan});
    per-frame failures fall back to the interpreter on the same
    bindings, so a stream's pixel history stays bit-exact across
    backend changes. *)
val start :
  socket:string ->
  cache:Kfuse_cache.Plan_cache.t ->
  pool:Kfuse_util.Pool.t ->
  ?budget_ms:float ->
  ?max_conns:int ->
  ?queue:int ->
  ?request_timeout_ms:float ->
  ?drain_timeout_ms:float ->
  ?exec_sandbox:Supervisor.policy ->
  ?exec_limits:Supervisor.limits ->
  ?crash_dir:string ->
  ?breaker_threshold:int ->
  ?breaker_cooldown_ms:float ->
  ?max_streams:int ->
  ?stream_queue:int ->
  ?stream_idle_ms:float ->
  unit ->
  (t, Diag.t) result

(** [wait t] runs {!Listener.wait}, then releases every session's
    pinned plan and the sandbox runners, and removes the socket file. *)
val wait : t -> unit

(** [stop t] initiates shutdown and {!wait}s.  Idempotent. *)
val stop : t -> unit

(** {!Listener.signal_stop}: safe from a signal handler, which is how
    [kfusec serve] handles SIGTERM/SIGINT. *)
val signal_stop : t -> unit

(** {!Listener.in_flight}, exposed for the chaos harness's leak checks. *)
val in_flight : t -> int

val socket : t -> string
val cache : t -> Kfuse_cache.Plan_cache.t
val metrics : t -> Metrics.t

(** [load_pipeline f] resolves a fuse request to its pipeline exactly
    the way request handling does: a registry app by name (optionally
    re-instantiated at [size]), or parsed+elaborated DSL [source].
    Exposed so the sharded router maps a request to the {e same}
    pipeline — and hence the same rename-invariant fingerprint keyspace
    — as the shard that will serve it. *)
val load_pipeline :
  ?size:int * int -> Protocol.fuse_request -> (Kfuse_ir.Pipeline.t, Diag.t) result

(** [request_config ~c_mshared ~gamma ~tg] is the fusion model a request
    plans under: {!Kfuse_fusion.Config.default} with the request's
    optional overrides.  Exposed so the sharded router keys its
    coalescing on the same config as the shard. *)
val request_config :
  c_mshared:float option -> gamma:float option -> tg:float option -> Kfuse_fusion.Config.t
