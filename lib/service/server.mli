(** The [kfused] server: fusion-as-a-service over a Unix-domain socket,
    built to stay correct under overload, slow peers, and kill signals.

    Connections, admission ([max_conns] workers, a [queue]-bounded
    admission queue, [KF0803] sheds), request deadlines, chaos fault
    points, the drain and the socket file are {!Listener}'s, and so are
    decoding each frame, [ping], [shutdown] and turning a handler's
    exception into an error reply; this module handles the other ops.
    All workers share one {!Kfuse_cache.Plan_cache} and one
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
    half-open probe after a 60 s cooldown succeeds. *)

module Diag := Kfuse_util.Diag
module Supervisor := Kfuse_exec.Supervisor

type t

(** [start ~socket ~cache ~pool ?max_conns ?queue ?request_timeout_ms
    ?drain_timeout_ms ()] binds [socket] (a stale socket file left by a
    dead server is replaced; a live one is refused), spawns the worker
    pool and the accept thread, and returns.

    [max_conns], [queue], [request_timeout_ms] and [drain_timeout_ms]
    configure its {!Listener}, with {!Listener}'s defaults.  A
    request's own ["budget_ms"] bounds its fusion search, capped by the
    remaining request deadline.

    [exec_sandbox] (default {!Supervisor.Sandboxed}) selects how
    [fuse_exec] and stream sessions run generated code; [exec_limits] (default
    {!Supervisor.default_limits}) are the rlimits for sandboxed
    children.  [crash_dir] (default [crash-corpus] beside [cache]'s
    disk tier, or under {!Kfuse_cache.Plan_cache.default_dir} for a
    memory-only cache) receives crash artifacts.
    [breaker_threshold] (default
    {!Kfuse_exec.Supervisor.Breaker.default_threshold}, >= 1) consecutive supervised
    failures quarantine a plan fingerprint for 60 s, until a half-open
    probe.

    Sessions ([stream_*] and [lazy_*], see {!Protocol}) live in one
    {!Session_table} per kind.  [max_streams] (default 64, >= 1) bounds
    the open sessions of each kind — at most that many streams and,
    separately, that many lazy sessions; an open beyond it is shed with
    [KF0803], and concurrent opens cannot overshoot it.
    Each stream takes at most 4 pushes in flight — a push beyond them is
    shed with [KF0805] {e before} touching the session's temporal state,
    so the client can retry it verbatim.
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
  ?max_conns:int ->
  ?queue:int ->
  ?request_timeout_ms:float ->
  ?drain_timeout_ms:float ->
  ?exec_sandbox:Supervisor.policy ->
  ?exec_limits:Supervisor.limits ->
  ?crash_dir:string ->
  ?breaker_threshold:int ->
  ?max_streams:int ->
  ?stream_idle_ms:float ->
  unit ->
  (t, Diag.t) result

(** [wait t] runs {!Listener.wait}, which removes the socket file while
    it is still this server's, then releases every session's pinned plan
    and the sandbox runners. *)
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
