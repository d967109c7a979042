(** The connection front end shared by the [kfused] server ({!Server})
    and the sharded router ({!Router}); each supplies one handler for
    its own ops and keeps only what is its own.  The listener owns the
    rest of a request's life, and its socket.

    One accept thread admits connections to [max_conns] long-lived
    worker threads through an admission queue.  While [max_conns +
    queue] connections are served or queued, a new one is {e shed} with
    a typed [KF0803 overloaded] reply ([requests_shed]).  An [accept]
    error other than an interrupt (say, [EMFILE]) is counted in
    [accept_errors] and retried after 10ms.

    Every request runs under a wall-clock deadline ([request_timeout_ms],
    also armed as [SO_RCVTIMEO]/[SO_SNDTIMEO]), handed to the handler: a
    slow-loris or vanished peer frees its worker with a [KF0804] reply
    ([requests_timed_out]).  A reply that would overrun
    {!Protocol.max_frame} becomes a typed [KF0801] reply.

    Each frame is decoded once ({!Protocol.request_of_json}); one that
    does not decode gets a typed [KF0801] reply, counted under the op
    ["invalid"].  The listener answers [ping] and [shutdown] itself, and
    a handler's exception becomes an error reply ({!Diag.of_exn}), so
    neither the connection nor the daemon dies of it.

    Chaos fault points ({!Kfuse_util.Faults.hit}) fire on every accepted
    connection (dropping it: [connections_dropped]), at admission
    (forcing a shed), and on every reply (swallowing, delaying or
    tearing it) without wedging the worker. *)

module Diag := Kfuse_util.Diag
module Deadline := Kfuse_util.Deadline

type t

(** A request handler: given the request's deadline and a decoded
    request other than [Ping] and [Shutdown], the reply.  An exception
    it raises becomes an error reply. *)
type handler = deadline:Deadline.t -> Protocol.request -> Jsonx.t

(** [claim_socket path] prepares [path] for a fresh [bind]: absent is
    fine; an existing socket file is probed with a connect — no listener
    (stale leftover of a crashed server) is unlinked, a live listener is
    a [KF0802] refusal, a non-socket file is a [KF0101].  {!start} runs
    this itself; it is exposed so the sharded topology can sweep a whole
    fleet's socket files. *)
val claim_socket : string -> (unit, Diag.t) result

(** The front end's defaults, one definition for [kfusec serve],
    [kfusec shard-serve], {!Server.start} and {!Router.start}: 16
    workers, a queue of 64, a 30 s request deadline and a 5 s drain. *)
val default_max_conns : int

val default_queue : int
val default_request_timeout_ms : float
val default_drain_timeout_ms : float

(** [start ~socket ~metrics ?max_conns ?queue ?request_timeout_ms
    ?drain_timeout_ms handler] claims and binds [socket], seeds the
    connection counters of [metrics] at 0, spawns the worker pool and
    the accept thread, and returns.  [max_conns] must be >= 1 and
    [queue] >= 0 ([KF0401] otherwise); [request_timeout_ms] <= 0
    disables deadlines and socket timeouts.  Each defaults to its
    [default_*] value above.

    Every request is answered by [handler], timed into [metrics] under
    its operation name.  An ok ["stats"] reply gains the listener's own
    [connections] (accepted, dropped, accept_errors, active, shed,
    timed_out) and [limits] (max_conns, queue, request_timeout_ms,
    drain_timeout_ms) objects. *)
val start :
  socket:string ->
  metrics:Metrics.t ->
  ?max_conns:int ->
  ?queue:int ->
  ?request_timeout_ms:float ->
  ?drain_timeout_ms:float ->
  handler ->
  (t, Diag.t) result

(** [initiate_stop t] stops accepting and wakes idle workers, without
    blocking.  It wakes the accept thread with [shutdown(2)] on the
    listening descriptor, not through the socket's path, so it works
    after the path was removed or taken by another daemon.
    Idempotent. *)
val initiate_stop : t -> unit

(** [signal_stop t] requests a stop with a single atomic store — no
    locks, no allocation — so it is safe from an asynchronous signal
    handler.  The thread blocked in {!wait} notices it within ~20ms. *)
val signal_stop : t -> unit

(** [wait t] blocks until a stop is initiated or signalled, stops
    accepting, lets in-flight handlers finish for up to
    [drain_timeout_ms] — past it, their connections and the queued ones
    are forcibly shut down — and joins every worker thread.  It then
    removes the socket file, but only if the path still names the file
    its own [bind] made, and closes the listening descriptor. *)
val wait : t -> unit

(** [stopping t] is [true] once a stop was initiated. *)
val stopping : t -> bool

(** [in_flight t] is the number of connections being served plus those
    waiting in the admission queue — 0 after a clean drain. *)
val in_flight : t -> int

val socket : t -> string
