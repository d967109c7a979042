(** One supervised shard of the sharded [kfused] topology.

    A shard is a full {!Server} in its own process, serving
    [<dir>/shard-<i>.sock] and sharing the content-addressed disk plan
    cache with its siblings (the atomic temp-file-plus-rename store
    makes concurrent writers safe).  This module is the per-shard
    supervision state machine — PR 7's circuit-breaker idea lifted from
    plan fingerprints to server processes:

    - a crashed shard is respawned with exponential backoff
      ([restart_backoff_ms] doubling per rapid failure, capped at 5 s);
    - a {e restart storm} — 5 consecutive failures each dying within
      [storm_window_ms] of its spawn — marks the shard {!Dead}: its
      keyspace is rerouted to neighbors until a half-open respawn probe
      after [dead_cooldown_ms] survives;
    - a shard that is alive as a process but silent as a server (4
      consecutive missed pings) is killed and takes the normal crash
      path.

    All mutation happens on the router's monitor thread via {!tick};
    routing threads only read ({!routable}, {!state}), which is safe —
    a stale read costs at most one failed connect and a failover. *)

module Diag := Kfuse_util.Diag

(** {1 Fleet layout} *)

val socket_path : dir:string -> int -> string
(** [<dir>/shard-<i>.sock]. *)

val log_path : dir:string -> int -> string
(** [<dir>/shard-<i>.log] — the shard's stdout+stderr, appended across
    restarts. *)

val sweep_sockets : dir:string -> count:int -> (unit, Diag.t) result
(** Reclaim every shard socket a [count]-shard fleet will use, plus any
    [shard-<j>.sock] leftover from a previously larger fleet in the same
    [dir]: stale files (no listener) are unlinked via
    {!Listener.claim_socket}, a live listener is a typed refusal — so a
    crashed fleet restarts cleanly and two fleets never share a
    directory. *)

(** {1 Supervision policy} *)

type config = {
  storm_window_ms : float;  (** a death within this of its spawn is "rapid" *)
  restart_backoff_ms : float;  (** base respawn delay; doubles per rapid failure *)
  dead_cooldown_ms : float;  (** dead → half-open respawn probe; <= 0 disables *)
}

val default_config : config
(** 2 s storm window, 100 ms base backoff, 10 s dead cooldown. *)

(** {1 One shard slot} *)

type state =
  | Starting  (** spawned, not yet answering pings *)
  | Up
  | Backoff of { until : float }  (** crashed; respawn at [until] (Unix time) *)
  | Dead of { since : float }  (** restart storm tripped the breaker *)

type t

(** What a {!tick} observed, in order.  The router folds these into its
    metrics ([shard_restarts], [shard_exits], ...). *)
type event =
  | Respawned  (** a replacement process was spawned (not the first spawn) *)
  | Exited of string  (** the process died; payload describes the status *)
  | Killed_hung  (** ping deadline exceeded repeatedly; SIGKILL sent *)
  | Marked_dead  (** the restart storm breaker tripped *)

val create : index:int -> socket:string -> log:string -> argv:string list -> t
(** A slot in state [Backoff {until = 0}]: the first {!tick} spawns. *)

val tick : config -> t -> now:float -> ?ping:(string -> bool) -> unit -> event list
(** One supervision step: reap a death (non-blocking), decide
    backoff/storm, respawn when due, and — when [ping] is given — run
    the health check, promoting [Starting] to [Up] on success and
    killing the process after 4 consecutive misses.  [ping socket] must
    be bounded (the router's is one protocol ping under its health
    timeout). *)

val stop : t -> unit
(** Drain: {!Kfuse_exec.Supervisor.Child.terminate} — SIGTERM, 2 s to
    exit cleanly, SIGKILL past it.  The slot is left [Dead] so a
    concurrent reader never routes to it again. *)

val index : t -> int
val socket : t -> string
val state : t -> state
val state_string : t -> string
val routable : t -> bool
(** [Starting] or [Up]: the process is believed alive.  The forwarder
    treats a refused connect as "try the next shard", so optimistically
    routing to a [Starting] shard costs one failed connect at worst. *)

val pid : t -> int option
val restarts : t -> int
(** Respawns so far (the first spawn is not a restart). *)

val consecutive_failures : t -> int
val last_exit : t -> string option
