(** Process-wide SIGPIPE policy.

    A write to a vanished peer (a client socket, a dead runner's
    request pipe) must surface as [Unix_error EPIPE], which the caller
    turns into a typed failure, not as a process-killing SIGPIPE. *)

val ignore : unit -> unit
(** Set SIGPIPE to ignored in this process; idempotent and cheap after
    the first call.  Children spawned through the supervisor reset it
    to the default before [exec]. *)
