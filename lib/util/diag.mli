(** Structured diagnostics.

    Every user-facing failure of the compiler — bad DSL input, a
    malformed pipeline graph, an I/O error, an internal fault the driver
    degraded around — is described by a {!t}: a stable error code, a
    severity, optional source context, and a human-readable message.
    Public entry points return [('a, Diag.t) result] instead of raising
    [Failure]/[Invalid_argument], so callers (the [kfusec] CLI, library
    users, tests) can render, count, and dispatch on failures without
    string matching.

    The raising world is bridged both ways: {!Fatal} wraps a diagnostic
    as an exception for code that cannot return [result], and {!of_exn}
    folds common stdlib exceptions into diagnostics. *)

type severity = Error | Warning | Note

(** Stable diagnostic codes.  The numeric identifier ({!code_id}) is
    part of the CLI contract documented in the README; add codes at the
    end of a block, never renumber. *)
type code =
  | Io_error  (** KF0101: file missing/unreadable/unwritable *)
  | Parse_error  (** KF0201: DSL lexical or syntax error *)
  | Elab_error  (** KF0202: DSL name resolution / elaboration error *)
  | Pgm_format  (** KF0301: malformed or truncated PGM image *)
  | Config_invalid  (** KF0401: fusion-model configuration out of range *)
  | Cycle  (** KF0501: dependence cycle in the kernel graph *)
  | Dangling_ref  (** KF0502: kernel reads an image nothing produces *)
  | Duplicate_name  (** KF0503: duplicate kernel/input/parameter id *)
  | Empty_iteration_space  (** KF0504: nonpositive width/height/channels, or
      more than [2^31 - 1] elements *)
  | Mask_too_large  (** KF0505: stencil window exceeds the iteration space *)
  | Global_consumed  (** KF0506: 1x1 reduction output consumed downstream *)
  | Unbound_param  (** KF0507: kernel parameter without a default *)
  | Empty_pipeline  (** KF0508: pipeline with no kernels *)
  | Invalid_partition  (** KF0601: blocks not disjoint/covering or illegal *)
  | Strategy_failed  (** KF0602: a fusion strategy raised *)
  | Budget_exceeded  (** KF0603: fusion search ran past [--budget-ms] *)
  | Cache_corrupt
      (** KF0701: an on-disk plan-cache entry is unreadable or fails its
          integrity checks (always survivable: treated as a miss) *)
  | Protocol_error  (** KF0801: malformed [kfused] wire request/response *)
  | Service_error  (** KF0802: [kfused] server-side failure *)
  | Overloaded
      (** KF0803: [kfused] shed this connection — workers and admission
          queue full; safe to retry after a backoff *)
  | Request_timeout
      (** KF0804: a [kfused] request (or its reply) overran its
          wall-clock deadline, or the peer went silent mid-frame *)
  | Stream_backpressure
      (** KF0805: a [stream_push] was shed because the session's bounded
          frame queue is full — the frame was NOT processed and the
          temporal state did not advance; safe to retry after a backoff *)
  | Stream_unknown
      (** KF0806: a stream op named a session id the server does not
          hold (never opened, already closed, or expired on idle) *)
  | Shard_degraded
      (** KF0807: the sharded router served this request away from its
          home shard (crashed, restarting, or marked dead) — the reply
          is correct but cache locality is degraded; always a warning *)
  | Shard_unavailable
      (** KF0808: the sharded router found no live shard for the
          request's keyspace — every candidate is down or restarting;
          safe to retry after a backoff *)
  | Fault_injected  (** KF0901: deterministic fault-injection trigger *)
  | Toolchain_missing
      (** KF0902: no usable C compiler for the native execution backend
          (nothing on [PATH], or [KFUSE_CC] names a broken one) *)
  | Compile_failed
      (** KF0903: the system compiler rejected generated C — always a
          codegen bug or a broken local toolchain, never user input *)
  | Exec_failed
      (** KF0904: a compiled fused plan could not be loaded or run
          (dlopen/dlsym failure, crashed subprocess, truncated output) *)
  | Exec_timeout
      (** KF0905: a supervised native execution overran its wall-clock
          deadline and was killed by the watchdog (SIGTERM, escalated to
          SIGKILL if it refused to die) *)
  | Exec_crashed
      (** KF0906: a supervised native execution died on a crash signal
          (SIGSEGV, SIGBUS, SIGFPE, ...); the message carries the signal
          name and a capped stderr tail *)
  | Exec_limit
      (** KF0907: a supervised native execution exceeded a sandbox
          resource limit — RLIMIT_CPU, RLIMIT_AS (allocation failure
          under the cap) or RLIMIT_FSIZE *)
  | Internal_error  (** KF0999: invariant violation inside the compiler *)

type context = {
  file : string option;
  line : int option;
  col : int option;
}

type t = {
  code : code;
  severity : severity;
  message : string;
  context : context;
}

exception Fatal of t
(** A diagnostic as an exception, for raising contexts ([--strict]). *)

val code_id : code -> string
(** [code_id c] is the stable identifier, e.g. ["KF0601"]. *)

val code_of_id : string -> code option
(** [code_of_id "KF0601"] is [Some Invalid_partition]: the inverse of
    {!code_id}, used to fold wire-level error codes back into typed
    diagnostics on the [kfused] client side. *)

val v : ?severity:severity -> ?file:string -> ?line:int -> ?col:int -> code -> string -> t

val errorf :
  ?file:string -> ?line:int -> ?col:int -> code -> ('a, unit, string, t) format4 -> 'a
(** [errorf code fmt ...] is an [Error]-severity diagnostic. *)

val warningf :
  ?file:string -> ?line:int -> ?col:int -> code -> ('a, unit, string, t) format4 -> 'a

val is_error : t -> bool

val severity_to_string : severity -> string

val to_string : t -> string
(** ["error[KF0502]: file.pipe:3:7: kernel \"gx\" reads unknown image"].
    Context components are omitted when absent. *)

val pp : Format.formatter -> t -> unit

val of_exn : exn -> t
(** Fold an exception into a diagnostic: {!Fatal} unwraps, [Sys_error]
    becomes {!Io_error}, [Invalid_argument]/[Failure]/[Not_found] become
    {!Internal_error}, anything else is {!Internal_error} carrying
    [Printexc.to_string]. *)

val fail : t -> 'a
(** [fail d] raises [Fatal d]. *)

val catch : (unit -> 'a) -> ('a, t) result
(** [catch f] runs [f], mapping a raised exception through {!of_exn}.
    Asynchronous runtime exceptions ([Out_of_memory], [Stack_overflow])
    are not caught. *)
