(** One kind of daemon session — kfused's streams and lazy editing
    sessions are two instances — with everything that makes a session
    table correct under concurrency in one place.

    - {b Admission}: {!open_} reserves a slot under the table lock
      {e before} the caller's build step (plan and compile, seed and
      validate) and frees it when the build fails, so [max_sessions] is
      a real bound even when N opens race a slow compile.
    - {b Use}: {!use} counts the caller in flight and serializes users
      of one session on the session's own lock.  With [max_in_flight],
      a use beyond it is refused {e before} the session is touched.
    - {b Idle expiry}: sessions untouched for [idle_ms] are reaped lazily
      by every operation on the table; a session with work in flight is
      never reaped.
    - {b Release}: the payload's [release] runs exactly once, by
      whichever of close, expiry or drain removes the session — or, if
      users are still in flight then, by the last one out.
    - {b Metrics}: [<prefix>_opened], [<prefix>_closed],
      [<prefix>_expired] and [<prefix>_shed] counters and the
      [<prefix>_active] gauge, which always equals the number of open
      sessions.

    Thread- and domain-safe. *)

type 'a t

(** Why {!use} did not run its callback. *)
type refusal =
  | Unknown  (** never opened, already closed, or idle-expired *)
  | Busy of int  (** [max_in_flight] reached; the payload is how many are in flight *)

val create :
  metrics:Metrics.t ->
  prefix:string ->
  id_prefix:string ->
  max_sessions:int ->
  ?max_in_flight:int ->
  idle_ms:float ->
  ?clock:(unit -> float) ->
  release:('a -> unit) ->
  unit ->
  'a t
(** [create ~metrics ~prefix ~id_prefix ~max_sessions ?max_in_flight
    ~idle_ms ~release ()] is an empty table whose ids read
    [<id_prefix>-<n>].  [idle_ms <= 0] disables expiry; [max_in_flight]
    (default unbounded) bounds each session's concurrent {!use}s.
    [clock] (default [Unix.gettimeofday], seconds) exists for tests.
    The metric names are pre-seeded at 0. *)

val open_ :
  'a t -> shed:(int -> 'e) -> (unit -> ('a * 'r, 'e) result) -> (string * 'r, 'e) result
(** [open_ t ~shed build] admits a new session: at the bound it counts a
    shed and returns [Error (shed max_sessions)] without calling
    [build]; otherwise it holds a slot while [build] runs, and on
    [Ok (payload, r)] opens the session and returns its fresh id with
    [r].  A build that fails or raises frees the slot. *)

val use : 'a t -> ?busy:bool -> string -> ('a -> 'r) -> ('r, refusal) result
(** [use t id f] runs [f] on the session's payload under the session's
    lock, counted in flight, and refreshes its idle clock.  [busy]
    (default [false]) refuses as if the in-flight bound were reached
    (a chaos hook). *)

val close : 'a t -> string -> ('a -> 'r) -> 'r option
(** [close t id f] removes the session, then runs [f] on its payload
    once any running {!use} has finished, and releases the payload;
    [None] when [id] is not open. *)

val expire : 'a t -> unit
(** Reap the idle sessions now (every other operation also does). *)

val drain : 'a t -> unit
(** Remove every session, e.g. at shutdown; payloads with no use in
    flight are released at once, the rest by their last user. *)

val active : 'a t -> int
(** Open sessions. *)
