(** Deterministic, seed-driven fault injection.

    Library hot paths declare {e named injection points} by calling
    {!hit}.  By default a hit is a no-op (one atomic load); a test — or
    the [KFUSE_FAULTS] environment variable, for end-to-end runs of the
    [kfusec] binary — can {e arm} a point with a deterministic trigger,
    making the matching hit raise {!Fault}.  Because triggers are counted
    (or drawn from a seeded RNG) per point, a failure schedule is exactly
    reproducible, which is what lets tests prove that the domain pool
    shuts down cleanly and the driver degrades instead of dying.

    Points currently instrumented:
    - ["pool.spawn"]  — before each worker-domain spawn, at a pool's
      first parallel {!Pool.run}; a triggered fault leaves the pool with
      the workers it had spawned, and the batch still completes
    - ["pool.task"]   — before each task a pool worker executes
    - ["cut.stoer_wagner"] — entry of [Stoer_wagner.min_cut]
    - ["cut.block_legal"] — a {e corruption} point ({!fires}) in
      [Mincut_fusion.block_legal]: a triggered hit makes the predicate
      wrongly report the block as legal, so Algorithm 1 emits an illegal
      partition.  Exists for the differential fuzzer: arming
      ["cut.block_legal/1"] seeds a legality bug the legality oracle
      must catch and shrink
    - ["sim.sample"]  — per measurement sample in [Sim.measure]
    - ["driver.strategy"] — before the driver runs the chosen strategy
    - the [kfused] connection front end's points, fired by
      [Kfuse_service.Listener] for the server and the router alike:
      ["service.accept"] after each accepted connection (drops that one
      connection, the listener keeps serving); one at admission (sheds
      the connection with a [KF0803] reply, exercising the client's
      retry path); and three at each reply, which swallow it (the client
      sees a clean close), delay it (client receive timeouts, the
      server's send deadline) or tear its frame (the client must surface
      a typed mid-frame error)
    - ["stream.shed"] — at each [kfused] [stream_push] to an open
      stream; a triggered fault sheds that push with a [KF0805] reply as
      if the stream's frame queue were full, without advancing the
      stream, exercising the client's verbatim push retry
    - ["exec.crash"] — per supervised native execution ({!fires}, drawn
      in the parent before fork); a triggered fault makes the child die
      with SIGSEGV instead of exec'ing, so the supervisor must classify
      a KF0906 and the service must count/quarantine it
    - ["exec.hang"] — per supervised native execution; the child sleeps
      forever instead of exec'ing, so the watchdog must SIGTERM→SIGKILL
      it into a KF0905
    - ["exec.oom"] — per supervised native execution; the child
      exhausts a tiny private RLIMIT_AS and aborts the way the
      generated allocator does, so the supervisor must classify a
      KF0907

    The registry is global and guarded by a mutex; {!hit} is safe to
    call from any domain. *)

exception Fault of { point : string; hit : int }
(** Raised by {!hit} when the point's trigger fires.  [hit] is the
    1-based count of calls at that point since it was armed. *)

(** When an armed point fires. *)
type trigger =
  | Nth of int  (** fire on exactly the [n]-th hit (1-based), once *)
  | Every of int  (** fire on every [n]-th hit *)
  | Prob of float * int  (** [(p, seed)]: each hit fires with probability
                             [p], drawn from a per-point generator seeded
                             with [seed] — deterministic across runs *)

val clear : unit -> unit
(** Disarm every point and reset all counters. *)

val active : unit -> bool
(** [true] when at least one point is armed. *)

val hit : string -> unit
(** [hit point] counts a hit and raises {!Fault} if armed and triggered.
    Near-free when nothing is armed anywhere. *)

val fires : string -> bool
(** [fires point] counts a hit like {!hit} but reports a triggered fault
    as [true] instead of raising — the primitive for {e corruption}-style
    fault points, where the instrumented code keeps running and returns a
    deliberately wrong answer for the test harness to catch.  [false]
    when unarmed. *)

val hits : string -> int
(** Hits observed at [point] since it was last armed (0 if never armed,
    or since {!clear}). *)

val parse_spec : string -> ((string * trigger) list, string) result
(** Parse a spec string: comma-separated clauses of the form
    - ["point@N"] for [Nth N]
    - ["point/N"] for [Every N]
    - ["point~P:SEED"] for [Prob (P, SEED)] (e.g. ["pool.task~0.01:42"])
    - ["point"] alone for [Nth 1]. *)

val env_var : string
(** ["KFUSE_FAULTS"]. *)

val arm_from_env : unit -> (unit, string) result
(** Arm from [KFUSE_FAULTS] if set and nonempty; [Ok ()] when unset. *)

val with_spec : string -> (unit -> 'a) -> 'a
(** [with_spec spec f] arms [spec] (which must parse), runs [f], and
    {!clear}s afterwards, also on exception.
    @raise Invalid_argument on a malformed spec. *)
