(** A deterministic, work-stealing-free domain pool.

    Fixed team of OCaml 5 domains fed from a shared index counter
    (self-scheduling, one index at a time) guarded by a single
    [Mutex]/[Condition] pair.  Results are written into caller-indexed
    slots, so [map_array pool f a] returns exactly [Array.map f a]
    regardless of how tasks interleave across domains — callers get
    bit-identical output to a serial run as long as each task is a pure
    function of its index.

    The pool is batch-oriented: one parallel region runs at a time.  A
    nested or concurrent {!run} on a busy pool degrades to serial
    execution in the calling domain rather than deadlocking, so it is
    safe to pass the same pool down through layered APIs
    ({!Kfuse_fusion.Driver.run} hands its pool to the benefit model,
    the min-cut recursion, and the simulator).

    Exceptions raised by tasks do not poison the pool: every task of the
    batch still runs, and the exception of the {e lowest} failing index
    is re-raised in the submitting domain once the batch drains —
    deterministic even when several tasks fail. *)

type t
(** A pool handle.  Values of type [t] are safe to share between
    domains, but {!run} is batch-exclusive as described above. *)

val serial : t
(** A pool of size 1.  Spawns no domains; every operation runs in the
    calling domain.  The conventional default for [?pool] arguments. *)

val default_size : unit -> int
(** [Domain.recommended_domain_count ()]: the [-j] default. *)

val create : int -> t
(** [create n] is a pool of total parallelism [n]: [n - 1] worker
    domains plus the submitting domain, which participates in every
    batch.  [create 1] spawns nothing and behaves like {!serial}.
    @raise Invalid_argument if [n < 1].

    The workers are spawned at the first {!run} that has more than one
    chunk, so a process that never runs such a batch never has them: an
    OCaml 5 domain, even an idle one, takes part in every stop-the-world
    minor collection of the process.  A spawn that fails partway (the
    runtime's domain limit, or an injected ["pool.spawn"] fault) runs
    the batch on the domains it did spawn, the submitter included; it
    raises nothing and leaks nothing. *)

val live_domains : unit -> int
(** Worker domains currently spawned but not yet joined, across all
    pools of the process.  [0] once every pool has been shut down —
    the no-leaked-domains invariant the fault-injection tests assert. *)

val size : t -> int
(** Total parallelism (worker domains + 1). *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; {!serial} ignores
    it.  Subsequent {!run} calls on the pool execute serially. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool n f] runs [f] with a fresh pool of size [n] and shuts it
    down afterwards, also on exception. *)

val run : t -> ?chunk:int -> n:int -> (int -> unit) -> unit
(** [run pool ~n body] executes [body 0 .. body (n - 1)], distributing
    indices over the pool's domains.  Returns when all [n] tasks have
    finished.  If any task raised, re-raises the exception of the lowest
    failing index (with its backtrace).  [chunk] (default 1) hands out
    indices in runs of that length — raise it when tasks are tiny so the
    shared counter is not the bottleneck.  A batch of one chunk
    ([n <= chunk]) runs in the calling domain and wakes no worker. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f a] is [Array.map f a], computed in parallel. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list pool f l] is [List.map f l], computed in parallel. *)

val init : t -> int -> (int -> 'a) -> 'a array
(** [init pool n f] is [Array.init n f], computed in parallel ([f] must
    be safe to call from any domain and in any order). *)
