(** At most one computation per key in flight.

    When several threads miss on the same key at once (N streams of one
    pipeline opening against a cold artifact cache, two clients planning
    one pipeline), exactly one of them computes and the rest wait for it
    to finish, then find what it published.  The native compile cache
    keys its compiles by artifact path, the plan cache its plans by
    plan key. *)

type 'k t

val create : unit -> 'k t

(** [run t key ~find compute] is [v] when [find ()] is [Some v].  On a
    miss it waits while another caller computes [key], then leads:
    it runs [compute ()], unless a computation finished since [find]
    missed, in which case it first tries [find ()] again.  So a caller
    that misses while [key] is being computed finds what that
    computation published, and an uncontended miss looks up once.
    [compute] must publish what [find] finds before it returns; one
    that publishes nothing (a failure) leaves the next waiter to
    compute again.  Keys compare with structural equality. *)
val run : 'k t -> 'k -> find:(unit -> 'a option) -> (unit -> 'a) -> 'a
