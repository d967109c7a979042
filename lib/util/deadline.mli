(** Cooperative wall-clock deadlines.

    A {!t} is an absolute point in time (or {!none}).  Long-running
    searches poll {!check} at natural yield points (the min-cut driver
    checks once per recursion wave); the driver converts {!Expired} into
    graceful degradation to the baseline partition, or into a
    {!Diag.Budget_exceeded} error under [--strict]. *)

type t

exception Expired of { budget_ms : float }

val none : t
(** Never expires. *)

val after_ms : float -> t
(** [after_ms b] expires [b] milliseconds from now.  A nonpositive
    budget is already expired. *)

val budget_ms : t -> float option
(** The budget [after_ms] was given, or [None] for {!none}. *)

val expired : t -> bool

val remaining_ms : t -> float option
(** Milliseconds left before expiry (clamped at [0.]), or [None] for
    {!none}. *)

val cap : t -> float option -> float option
(** [cap t bound] is the tighter of {!remaining_ms} and [bound], or
    [None] when neither bounds: a nested budget, such as a request's
    fusion search, shrunk to what is left of its deadline. *)

val check : t -> unit
(** @raise Expired when the deadline has passed. *)
