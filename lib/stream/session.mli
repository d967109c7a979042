(** Per-stream temporal state.

    A session owns the sliding window of past input frames for one
    stream of a temporal pipeline (see {!Kfuse_ir.Temporal}).  The
    window stores pipeline {e inputs}, never outputs, so whatever
    backend executes a frame — the interpreter, a pinned native plan, or
    the interpreter again after a mid-stream quarantine — sees exactly
    the same bindings; cross-backend bit-exactness needs no state
    reconciliation.

    Cold start: a temporal input whose lag reaches past the start of the
    stream is clamped to the oldest frame available, and to the current
    frame itself on frame 0 — a motion stream's first frame reports a
    zero delta rather than reading an arbitrary boundary value.

    Frames drawn by {!draw} live in the session's ring of [depth + 1]
    buffers, allocated once: frame [n] is drawn into slot
    [n mod (depth + 1)], which no frame of the window holds, so a
    stream of synthetic frames allocates no frame after its first
    [depth + 1].  A frame the caller passes in itself ({!push},
    {!advance}) stays the caller's.

    Sessions are not thread-safe; callers (the [kfused] server)
    serialize pushes per session. *)

type t

val create :
  ?params:(string * float) list -> Kfuse_ir.Pipeline.t -> (t, Kfuse_util.Diag.t) result
(** [create ?params p] errors (per {!Kfuse_ir.Temporal.stream_input})
    unless [p] has exactly one current-frame input.  Non-temporal
    pipelines stream fine with an always-empty window. *)

val pipeline : t -> Kfuse_ir.Pipeline.t
val analysis : t -> Kfuse_ir.Temporal.t
val stream_input : t -> string
val params : t -> (string * float) list

val depth : t -> int
(** Window depth — the maximum temporal lag of the pipeline. *)

val frames : t -> int
(** Frames pushed (i.e. {!advance}d) so far. *)

val draw : t -> seed:int -> Kfuse_image.Image.t
(** [draw t ~seed] is frame [frames t] of the synthetic stream [seed]
    ({!Frames.synthetic}'s pixels), drawn into the session's ring slot
    [frames t mod (depth t + 1)].  The image is the session's: its
    pixels stay valid while it is the current frame and, once
    {!advance}d, for as long as the window holds it, and a later draw
    overwrites them.  Drawing twice before an {!advance} draws the same
    frame into the same slot. *)

val bindings : t -> Kfuse_image.Image.t -> (string * Kfuse_image.Image.t) list
(** [bindings t frame] binds exactly the pipeline's inputs: the current
    input to [frame], each temporal input to its (clamped) lagged frame.
    Does not advance the window.
    @raise Invalid_argument on a frame of the wrong extent. *)

val advance : t -> Kfuse_image.Image.t -> unit
(** [advance t frame] pushes [frame] into the window, evicting frames
    older than {!depth}.  Callers advance exactly once per processed
    frame, {e after} executing with {!bindings} — including when the
    execution fell back across backends. *)

val eval : t -> Kfuse_image.Image.t -> (string * Kfuse_image.Image.t) list
(** [eval t frame] runs the interpreter on {!bindings} (no advance). *)

val push : t -> Kfuse_image.Image.t -> (string * Kfuse_image.Image.t) list
(** [push t frame] is {!eval} then {!advance}: the one-call interpreter
    backend used by tests and the fuzz oracle. *)
