(** Lazy pipeline construction: edit now, fuse on [flush].

    A {!t} is a mutable pipeline under construction — kernels are
    appended, deleted and retargeted, inputs and parameter defaults
    added — with fusion deferred to {!flush}, which (re)plans through a
    persistent {!Replan.t} session so that edits touching one region of
    the DAG reuse the min-cut decisions of every untouched region.

    Every edit is validated eagerly by running the full pipeline
    validator ({!Kfuse_ir.Validate}) over the would-be state: a
    rejected edit (dangling reference, cycle, duplicate name, consumed
    kernel deleted, ...) returns the diagnostic and leaves the builder
    {b unchanged}, so the builder always holds a constructible pipeline
    and [flush] cannot fail on structure.  Not thread-safe. *)

type t

val create :
  ?name:string ->
  ?channels:int ->
  ?params:(string * float) list ->
  ?inputs:string list ->
  width:int ->
  height:int ->
  Kfuse_fusion.Config.t ->
  (t, Kfuse_util.Diag.t) result
(** An empty builder over a [width x height x channels] iteration space,
    or the first broken precondition of: a valid config ([KF0401]),
    identifier inputs ([KF0202]), no duplicate input ([KF0503]), and a
    valid empty pipeline (a positive, indexable space: [KF0504]). *)

val of_pipeline : Kfuse_fusion.Config.t -> Kfuse_ir.Pipeline.t -> t
(** Seed a builder (and a fresh planning session) from an existing
    pipeline. *)

(** {1 Edits}

    Each returns [Ok ()] and bumps {!generation} iff the edit was
    applied; on [Error] the builder is unchanged. *)

val add : t -> Kfuse_ir.Kernel.t -> (unit, Kfuse_util.Diag.t) result
(** Append a kernel (its output image is named after it). *)

val remove : t -> string -> (unit, Kfuse_util.Diag.t) result
(** Delete the kernel by name.  Rejected while consumed downstream. *)

val retarget :
  t -> kernel:string -> from_:string -> to_:string -> (unit, Kfuse_util.Diag.t) result
(** Rewrite every read of image [from_] inside [kernel] to read [to_]
    instead (the kernel's declared inputs follow).  Rejected if [kernel]
    does not read [from_], or the new read would dangle or close a
    cycle. *)

val set_param : t -> string -> float -> (unit, Kfuse_util.Diag.t) result
(** Add or update a scalar parameter default.  Always applies — and,
    deliberately, dirties {e nothing}: planning is independent of
    parameter values, so the next [flush] replays entirely from memo. *)

val add_input : t -> string -> (unit, Kfuse_util.Diag.t) result
(** Declare an external input image.  Refused, as {!create} refuses
    them, on a name that is not an identifier ([KF0202]) or is already
    an input ([KF0503]). *)

(** {1 Inspection} *)

val name : t -> string
val width : t -> int
val height : t -> int
val channels : t -> int
val inputs : t -> string list
val params : t -> (string * float) list
val kernels : t -> Kfuse_ir.Kernel.t list
(** In insertion order (the built pipeline re-sorts topologically). *)

val images : t -> string list
(** Every readable image name: inputs, then kernel outputs, in
    declaration/insertion order. *)

val generation : t -> int
(** Count of applied edits — cheap "did anything change" signal. *)

val pipeline : t -> (Kfuse_ir.Pipeline.t, Kfuse_util.Diag.t) result
(** The current state, built (without planning).  An applied edit builds
    it once, to validate it, and keeps it: reading it costs nothing. *)

val session : t -> Replan.t
(** The builder's planning session (for memo introspection). *)

(** {1 Flushing} *)

val flush : ?pool:Kfuse_util.Pool.t -> t -> (Replan.plan, Kfuse_util.Diag.t) result
(** Plan the current state ({!pipeline}) incrementally through the
    session — the lazy frontend's only planning entry point. *)

val flush_scratch :
  ?pool:Kfuse_util.Pool.t -> t -> (Replan.plan, Kfuse_util.Diag.t) result
(** Plan the current state from scratch (fresh session,
    nothing reused) — the differential reference.  Does not touch this
    builder's session or memos. *)

val last : t -> Replan.plan option
(** The most recent successful {!flush} plan. *)
