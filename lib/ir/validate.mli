(** Pipeline validation with structured diagnostics.

    {!Pipeline.create} enforces its invariants by raising
    [Invalid_argument], which is right for programmatic construction but
    wrong for untrusted input: the CLI and the driver want a complete,
    typed account of what is broken.  This module re-states the
    invariants as checks over a {e raw} pipeline description (a kernel
    list that may not be constructible at all — cyclic, dangling,
    duplicated) and returns every violation as a {!Kfuse_util.Diag.t}:

    - nonpositive iteration space (width/height/channels), or one of
      more than {!max_elements} elements;
    - duplicate kernel/input/parameter identifiers;
    - dangling image references (read by a kernel, produced by nothing);
    - dependence cycles (reported with the kernel path);
    - global (reduction) kernels consumed downstream — their 1x1 output
      is not header-compatible with the iteration space (Section II-B.2);
    - stencil windows larger than the iteration space (mask-size sanity);
    - kernel parameters without defaults.

    [kfusec check] and [Driver.run_result] run {!pipeline} before any
    fusion work. *)

module Diag := Kfuse_util.Diag

(** A pipeline description before construction — the fields
    {!Pipeline.create} takes. *)
type input = {
  name : string;
  width : int;
  height : int;
  channels : int;
  inputs : string list;
  params : (string * float) list;
  kernels : Kernel.t list;
}

val of_pipeline : Pipeline.t -> input

val check : input -> Diag.t list
(** All diagnostics for the description, in deterministic order (space,
    then naming, then references, then cycles, then header/mask sanity).
    An empty kernel list yields a [Warning]-severity [Empty_pipeline]
    diagnostic; everything else is [Error]. *)

val errors : input -> Diag.t list
(** [check] restricted to [Error] severity. *)

val pipeline : Pipeline.t -> Diag.t list
(** [check] over an already-built pipeline.  By construction this is
    normally empty — it exists to catch internal corruption and to give
    [kfusec check] one entry point for both DSL files and built-ins. *)

val result : Pipeline.t -> (Pipeline.t, Diag.t) result
(** [Ok p] when {!pipeline} reports no errors, else [Error] with the
    first one. *)

val build : input -> (Pipeline.t, Diag.t) result
(** Validate a raw description and, when clean, construct the pipeline
    via {!Pipeline.create}.  Never raises on malformed input: a
    violation {!check} missed but [create] caught comes back as an
    [Internal_error] diagnostic. *)
