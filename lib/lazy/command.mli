(** The lazy-pipeline command grammar — one textual surface shared by
    the [kfusec repl] frontend and the [kfused] [lazy_edit] wire op, so
    a repl session against a live daemon is a byte-for-byte pass-through
    of the same commands it would run locally.

    Grammar (one command per line, [#] starts a comment):
    {v
    add <name> = <expr>              append a kernel (full DSL expression syntax)
    del <name>                       delete an unconsumed kernel
    retarget <kernel> <from> <to>    rewrite <kernel>'s reads of <from> to <to>
    param <name> <value>             add or update a scalar parameter default
    input <name>                     declare an external input image
    flush [scratch]                  (re)plan; 'scratch' bypasses the memos
    plan | show | help | quit
    v}

    [add] expressions are elaborated against the builder's current
    state: every readable image and declared parameter is in scope, and
    the full DSL expression grammar (arithmetic, [conv] with named
    masks, shifted reads, [let], reductions) applies. *)

type t =
  | Edit of Edits.edit
  | Add_input of string
  | Flush of { scratch : bool }
  | Plan
  | Show
  | Help
  | Quit

val help : string
(** The grammar summary printed by the [help] command. *)

val control : string -> t option
(** [Some c] when the line is a control command ([Flush], [Plan],
    [Show], [Help] or [Quit]), recognised without a builder; [None] for
    anything else, including edits and malformed lines. *)

val parse : Lazy_pipeline.t -> string -> (t, Kfuse_util.Diag.t) result
(** Parse one command line in the context of [lp] (an [add] expression
    is elaborated against its images and params — but {b not} applied).
    Parse failures are [Parse_error], elaboration failures
    [Elab_error]/[Duplicate_name]/... diags. *)

val parse_edit : Lazy_pipeline.t -> string -> (t, Kfuse_util.Diag.t) result
(** {!parse} for a line {!control} did not recognise: an [Edit] or an
    [Add_input], or the error naming what is wrong with the line. *)

val apply : Lazy_pipeline.t -> t -> (string, Kfuse_util.Diag.t) result
(** Apply an edit-like command ([Edit]/[Add_input]) to the builder,
    returning a one-line description of what was applied.  Control
    commands ([Flush]/[Plan]/[Show]/[Help]/[Quit]) are rejected with a
    [Protocol_error] — they are the caller's to interpret. *)

val label : t -> string
