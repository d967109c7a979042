(** The [kfused] wire protocol: length-prefixed JSON over a Unix-domain
    socket.

    Framing: each message is a 4-byte big-endian payload length followed
    by that many bytes of UTF-8 JSON.  Both directions use the same
    framing; a connection carries any number of request/response pairs,
    in order.  Frames above {!max_frame} are rejected as
    {!Kfuse_util.Diag.Protocol_error} (a defense against garbage
    writers, not a protocol limit).

    Requests are objects with an ["op"] field:
    - [{"op":"fuse", ...}] — plan a pipeline.  Either ["app"] (a
      registry name) or ["source"] (DSL text).  Optional: ["strategy"],
      ["c_mshared"], ["gamma"], ["tg"], ["optimize"], ["inline"],
      ["strict"], ["budget_ms"], ["no_cache"].
    - [{"op":"fuse_exec", ...}] — plan, then compile and execute the
      fused pipeline natively on server-synthesized inputs.  All
      ["fuse"] fields, plus optional ["exec_mode"] ("auto", "dlopen" or
      "subprocess"), ["width"]/["height"] (override the extent; apps
      only), ["seed"] (input synthesis, default 42), ["repeat"] (timing
      samples, default 1), ["verify"] (compare against the reference
      interpreter and report ["max_abs_diff"]), ["return_pixels"]
      (inline each output's pixel rows — small extents only, the reply
      must fit {!max_frame}).  Under the server's default sandbox
      policy the requested ["exec_mode"] is overridden by the
      supervised subprocess path (the reply's ["exec"] object says
      ["sandboxed"]: true); an execution that times out, crashes, or
      hits a resource limit is a typed [KF0905]/[KF0906]/[KF0907]
      error, and a quarantined plan answers with
      ["exec"."mode" = "interpreter"] and ["quarantined"]: true.
    - [{"op":"stream_open", ...}] — open a per-stream session: plan the
      pipeline once (through the plan cache), compile and pin the native
      artifact once, and allocate the stream's temporal frame window
      (see {!Kfuse_ir.Temporal}).  All ["fuse"] fields, plus optional
      ["exec_mode"], ["width"]/["height"] and ["seed"] (synthetic frame
      stream, default 42) as in [fuse_exec].  Replies with the session
      ["id"], the temporal ["depth"] and the plan/compile facts.  When
      the server is at [--max-streams] the open is shed with [KF0803].
    - [{"op":"stream_push", "id":...}] — run the next synthetic frame of
      session ["id"] against the pinned plan and the session's temporal
      state.  Optional ["verify"] and ["return_pixels"] as in
      [fuse_exec].  Replies with the frame ["seq"] and an ["exec"]
      object; when the session's bounded frame queue is full the push is
      shed with [KF0805] ({e before} touching temporal state — a shed
      frame never advances the stream), and an unknown/expired id is
      [KF0806].  A crashed execution quarantines the plan ([KF09xx]
      breaker) and the frame falls back to the interpreter against the
      same bindings, so the stream's pixel history stays bit-exact.
    - [{"op":"stream_close", "id":...}] — release the session (plan
      handle, temporal window); replies with the total ["frames"].
      Sessions idle longer than [--stream-idle-ms] are reaped lazily.
    - [{"op":"lazy_open", ...}] — open a lazy-pipeline editing session
      (see {!Kfuse_lazy.Lazy_pipeline}): either seed it from ["app"] /
      ["source"] (like [fuse]), or start an empty builder with
      ["width"]/["height"] (optional ["channels"] and ["inputs"], an
      array of input-image names).  Optional ["c_mshared"], ["gamma"],
      ["tg"] configure the session's fusion model.  Replies with the
      session ["id"].  [--max-streams] bounds lazy sessions separately
      from streams: at most that many of each kind are open, and a
      [lazy_open] beyond it is shed with [KF0803].  Lazy sessions
      idle-expire like streams, but never while an edit or flush runs.
    - [{"op":"lazy_edit", "id":..., "command":...}] — apply one edit
      command (the [kfusec repl] grammar: [add <name> = <expr>],
      [del <name>], [retarget <kernel> <from> <to>],
      [param <name> <value>], [input <name>]) to the session's builder.
      A rejected edit (parse error, dangling reference, cycle, ...)
      returns its diagnostic and leaves the builder unchanged.
    - [{"op":"lazy_flush", "id":...}] — build and (re)plan the session's
      current pipeline through its incremental replanning memos
      ({!Kfuse_lazy.Replan}); with ["scratch"]: true, plan from scratch
      instead (the differential reference — does not touch the memos).
      Replies with the partition, objective, plan ["fingerprint"] and a
      ["replan"] object (blocks/edges reused vs recomputed,
      ["fell_back"], wall-clock ["replan_ms"]).
    - [{"op":"lazy_close", "id":...}] — release the session; replies
      with the session's total ["flushes"].
    - [{"op":"stats"}] — cache + latency counters as JSON.
    - [{"op":"metrics"}] — Prometheus-style text exposition (in the
      ["text"] field of the response).
    - [{"op":"ping"}] — liveness.
    - [{"op":"shutdown"}] — orderly server stop.

    Responses carry ["status"]: ["ok"] or ["error"] (with ["code"] —
    a stable [KFxxxx] id — and ["message"]). *)

module Diag := Kfuse_util.Diag

(** Maximum frame payload (16 MiB), enforced on both sides: {!recv}
    rejects oversized incoming frames, and {!send} refuses to emit one
    (raising {!Kfuse_util.Diag.Fatal} with [KF0801]) rather than ship a
    frame the peer would reject mid-stream. *)
val max_frame : int

(** {1 Framing} *)

(** [send ?deadline fd v] writes one frame.  [EINTR] is always retried;
    when the socket has an [SO_SNDTIMEO] armed, a blocked write retries
    while [deadline] (default {!Kfuse_util.Deadline.none}) allows and
    otherwise surfaces the timeout.
    @raise Unix.Unix_error on I/O failure (the peer vanished, or a
    socket-level send timeout with no [deadline] to extend it).
    @raise Kfuse_util.Deadline.Expired when [deadline] passes mid-write.
    @raise Kfuse_util.Diag.Fatal when the encoded frame would exceed
    {!max_frame}; nothing is written. *)
val send : ?deadline:Kfuse_util.Deadline.t -> Unix.file_descr -> Jsonx.t -> unit

(** [send_torn fd v] deliberately writes a truncated frame — a full
    header announcing the payload length, then only half the payload —
    for the protocol chaos harness (the torn-frame fault of {!Listener}).
    The peer must surface a typed mid-frame error, never hang. *)
val send_torn : Unix.file_descr -> Jsonx.t -> unit

(** [recv fd] reads one frame; [Ok None] on clean EOF at a frame
    boundary; [Error] on oversized/truncated frames or invalid JSON.
    When the socket has an [SO_RCVTIMEO] armed, an elapsed timeout is a
    {!Kfuse_util.Diag.Request_timeout} ([KF0804]) error. *)
val recv : Unix.file_descr -> (Jsonx.t option, Diag.t) result

(** {1 Requests} *)

type fuse_request = {
  app : string option;  (** registry name; mutually exclusive with [source] *)
  source : string option;  (** DSL text *)
  strategy : Kfuse_fusion.Driver.strategy;
  c_mshared : float option;
  gamma : float option;
  tg : float option;
  optimize : bool;
  inline : bool;
  strict : bool;
      (** fail fast with a typed error reply instead of degrading to the
          baseline partition when the search overruns its budget *)
  budget_ms : float option;
  no_cache : bool;  (** compute fresh, bypassing the plan cache *)
}

type fuse_exec_request = {
  fuse : fuse_request;  (** planning options; [no_cache] bypasses the
                            plan cache only — compiled artifacts stay
                            content-addressed *)
  exec_mode : Kfuse_exec.Native.mode option;
      (** [None] = try {!Kfuse_exec.Native.Dlopen}, fall back to
          {!Kfuse_exec.Native.Subprocess} *)
  width : int option;  (** extent override, apps only; paired with [height] *)
  height : int option;
  seed : int;  (** deterministic input synthesis *)
  repeat : int;  (** timing samples per execution *)
  verify : bool;  (** also run the interpreter, report [max_abs_diff] *)
  return_pixels : bool;  (** inline output pixels in the reply *)
}

type stream_open_request = {
  fuse : fuse_request;
  exec_mode : Kfuse_exec.Native.mode option;
      (** [None] = try {!Kfuse_exec.Native.Dlopen}, fall back to
          {!Kfuse_exec.Native.Subprocess} *)
  width : int option;  (** extent override, apps only; paired with [height] *)
  height : int option;
  seed : int;  (** synthetic frame stream seed *)
}

type stream_push_request = {
  id : string;  (** session id from the [stream_open] reply *)
  verify : bool;  (** also run the interpreter, report [max_abs_diff] *)
  return_pixels : bool;  (** inline output pixels in the reply *)
}

type lazy_open_request = {
  app : string option;  (** seed pipeline; mutually exclusive with [source] *)
  source : string option;  (** DSL text seed *)
  width : int option;  (** app-seed size override, or empty-builder extent *)
  height : int option;
  channels : int option;  (** empty-builder channels (default 1) *)
  inputs : string list;  (** empty-builder input-image declarations *)
  c_mshared : float option;
  gamma : float option;
  tg : float option;
}

type lazy_edit_request = {
  id : string;  (** session id from the [lazy_open] reply *)
  command : string;  (** one line of the repl edit grammar *)
}

type lazy_flush_request = {
  id : string;  (** session id from the [lazy_open] reply *)
  scratch : bool;  (** plan from scratch, bypassing the session memos *)
}

type request =
  | Fuse of fuse_request
  | Fuse_exec of fuse_exec_request
  | Stream_open of stream_open_request
  | Stream_push of stream_push_request
  | Stream_close of string  (** session id *)
  | Lazy_open of lazy_open_request
  | Lazy_edit of lazy_edit_request
  | Lazy_flush of lazy_flush_request
  | Lazy_close of string  (** session id *)
  | Stats
  | Metrics
  | Ping
  | Shutdown

val request_to_json : request -> Jsonx.t

(** [op_name r] is [r]'s wire ["op"], e.g. ["stream_push"]; the servers
    key their per-op metrics by it. *)
val op_name : request -> string

(** [request_of_json v] validates shape and field types; unknown ops and
    malformed fields are {!Kfuse_util.Diag.Protocol_error}s. *)
val request_of_json : Jsonx.t -> (request, Diag.t) result

(** {1 Responses} *)

(** [ok fields] is [{"status":"ok", ...fields}]. *)
val ok : (string * Jsonx.t) list -> Jsonx.t

(** [error d] renders a diagnostic as an error response. *)
val error : Diag.t -> Jsonx.t

(** [result v] splits a response on its ["status"] field.  An error
    response's ["code"] is folded back into the typed diagnostic code
    (unknown codes degrade to {!Kfuse_util.Diag.Service_error}), so
    clients can dispatch — e.g. retry [KF0803] — without string
    matching. *)
val result : Jsonx.t -> (Jsonx.t, Diag.t) result
