(** Request metrics for the [kfused] server.

    Per-operation counters and latency reservoirs
    ({!Kfuse_util.Stats.reservoir}, p50/p90/p95/p99), plus free-form
    named counters (accepted/dropped connections, protocol errors).
    Thread-safe: one mutex, held only for O(1) updates and snapshot
    copies. *)

type t

val create : unit -> t

(** [observe t ~op ~ok ms] records one completed request of kind [op]
    with the given wall-clock latency in milliseconds. *)
val observe : t -> op:string -> ok:bool -> float -> unit

(** [incr t name] bumps the named counter. *)
val incr : t -> string -> unit

(** [counter t name] reads a named counter (0 if never bumped). *)
val counter : t -> string -> int

(** [touch t name] makes the counter visible (at 0) in {!render} before
    its first event, so dashboards can tell "never happened" from "not
    instrumented". *)
val touch : t -> string -> unit

(** {2 Gauges} — instantaneous values (e.g. [connections_active]),
    rendered without the [_total] suffix. *)

val adjust_gauge : t -> string -> int -> unit
val incr_gauge : t -> string -> unit
val decr_gauge : t -> string -> unit
val gauge : t -> string -> int

(** [ops t] lists the observed operation kinds (sorted). *)
val ops : t -> string list

(** [latency t op] is the latency snapshot for [op], if any request of
    that kind completed. *)
val latency : t -> string -> Kfuse_util.Stats.quantiles option

(** [requests t op] is [(total, errors)] for [op]. *)
val requests : t -> string -> int * int

(** [render ?cache t ~key_memo ~uptime_s] is a Prometheus-style text
    exposition: [kfused_*] counters and gauges, per-op latency
    quantiles, the plan-cache stats (when the process has a [cache]) and
    the {!Key_memo} stats. *)
val render :
  ?cache:Kfuse_cache.Plan_cache.stats ->
  t ->
  key_memo:Key_memo.stats ->
  uptime_s:float ->
  string
