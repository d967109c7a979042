(** From a request to a plan, one function per step.  [kfusec],
    [kfused], the shard router and lazy sessions all take these steps,
    so a request names the same pipeline, plans under the same model
    and lands under the same plan key however it arrives. *)

module Diag := Kfuse_util.Diag

(** [pipeline ?size (app, source)] is the validated pipeline of registry
    app [app] (at extent [size] when given), else of DSL [source].  An
    unknown app is {!Kfuse_apps.Registry.lookup}'s error; [size] with
    [source], or neither [app] nor [source], is a [Protocol_error]. *)
val pipeline :
  ?size:int * int -> string option * string option -> (Kfuse_ir.Pipeline.t, Diag.t) result

(** [config ~c_mshared ~gamma ~tg] is {!Kfuse_fusion.Config.default}
    under the given overrides. *)
val config :
  c_mshared:float option -> gamma:float option -> tg:float option -> Kfuse_fusion.Config.t

(** [plan_key f p] is the plan key of [p] under request [f]'s model,
    strategy and flags. *)
val plan_key : Protocol.fuse_request -> Kfuse_ir.Pipeline.t -> Kfuse_cache.Fingerprint.key

(** [plan ~pool ~deadline f cached pipeline] runs {!Kfuse_fusion.Driver}
    on [pipeline] as [f] asks, its search budget capped by what remains
    of [deadline] when the search starts: through
    {!Kfuse_cache.Plan_cache.find_or_compute} when [cached] is
    [Some (cache, key)], else afresh.  [pipeline] is forced only to
    compute.  Returns the report, the cache's outcome ([None] without
    one) and the ms spent computing (0 when served). *)
val plan :
  pool:Kfuse_util.Pool.t ->
  deadline:Kfuse_util.Deadline.t ->
  Protocol.fuse_request ->
  (Kfuse_cache.Plan_cache.t * Kfuse_cache.Fingerprint.key) option ->
  (Kfuse_ir.Pipeline.t, Diag.t) result Lazy.t ->
  (Kfuse_fusion.Driver.report * Kfuse_cache.Plan_cache.outcome option * float, Diag.t) result

(** [lazy_builder o] is the builder a [lazy_open] starts under [o]'s
    validated model: seeded through {!pipeline} (at [o]'s extent when
    it gives both), or empty through {!Kfuse_lazy.Lazy_pipeline.create}. *)
val lazy_builder : Protocol.lazy_open_request -> (Kfuse_lazy.Lazy_pipeline.t, Diag.t) result
