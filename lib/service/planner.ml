module Diag = Kfuse_util.Diag
module Config = Kfuse_fusion.Config
module Lazy_pipeline = Kfuse_lazy.Lazy_pipeline

let pipeline ?size (app, source) =
  Result.bind
    (match (app, source, size) with
    | Some name, _, _ ->
      Result.map
        (fun (e : Kfuse_apps.Registry.entry) ->
          match size with None -> e.pipeline () | Some (width, height) -> e.small ~width ~height)
        (Kfuse_apps.Registry.lookup name)
    | None, Some src, None -> Kfuse_dsl.Elaborate.parse_pipeline_diag src
    | None, Some _, Some _ ->
      Error
        (Diag.v Diag.Protocol_error
           "width/height overrides apply to registry apps only, not DSL source")
    | None, None, _ -> Error (Diag.v Diag.Protocol_error "fuse without app or source"))
    Kfuse_ir.Validate.result

let config ~c_mshared ~gamma ~tg =
  let d = Config.default in
  {
    d with
    Config.c_mshared = Option.value ~default:d.Config.c_mshared c_mshared;
    gamma = Option.value ~default:d.Config.gamma gamma;
    tg = Option.value ~default:d.Config.tg tg;
  }

let plan_key (f : Protocol.fuse_request) =
  Kfuse_cache.Fingerprint.plan_key
    ~config:(config ~c_mshared:f.c_mshared ~gamma:f.gamma ~tg:f.tg)
    ~strategy:f.strategy ~optimize:f.optimize ~inline:f.inline

let plan ~pool ~deadline (f : Protocol.fuse_request) cached pipeline =
  let plan_ms = ref 0.0 in
  let compute () =
    Result.bind (Lazy.force pipeline) (fun p ->
        let t0 = Unix.gettimeofday () in
        let r =
          (* Capped as the search starts: a request that spent its time
             queueing or waiting degrades (or fails) at once. *)
          Kfuse_fusion.Driver.run_result ~optimize:f.optimize ~inline:f.inline ~strict:f.strict
            ~pool ?budget_ms:(Kfuse_util.Deadline.cap deadline f.budget_ms)
            (config ~c_mshared:f.c_mshared ~gamma:f.gamma ~tg:f.tg)
            f.strategy p
        in
        plan_ms := (Unix.gettimeofday () -. t0) *. 1000.;
        r)
  in
  match cached with
  | None -> Result.map (fun r -> (r, None, !plan_ms)) (compute ())
  | Some (cache, key) ->
    Result.map
      (fun (r, outcome) -> (r, Some outcome, !plan_ms))
      (Kfuse_cache.Plan_cache.find_or_compute cache key compute)

let lazy_builder (o : Protocol.lazy_open_request) =
  let config = config ~c_mshared:o.c_mshared ~gamma:o.gamma ~tg:o.tg in
  let seeded size = Result.map (Lazy_pipeline.of_pipeline config) (pipeline ?size (o.app, o.source)) in
  Result.bind (Config.validate_result config) @@ fun () ->
  match (o.app, o.source, o.width, o.height) with
  | None, None, w, h ->
    let extent = Option.value ~default:0 in
    Lazy_pipeline.create ~channels:(Option.value ~default:1 o.channels) ~inputs:o.inputs
      ~width:(extent w) ~height:(extent h) config
  | _, _, Some w, Some h -> seeded (Some (w, h))
  | _ -> seeded None
