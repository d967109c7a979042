(* The traced in-process replay: the seeded inputs of all four workloads,
   run through each layer's public functions inside this process with a
   span around every call.  Every traced run replays all four sections,
   so every per-layer metric is measured whichever workload is traced;
   the traced workload's own section gets half of the replay time. *)

module F = Kfuse_fusion
module Ir = Kfuse_ir
module Diag = Kfuse_util.Diag
module Rng = Kfuse_util.Rng
module Pool = Kfuse_util.Pool
module Deadline = Kfuse_util.Deadline
module Native = Kfuse_exec.Native
module Supervisor = Kfuse_exec.Supervisor
module Image = Kfuse_image.Image
module Fingerprint = Kfuse_cache.Fingerprint
module Plan_cache = Kfuse_cache.Plan_cache
module Session = Kfuse_stream.Session
module Frames = Kfuse_stream.Frames
module Lz = Kfuse_lazy

type ctx = {
  loops : Loops.ctx;
  dir : string;  (** this run's plan cache and fresh compiles *)
  native_dir : string;  (** artifact cache shared by the runs of a checkout *)
  pool : Pool.t;  (** the daemon's domain count *)
  fresh_compiles : int;  (** apps compiled into an empty directory for exec.cc_ms *)
}

(* Counts taken where the work happens, for the ratio metrics. *)
type counts = {
  mutable c_bytes : float list;
  mutable artifact_lookups : int;
  mutable artifact_hits : int;
  mutable kernels_in : int;  (** over the plans computed on a cache miss *)
  mutable kernels_out : int;
  mutable blocks_reused : int;
  mutable blocks : int;
  mutable edges_reused : int;
  mutable edges : int;
  mutable fell_back : int;
}

let counts () =
  {
    c_bytes = [];
    artifact_lookups = 0;
    artifact_hits = 0;
    kernels_in = 0;
    kernels_out = 0;
    blocks_reused = 0;
    blocks = 0;
    edges_reused = 0;
    edges = 0;
    fell_back = 0;
  }

let config = F.Config.default
let now = Unix.gettimeofday

let expect what = function
  | Ok v -> v
  | Error d -> failwith (what ^ ": " ^ Diag.to_string d)

let plan ctx what p = expect what (F.Driver.run_result ~pool:ctx.pool config F.Driver.Mincut p)

(* [repeat ~seconds f] runs [f] at least once, then again until
   [seconds] have passed.  A section calls it after its own set-up, so
   the set-up does not eat the measured time. *)
let repeat ~seconds f =
  let until = now () +. seconds in
  f ();
  while now () < until do
    f ()
  done

(* ---- paper-exec: planning, codegen, compile, load, synthesis, execution ---- *)

let exec_section ctx n ~seconds =
  let side = ctx.loops.Loops.size.Inputs.side and seed = ctx.loops.Loops.seed in
  let apps =
    Array.mapi
      (fun i app ->
        let entry = Option.get (Kfuse_apps.Registry.find app) in
        let p = entry.Kfuse_apps.Registry.small ~width:side ~height:side in
        let fused = (Span.time "fusion.plan" (fun _ -> plan ctx app p)).F.Driver.fused in
        let src = Span.time "codegen.emit" (fun _ -> Native.source ~mode:Native.Subprocess fused) in
        n.c_bytes <- float_of_int (String.length src) :: n.c_bytes;
        (* Both artifacts in the shared cache, outside any span: the
           timed calls below find them there. *)
        List.iter
          (fun mode -> ignore (expect app (Native.compile ~cache_dir:ctx.native_dir ~mode fused)))
          [ Native.Subprocess; Native.Dlopen ];
        if i < ctx.fresh_compiles then
          ignore
            (Span.time "exec.cc" (fun _ ->
                 expect app
                   (Native.compile ~cache_dir:(Filename.concat ctx.dir "cc") ~mode:Native.Subprocess
                      fused)));
        (* Pinned for the whole process and never released. *)
        let pinned =
          Span.time "exec.load" (fun _ ->
              expect app (Native.prepare ~cache_dir:ctx.native_dir ~mode:Native.Dlopen fused))
        in
        n.artifact_lookups <- n.artifact_lookups + 1;
        if Native.plan_cached pinned then n.artifact_hits <- n.artifact_hits + 1;
        (app, fused, pinned))
      Inputs.apps
  in
  let rng = Rng.create (Inputs.sub seed "replay-exec") in
  let order () = Inputs.shuffle rng (Array.init (Array.length apps) Fun.id) in
  (* Each app's inputs and sandboxed outputs of the first pass, for the
     in-process runs. *)
  let first = Array.make (Array.length apps) None in
  (* Every sandboxed run comes before the first in-process one: once a
     kernel has run here, this process's OpenMP team spins between
     parallel regions and would slow the sandboxed children down. *)
  repeat ~seconds:(seconds /. 2.) (fun () ->
      Array.iter
        (fun i ->
          let app, (fused : Ir.Pipeline.t), _ = apps.(i) in
          let req = Span.fresh_req () in
          Span.time ~req "exec.request" (fun root ->
              let inputs =
                Span.time ~parent:root ~req ("image.synth." ^ app) (fun _ ->
                    let rng = Rng.create (Inputs.input_seed seed app) in
                    List.map
                      (fun name ->
                        (name, Image.random rng ~width:side ~height:side ~lo:0.0 ~hi:1.0))
                      fused.Ir.Pipeline.inputs)
              in
              let sandboxed =
                Span.time ~parent:root ~req ("exec.sandbox." ^ app) (fun _ ->
                    expect app
                      (Native.run ~mode:Native.Subprocess ~deadline:(Deadline.after_ms 30_000.)
                         ~limits:Supervisor.default_limits ~cache_dir:ctx.native_dir fused inputs))
              in
              n.artifact_lookups <- n.artifact_lookups + 1;
              if sandboxed.Native.cached then n.artifact_hits <- n.artifact_hits + 1;
              if first.(i) = None then first.(i) <- Some (inputs, sandboxed.Native.outputs)))
        (order ()));
  repeat ~seconds:(seconds /. 2.) (fun () ->
      Array.iter
        (fun i ->
          let app, _, pinned = apps.(i) in
          let inputs, outputs = Option.get first.(i) in
          let direct =
            Span.time ~req:(Span.fresh_req ()) ("exec.kernel." ^ app) (fun _ ->
                expect app (Native.run_plan pinned inputs))
          in
          Loops.check ctx.loops
            (List.for_all2 (fun (_, a) (_, b) -> Image.equal a b) outputs direct.Native.outputs)
            (app ^ ": sandboxed and in-process outputs differ"))
        (order ()))

(* ---- motion-stream: open, then frames through the pinned plan ---- *)

let stream_section ctx ~seconds =
  let side = ctx.loops.Loops.size.Inputs.stream_side in
  let entry = Option.get (Kfuse_apps.Registry.find "motion") in
  let p = entry.Kfuse_apps.Registry.small ~width:side ~height:side in
  let load fused = Native.prepare ~cache_dir:ctx.native_dir ~mode:Native.Dlopen fused in
  ignore (expect "motion" (load (plan ctx "motion" p).F.Driver.fused));
  let streams =
    Array.init Inputs.streams (fun i ->
        Span.time "stream.open" (fun root ->
            let r = Span.time ~parent:root "fusion.plan" (fun _ -> plan ctx "motion" p) in
            let fused = r.F.Driver.fused in
            let session = expect "motion" (Session.create fused) in
            let pinned =
              Span.time ~parent:root "exec.load" (fun _ -> expect "motion" (load fused))
            in
            (Inputs.stream_seed ctx.loops.Loops.seed i, session, pinned)))
  in
  let k = ref 0 in
  repeat ~seconds (fun () ->
      let seed, session, pinned = streams.(!k mod Inputs.streams) in
      incr k;
      let req = Span.fresh_req () in
      Span.time ~req "stream.push" (fun root ->
          let frame =
            Span.time ~parent:root ~req "stream.frame" (fun _ ->
                Frames.synthetic ~seed ~width:side ~height:side ~index:(Session.frames session))
          in
          let bindings =
            Span.time ~parent:root ~req "stream.bindings" (fun _ -> Session.bindings session frame)
          in
          ignore
            (Span.time ~parent:root ~req "stream.kernel" (fun _ ->
                 expect "motion"
                   (Native.run_plan ~params:(Session.params session) pinned bindings)));
          Span.time ~parent:root ~req "stream.advance" (fun _ -> Session.advance session frame)))

(* ---- plan-mix: parse, validate, cache, plan ---- *)

let plan_section ctx n ~seconds =
  let cache =
    (* Two shards' worth of memory tier, and a disk tier, as the fleet has. *)
    Plan_cache.create ~capacity:512 ~dir:(Filename.concat ctx.dir "plan-cache") ()
  in
  let request root_name text =
    let req = Span.fresh_req () in
    let miss =
      Span.time ~req root_name (fun root ->
          let span name f = Span.time ~parent:root ~req name (fun _ -> f ()) in
          let p =
            span "dsl.parse" (fun () ->
                expect "parse" (Kfuse_dsl.Elaborate.parse_pipeline_diag text))
          in
          let p = span "ir.validate" (fun () -> expect "validate" (Ir.Validate.result p)) in
          let key =
            span "cache.key" (fun () ->
                Fingerprint.plan_key ~config ~strategy:F.Driver.Mincut ~optimize:false
                  ~inline:false p)
          in
          match span "cache.find" (fun () -> Plan_cache.find cache key) with
          | Some _ -> None
          | None ->
            let r = span "fusion.plan" (fun () -> plan ctx "plan" p) in
            Plan_cache.store cache key r;
            Some (p, r))
    in
    (* A miss is planned a second time, one stage at a time, outside the
       request: the stages of Driver.run cannot be timed from outside
       it. *)
    Option.iter
      (fun (p, (r : F.Driver.report)) ->
        n.kernels_in <- n.kernels_in + Ir.Pipeline.num_kernels p;
        n.kernels_out <- n.kernels_out + Ir.Pipeline.num_kernels r.F.Driver.fused;
        Span.time "fusion.stages" (fun root ->
            let edges =
              Span.time ~parent:root "fusion.benefit" (fun _ ->
                  F.Benefit.all_edges ~pool:ctx.pool config p)
            in
            let m =
              Span.time ~parent:root "fusion.mincut" (fun _ ->
                  F.Mincut_fusion.run ~pool:ctx.pool ~edges config p)
            in
            ignore
              (Span.time ~parent:root "fusion.transform" (fun _ ->
                   F.Transform.apply p m.F.Mincut_fusion.partition))))
      miss
  in
  let pool = Lazy.force ctx.loops.Loops.pool in
  Array.iter (fun (d : Inputs.dag) -> request "plan.warmup" d.text) pool;
  let gens = Array.init 2 (Inputs.draws ctx.loops.Loops.size ctx.loops.Loops.seed pool) in
  let k = ref 0 in
  repeat ~seconds (fun () ->
      let (d : Inputs.draw) = gens.(!k mod 2) () in
      incr k;
      request "plan.request" d.text)

(* ---- lazy-edit: edit, flush, and the audit a flush performs ---- *)

let lazy_section ctx n ~seconds =
  let size = ctx.loops.Loops.size and seed = ctx.loops.Loops.seed in
  let lp =
    Span.time "lazy.open" (fun _ ->
        let src = Inputs.lazy_source size seed in
        let p = expect "lazy" (Kfuse_dsl.Elaborate.parse_pipeline_diag src) in
        Lz.Lazy_pipeline.of_pipeline config (expect "lazy" (Ir.Validate.result p)))
  in
  ignore (expect "lazy" (Lz.Lazy_pipeline.flush ~pool:ctx.pool lp));
  let edits = Inputs.edits size seed and ops = ref 0 in
  repeat ~seconds (fun () ->
      let _, command = edits () in
      let req = Span.fresh_req () in
      let (pl : Lz.Replan.plan) =
        Span.time ~req "lazy.op" (fun root ->
            Span.time ~parent:root ~req "lazy.edit" (fun _ ->
                ignore
                  (expect command
                     (Result.bind (Lz.Command.parse lp command) (Lz.Command.apply lp))));
            Span.time ~parent:root ~req "lazy.flush" (fun _ ->
                expect "flush" (Lz.Lazy_pipeline.flush ~pool:ctx.pool lp)))
      in
      incr ops;
      let s = pl.Lz.Replan.stats in
      n.blocks_reused <- n.blocks_reused + s.Lz.Replan.blocks_reused;
      n.blocks <- n.blocks + s.Lz.Replan.blocks_reused + s.Lz.Replan.blocks_replanned;
      n.edges_reused <- n.edges_reused + s.Lz.Replan.edges_reused;
      n.edges <- n.edges + s.Lz.Replan.edges_reused + s.Lz.Replan.edges_rescored;
      if s.Lz.Replan.fell_back then n.fell_back <- n.fell_back + 1;
      if !ops mod 4 = 0 then begin
        let scratch =
          Span.time "lazy.scratch" (fun _ ->
              expect "flush scratch" (Lz.Lazy_pipeline.flush_scratch ~pool:ctx.pool lp))
        in
        Loops.check ctx.loops
          (scratch.Lz.Replan.fingerprint = pl.Lz.Replan.fingerprint)
          "replay: incremental plan differs from scratch"
      end;
      (* The audit a flush runs after the memoized recursion, repeated on
         its result to time each step. *)
      Span.time "lazy.audit" (fun root ->
          ignore
            (Span.time ~parent:root "lazy.validate" (fun _ ->
                 Ir.Validate.result pl.Lz.Replan.pipeline));
          ignore
            (Span.time ~parent:root "lazy.seam_check" (fun _ ->
                 F.Legality.check_partition config pl.Lz.Replan.pipeline pl.Lz.Replan.partition));
          ignore
            (Span.time ~parent:root "lazy.fingerprint" (fun _ ->
                 (Fingerprint.exact pl.Lz.Replan.pipeline, Fingerprint.exact pl.Lz.Replan.fused)))))

(* [run ctx ~workload ~seconds] replays every section: [workload]'s own
   for half of [seconds], each other for a sixth. *)
let run ctx ~workload ~seconds =
  let n = counts () in
  let sections =
    [
      ("paper-exec", fun seconds -> exec_section ctx n ~seconds);
      ("motion-stream", fun seconds -> stream_section ctx ~seconds);
      ("plan-mix", fun seconds -> plan_section ctx n ~seconds);
      ("lazy-edit", fun seconds -> lazy_section ctx n ~seconds);
    ]
  in
  List.iter
    (fun (name, section) ->
      let share = if name = workload then 0.5 else 1. /. 6. in
      Loops.attempt ctx.loops.Loops.acct;
      try section (seconds *. share)
      with e -> Loops.fail ctx.loops.Loops.acct ("replay " ^ name ^ ": " ^ Printexc.to_string e))
    sections;
  n
