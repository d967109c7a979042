module Iset = Kfuse_util.Iset
module Pool = Kfuse_util.Pool
module Rng = Kfuse_util.Rng
module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Validate = Kfuse_ir.Validate
module Eval = Kfuse_ir.Eval
module Simplify = Kfuse_ir.Simplify
module Cse = Kfuse_ir.Cse
module Image = Kfuse_image.Image
module Partition = Kfuse_graph.Partition
module Config = Kfuse_fusion.Config
module Legality = Kfuse_fusion.Legality
module Basic_fusion = Kfuse_fusion.Basic_fusion
module Greedy_fusion = Kfuse_fusion.Greedy_fusion
module Mincut_fusion = Kfuse_fusion.Mincut_fusion
module Exhaustive_fusion = Kfuse_fusion.Exhaustive_fusion
module Transform = Kfuse_fusion.Transform
module Driver = Kfuse_fusion.Driver
module Fingerprint = Kfuse_cache.Fingerprint
module Plan_cache = Kfuse_cache.Plan_cache
module Native = Kfuse_exec.Native
module Toolchain = Kfuse_exec.Toolchain
module Session = Kfuse_stream.Session
module Frames = Kfuse_stream.Frames

type name =
  | Validate_ok
  | Legality
  | Beta_optimal
  | Eval_exact
  | Pool_determinism
  | Cache_replay
  | Meta_rename
  | Meta_permute_inputs
  | Meta_duplicate
  | Unparse_roundtrip
  | Incremental_replan
  | Native_exec
  | Stream_exec

(* Native_exec and Stream_exec shell out to the C compiler on every
   case — orders of magnitude slower than the rest of the bank — so
   they are opt-in: absent from [all], run only when [which] names them
   explicitly. *)
let all =
  [
    Validate_ok;
    Legality;
    Beta_optimal;
    Eval_exact;
    Pool_determinism;
    Cache_replay;
    Meta_rename;
    Meta_permute_inputs;
    Meta_duplicate;
    Unparse_roundtrip;
    Incremental_replan;
  ]

let name_to_string = function
  | Validate_ok -> "validate"
  | Legality -> "legality"
  | Beta_optimal -> "beta-optimal"
  | Eval_exact -> "eval-exact"
  | Pool_determinism -> "pool-determinism"
  | Cache_replay -> "cache-replay"
  | Meta_rename -> "meta-rename"
  | Meta_permute_inputs -> "meta-permute-inputs"
  | Meta_duplicate -> "meta-duplicate"
  | Unparse_roundtrip -> "unparse-roundtrip"
  | Incremental_replan -> "incremental-replan"
  | Native_exec -> "native-exec"
  | Stream_exec -> "stream-exec"

let name_of_string s =
  List.find_opt (fun n -> name_to_string n = s) (Native_exec :: Stream_exec :: all)

type failure = { oracle : name; detail : string }
type optimality = Optimal | Gap of float | Not_checked
type report = { failure : failure option; optimality : optimality }

let beta_tol = 1e-6

(* Strategy entry points, called directly — not through the driver,
   whose graceful degradation (invalid partition -> baseline fallback)
   would repair exactly the bugs the bank exists to expose. *)
let strategies : (string * (Config.t -> Pipeline.t -> Partition.t)) list =
  [
    ("basic", Basic_fusion.partition);
    ("greedy", Greedy_fusion.partition);
    ("mincut", fun config p -> (Mincut_fusion.run config p).Mincut_fusion.partition);
  ]

let pp_partition part = Format.asprintf "%a" Partition.pp part

(* ---- individual oracles (never raise; Error detail on failure) ---- *)

let validate_ok p =
  match Validate.pipeline p with
  | [] -> Ok ()
  | diags ->
    Error
      (Printf.sprintf "generator emitted an invalid pipeline: %s"
         (String.concat "; " (List.map Kfuse_util.Diag.to_string diags)))

let legality config p =
  let dag = Pipeline.dag p in
  List.fold_left
    (fun acc (sname, strat) ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match strat config p with
        | exception e ->
          Error (Printf.sprintf "strategy %s raised: %s" sname (Printexc.to_string e))
        | part -> (
          match Partition.validate dag part with
          | Error inv ->
            Error
              (Printf.sprintf "strategy %s: invalid partition %s: %s" sname
                 (pp_partition part)
                 (Partition.invalid_to_string inv))
          | Ok () -> (
            match Legality.check_partition config p part with
            | Error diag ->
              Error
                (Printf.sprintf "strategy %s: illegal partition %s: %s" sname
                   (pp_partition part) (Kfuse_util.Diag.to_string diag))
            | Ok () -> Ok ()))))
    (Ok ()) strategies

let beta_optimal ~strict ~max_exhaustive config p =
  if Pipeline.num_kernels p > max_exhaustive then Ok Not_checked
  else
    match
      let opt = Exhaustive_fusion.optimal_objective config p in
      let mc = (Mincut_fusion.run config p).Mincut_fusion.objective in
      (opt, mc)
    with
    | exception e -> Error (Printf.sprintf "beta comparison raised: %s" (Printexc.to_string e))
    | opt, mc ->
      if mc > opt +. beta_tol then
        Error
          (Printf.sprintf
             "min-cut objective %.9g exceeds the exhaustive optimum %.9g — the \
              'optimum' missed a partition or the min-cut result is illegal"
             mc opt)
      else if mc < opt -. beta_tol then
        if strict then
          Error
            (Printf.sprintf "heuristic gap: min-cut beta %.9g < optimum %.9g (gap %.9g)" mc
               opt (opt -. mc))
        else Ok (Gap (opt -. mc))
      else Ok Optimal

(* Deterministic per-pipeline input images: seeded from the exact
   fingerprint, so a corpus replay sees the very pixels the original
   campaign saw. *)
let eval_inputs p =
  let fp = Fingerprint.exact p in
  let seed = String.fold_left (fun a c -> (a * 131) + Char.code c) 7 fp in
  let rng = Rng.create seed in
  List.map
    (fun img ->
      ( img,
        Image.random rng ~width:p.Pipeline.width ~height:p.Pipeline.height ~lo:0.0
          ~hi:1.0 ))
    p.Pipeline.inputs

let eval_env p = Eval.env_of_list (eval_inputs p)

let compare_outputs ~what ref_out out =
  let names l = List.sort String.compare (List.map fst l) in
  match (Image.verdict ~reference:ref_out out).Image.differing with
  | [] -> Ok ()
  | _ when names ref_out <> names out ->
    Error
      (Printf.sprintf "%s: output set changed: [%s] vs [%s]" what
         (String.concat ", " (List.map fst ref_out))
         (String.concat ", " (List.map fst out)))
  | (name, diff) :: _ ->
    Error (Printf.sprintf "%s: output %s differs in its bits (max |diff| = %.17g)" what name diff)

(* The summaries [sums] against those of the reference images, every
   field bit for bit. *)
let compare_summaries ~what ref_out sums =
  let bits (s : Native.summary) =
    Native.(s.width, s.height, Int64.bits_of_float s.min, Int64.bits_of_float s.max,
            Int64.bits_of_float s.sum)
  in
  let want = List.map (fun (n, img) -> (n, Native.summarize img)) ref_out in
  if List.map fst want <> List.map fst sums then
    Error
      (Printf.sprintf "%s: output set changed: [%s] vs [%s]" what
         (String.concat ", " (List.map fst want))
         (String.concat ", " (List.map fst sums)))
  else
    match List.find_opt (fun ((_, a), (_, b)) -> bits a <> bits b) (List.combine want sums) with
    | None -> Ok ()
    | Some ((name, a), (_, b)) ->
      Error
        (Printf.sprintf "%s: summary of %s differs: min/max/sum %.17g/%.17g/%.17g, want %.17g/%.17g/%.17g"
           what name b.Native.min b.Native.max b.Native.sum a.Native.min a.Native.max a.Native.sum)

let eval_exact config p =
  match
    let env = eval_env p in
    let ref_out = Eval.run_outputs p env in
    List.fold_left
      (fun acc (sname, strat) ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          let part = strat config p in
          let fused = Transform.apply ~exchange:true p part in
          let optimized = Cse.pipeline (Simplify.pipeline fused) in
          let check what q = compare_outputs ~what ref_out (Eval.run_outputs q env) in
          Result.bind
            (check (Printf.sprintf "%s fused" sname) fused)
            (fun () -> check (Printf.sprintf "%s fused+optimized" sname) optimized))
      (Ok ()) strategies
  with
  | exception e -> Error (Printf.sprintf "eval raised: %s" (Printexc.to_string e))
  | r -> r

let step_sig (s : Mincut_fusion.step) =
  match s with
  | Mincut_fusion.Accept b -> ("accept", Iset.to_sorted_list b, [])
  | Mincut_fusion.Cut { block; side_a; side_b; _ } ->
    ("cut", Iset.to_sorted_list block, [ Iset.to_sorted_list side_a; Iset.to_sorted_list side_b ])

let pool_determinism ~pool config p =
  match pool with
  | None -> Ok ()
  | Some pool -> (
    match
      let serial = Mincut_fusion.run config p in
      let pooled = Mincut_fusion.run ~pool config p in
      (serial, pooled)
    with
    | exception e -> Error (Printf.sprintf "pooled run raised: %s" (Printexc.to_string e))
    | serial, pooled ->
      if not (Partition.equal serial.Mincut_fusion.partition pooled.Mincut_fusion.partition)
      then
        Error
          (Printf.sprintf "serial/pooled partitions differ: %s vs %s"
             (pp_partition serial.Mincut_fusion.partition)
             (pp_partition pooled.Mincut_fusion.partition))
      else if
        not (Float.equal serial.Mincut_fusion.objective pooled.Mincut_fusion.objective)
      then
        Error
          (Printf.sprintf "serial/pooled objectives differ bitwise: %.17g vs %.17g"
             serial.Mincut_fusion.objective pooled.Mincut_fusion.objective)
      else if
        List.map step_sig serial.Mincut_fusion.steps
        <> List.map step_sig pooled.Mincut_fusion.steps
      then Error "serial/pooled recursion traces differ"
      else if
        not
          (List.for_all2
             (fun (a : Kfuse_fusion.Benefit.edge_report) (b : Kfuse_fusion.Benefit.edge_report) ->
               a.src = b.src && a.dst = b.dst && Float.equal a.weight b.weight)
             serial.Mincut_fusion.edges pooled.Mincut_fusion.edges)
      then Error "serial/pooled edge weights differ bitwise"
      else Ok ())

let same_report ~what (r1 : Driver.report) (r2 : Driver.report) =
  if not (Partition.equal r1.partition r2.partition) then
    Error (Printf.sprintf "%s: replayed partition differs" what)
  else if not (Float.equal r1.objective r2.objective) then
    Error (Printf.sprintf "%s: replayed objective differs bitwise" what)
  else if Fingerprint.exact r1.fused <> Fingerprint.exact r2.fused then
    Error (Printf.sprintf "%s: replayed fused pipeline differs" what)
  else if List.length r1.edges <> List.length r2.edges then
    Error (Printf.sprintf "%s: replayed edge set differs" what)
  else Ok ()

(* Fresh names that collide with nothing already in the pipeline's
   namespace (kernels, inputs, params share it). *)
let namespace p =
  List.map (fun (k : Kernel.t) -> k.Kernel.name) (Array.to_list p.Pipeline.kernels)
  @ p.Pipeline.inputs
  @ List.map fst p.Pipeline.params

let fresh_name taken base =
  let rec go c =
    let n = if c = 0 then base else Printf.sprintf "%s%d" base c in
    if List.mem n taken then go (c + 1) else n
  in
  go 0

let rebuild_kernel (k : Kernel.t) ~name ~ren =
  match k.Kernel.op with
  | Kernel.Map e ->
    Kernel.map ~name ~inputs:(List.map ren k.Kernel.inputs) (Expr.rename_images ren e)
  | Kernel.Reduce { init; combine; arg } ->
    Kernel.reduce ~name ~inputs:(List.map ren k.Kernel.inputs) ~init ~combine
      (Expr.rename_images ren arg)

(* [p] with every kernel given a fresh name: the same structure under
   another naming. *)
let renamed_copy p =
  let taken = ref (namespace p) in
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i (k : Kernel.t) ->
      let n = fresh_name !taken (Printf.sprintf "rn%d" i) in
      taken := n :: !taken;
      Hashtbl.replace tbl k.Kernel.name n)
    p.Pipeline.kernels;
  let ren img = Option.value ~default:img (Hashtbl.find_opt tbl img) in
  let kernels =
    List.map
      (fun (k : Kernel.t) -> rebuild_kernel k ~name:(ren k.Kernel.name) ~ren)
      (Array.to_list p.Pipeline.kernels)
  in
  Pipeline.create ~name:p.Pipeline.name ~width:p.Pipeline.width ~height:p.Pipeline.height
    ~channels:p.Pipeline.channels ~params:p.Pipeline.params ~inputs:p.Pipeline.inputs kernels

(* The memory tier serves [p] and a renamed sibling, each its own
   report; the disk tier, which keeps the naming stored last, serves
   [p]. *)
let cache_replay ~cache_dir config p =
  match
    let run q =
      let r = Driver.run config Driver.Mincut q in
      if r.Driver.degraded then
        Error
          (Printf.sprintf "driver degraded on a valid pipeline: %s"
             (String.concat "; " (List.map Kfuse_util.Diag.to_string r.Driver.warnings)))
      else Ok r
    in
    let sibling = renamed_copy p in
    Result.bind (run p) @@ fun r1 ->
    Result.bind (run sibling) @@ fun s1 ->
    let key = Fingerprint.plan_key ~config ~strategy:Driver.Mincut p in
    let skey = Fingerprint.plan_key ~config ~strategy:Driver.Mincut sibling in
    let cache = Plan_cache.create ~capacity:4 ?dir:cache_dir () in
    Plan_cache.store cache skey s1;
    Plan_cache.store cache key r1;
    let served ~what key r =
      match Plan_cache.find cache key with
      | None -> Error (Printf.sprintf "%s: memory tier lost a just-stored plan" what)
      | Some (r2, _) -> same_report ~what r r2
    in
    Result.bind (served ~what:"memory" key r1) @@ fun () ->
    Result.bind (served ~what:"memory, renamed sibling" skey s1) @@ fun () ->
    match cache_dir with
    | None -> Ok ()
    | Some _ -> (
      Plan_cache.clear cache;
      match Plan_cache.find cache key with
      | Some (r3, Plan_cache.Hit_disk) -> same_report ~what:"disk" r1 r3
      | Some (_, o) ->
        Error
          (Printf.sprintf "disk replay came back as %s" (Plan_cache.outcome_to_string o))
      | None -> Error "disk tier missed a just-stored plan")
  with
  | exception e -> Error (Printf.sprintf "cache replay raised: %s" (Printexc.to_string e))
  | r -> r

let mincut_sig config p =
  let r = Mincut_fusion.run config p in
  (r.Mincut_fusion.objective, r.Mincut_fusion.partition)

let meta_rename config p =
  match
    let renamed = renamed_copy p in
    if Fingerprint.structural renamed <> Fingerprint.structural p then
      Error "kernel renaming changed the structural fingerprint"
    else begin
      let b1, part1 = mincut_sig config p in
      let b2, part2 = mincut_sig config renamed in
      if not (Float.equal b1 b2) then
        Error (Printf.sprintf "kernel renaming changed beta: %.17g vs %.17g" b1 b2)
      else if not (Partition.equal part1 part2) then
        Error "kernel renaming changed the min-cut partition"
      else Ok ()
    end
  with
  | exception e -> Error (Printf.sprintf "rename oracle raised: %s" (Printexc.to_string e))
  | r -> r

let meta_permute_inputs config p =
  if List.length p.Pipeline.inputs < 2 then Ok ()
  else
    match
      let permuted =
        Pipeline.create ~name:p.Pipeline.name ~width:p.Pipeline.width
          ~height:p.Pipeline.height ~channels:p.Pipeline.channels
          ~params:p.Pipeline.params
          ~inputs:(List.rev p.Pipeline.inputs)
          (Array.to_list p.Pipeline.kernels)
      in
      if Fingerprint.structural permuted <> Fingerprint.structural p then
        Error "input-declaration permutation changed the structural fingerprint"
      else begin
        let b1, part1 = mincut_sig config p in
        let b2, part2 = mincut_sig config permuted in
        if not (Float.equal b1 b2) then
          Error (Printf.sprintf "input permutation changed beta: %.17g vs %.17g" b1 b2)
        else if not (Partition.equal part1 part2) then
          Error "input permutation changed the min-cut partition"
        else Ok ()
      end
    with
    | exception e ->
      Error (Printf.sprintf "permute oracle raised: %s" (Printexc.to_string e))
    | r -> r

let meta_duplicate config p =
  ignore config;
  match
    (* Part A: duplicate a fanned-out kernel, retarget one consumer to
       the twin; Cse.dedup_kernels must restore the pipeline exactly. *)
    let fanned =
      List.find_opt
        (fun i ->
          Iset.cardinal (Pipeline.consumers p i) >= 2
          && not (Kernel.is_global (Pipeline.kernel p i)))
        (List.init (Pipeline.num_kernels p) Fun.id)
    in
    let part_a =
      match fanned with
      | None -> Ok ()
      | Some i ->
        let orig = Pipeline.kernel p i in
        let twin_name = fresh_name (namespace p) (orig.Kernel.name ^ "_tw") in
        let retarget = Iset.max_elt (Pipeline.consumers p i) in
        let ren_to_twin img = if img = orig.Kernel.name then twin_name else img in
        let kernels =
          List.concat
            (List.mapi
               (fun j (k : Kernel.t) ->
                 if j = i then [ k; rebuild_kernel k ~name:twin_name ~ren:Fun.id ]
                 else if j = retarget then
                   [ rebuild_kernel k ~name:k.Kernel.name ~ren:ren_to_twin ]
                 else [ k ])
               (Array.to_list p.Pipeline.kernels))
        in
        let dup =
          Pipeline.create ~name:p.Pipeline.name ~width:p.Pipeline.width
            ~height:p.Pipeline.height ~channels:p.Pipeline.channels
            ~params:p.Pipeline.params ~inputs:p.Pipeline.inputs kernels
        in
        let deduped = Cse.dedup_kernels dup in
        (* Compare against the deduplicated *baseline*: the generator can
           emit byte-identical twins of its own (two convs of the same
           input), which dedup legitimately merges alongside the one we
           injected. *)
        let baseline = Cse.dedup_kernels p in
        if Fingerprint.exact deduped <> Fingerprint.exact baseline then
          Error
            (Printf.sprintf
               "duplicating %s and deduplicating did not restore the pipeline \
                (kernels: %d -> %d -> %d, baseline %d)"
               orig.Kernel.name (Pipeline.num_kernels p) (Pipeline.num_kernels dup)
               (Pipeline.num_kernels deduped) (Pipeline.num_kernels baseline))
        else Ok ()
    in
    (* Part B: an equal-branch select around a kernel body is folded by
       normalization, so the structural fingerprint must not move. *)
    let part_b =
      match
        List.find_opt
          (fun (k : Kernel.t) -> not (Kernel.is_global k))
          (Array.to_list p.Pipeline.kernels)
      with
      | None -> Ok ()
      | Some k ->
        let body = Kernel.body k in
        let wrapped_body =
          Expr.select Expr.Lt (Expr.const 0.0) (Expr.const 1.0) body body
        in
        let kernels =
          List.map
            (fun (k' : Kernel.t) ->
              if k'.Kernel.name = k.Kernel.name then
                Kernel.map ~name:k'.Kernel.name ~inputs:k'.Kernel.inputs wrapped_body
              else k')
            (Array.to_list p.Pipeline.kernels)
        in
        let wrapped = Pipeline.with_kernels p kernels in
        if Fingerprint.structural wrapped <> Fingerprint.structural p then
          Error
            (Printf.sprintf
               "equal-branch select around %s changed the structural fingerprint"
               k.Kernel.name)
        else Ok ()
    in
    Result.bind part_a (fun () -> part_b)
  with
  | exception e -> Error (Printf.sprintf "duplicate oracle raised: %s" (Printexc.to_string e))
  | r -> r

(* Lazy-frontend differential: seed a Lazy_pipeline from the generated
   case, apply a deterministic edit sequence (seeded by the case's own
   exact fingerprint) in bursts, and demand every incremental flush —
   planned through the session's cross-flush memo — be bit-identical to
   planning the same state from scratch.  The seam-check fallback
   firing is itself a failure: it means a memo replay disagreed with
   the legality re-check. *)
let incremental_replan config p =
  match
    let seed =
      String.fold_left
        (fun acc c -> ((acc * 33) + Char.code c) land 0x3FFFFFFF)
        5381 (Fingerprint.exact p)
    in
    let rng = Kfuse_util.Rng.create seed in
    let lp = Kfuse_lazy.Lazy_pipeline.of_pipeline config p in
    let flush_both ~round edits =
      let show d = Kfuse_util.Diag.to_string d in
      match Kfuse_lazy.Lazy_pipeline.flush lp with
      | Error d -> Error (Printf.sprintf "round %d: incremental flush: %s" round (show d))
      | Ok inc -> (
        match Kfuse_lazy.Lazy_pipeline.flush_scratch lp with
        | Error d -> Error (Printf.sprintf "round %d: scratch flush: %s" round (show d))
        | Ok scr ->
          if inc.Kfuse_lazy.Replan.stats.Kfuse_lazy.Replan.fell_back then
            Error
              (Printf.sprintf "round %d: seam re-check rejected the memoized plan (%s)"
                 round edits)
          else if not (String.equal inc.Kfuse_lazy.Replan.fingerprint scr.Kfuse_lazy.Replan.fingerprint)
          then
            Error
              (Printf.sprintf
                 "round %d: incremental /= scratch after [%s]: %s vs %s (partitions %s vs %s)"
                 round edits
                 inc.Kfuse_lazy.Replan.fingerprint scr.Kfuse_lazy.Replan.fingerprint
                 (pp_partition inc.Kfuse_lazy.Replan.partition)
                 (pp_partition scr.Kfuse_lazy.Replan.partition))
          else Ok ())
    in
    let rec rounds i acc =
      match acc with
      | Error _ -> acc
      | Ok () ->
        if i > 3 then acc
        else (
          let edits = Kfuse_lazy.Edits.random_sequence rng lp 3 in
          let shown = String.concat "; " (List.map Kfuse_lazy.Edits.to_string edits) in
          rounds (i + 1) (flush_both ~round:i shown))
    in
    rounds 1 (flush_both ~round:0 "<none>")
  with
  | exception e ->
    Error (Printf.sprintf "incremental-replan oracle raised: %s" (Printexc.to_string e))
  | r -> r

(* Interpreter-vs-native differential: plan through the production
   driver, compile the fused result with the host C toolchain, execute
   it on the same deterministic pixels {!eval_exact} sees, and demand
   bit-exact agreement with the interpreter on the original pipeline —
   double-precision buffers and marshalling (ABI v2) make exactness the
   right bar, not a tolerance.  Both the unfused baseline and the
   min-cut plan run: every intermediate, and so every user name, reaches
   the generated C only where fusion keeps it apart.  Skips cleanly (Ok)
   when the host has no C compiler, so campaigns stay green on
   toolchain-less machines. *)
let native_exec ~cache_dir config p =
  match Toolchain.find () with
  | Error _ -> Ok ()
  | Ok _ -> (
    match
      let inputs = eval_inputs p in
      let ref_out = Eval.run_outputs p (Eval.env_of_list inputs) in
      let native_dir = Option.map (fun d -> Filename.concat d "native") cache_dir in
      let check strategy =
        let s = Driver.strategy_to_string strategy in
        let r = Driver.run config strategy p in
        match Native.run ?cache_dir:native_dir r.Driver.fused inputs with
        | Error d ->
          Error
            (Printf.sprintf "%s: native execution failed: %s" s (Kfuse_util.Diag.to_string d))
        | Ok res ->
          compare_outputs ~what:(s ^ " native vs interpreter") ref_out res.Native.outputs
      in
      Result.bind (check Driver.Baseline) (fun () -> check Driver.Mincut)
    with
    | exception e -> Error (Printf.sprintf "native oracle raised: %s" (Printexc.to_string e))
    | r -> r)

(* Multi-frame streaming differential: window the same pipeline two
   ways — the interpreter via {!Session.push} on freshly allocated
   frames, and the natively compiled fused plan pinned {e once}
   ({!Native.prepare}) and run per frame on frames drawn into its
   session's ring ({!Session.draw}) — and demand bitwise agreement on
   every frame of a short synthetic sequence, both of the pixels and of
   the plan's {!Native.Summaries}.  The summaries run first, into the
   plan's own output buffers, which still hold the previous frame's
   pixels: an output pixel the kernels leave unwritten shows there.
   The state carried between frames (the sliding input window) is part
   of the oracle: a lag clamped wrong at cold start, a window advanced
   twice, a ring slot drawn over while the window still binds it, or a
   pinned artifact gone stale would break frame k > 0 even when frame
   0 agrees.  Skips cleanly on non-streamable pipelines (zero or
   several current inputs) and on toolchain-less hosts. *)
let stream_frames = 6

let stream_exec ~cache_dir config p =
  match Toolchain.find () with
  | Error _ -> Ok ()
  | Ok _ -> (
    match Session.create p with
    | Error _ -> Ok () (* not streamable: no single current-frame input *)
    | Ok ref_session -> (
      match
        let r = Driver.run config Driver.Mincut p in
        match Session.create r.Driver.fused with
        | Error d ->
          Error
            (Printf.sprintf "fusion broke streamability: %s"
               (Kfuse_util.Diag.to_string d))
        | Ok native_session -> (
          let native_dir = Option.map (fun d -> Filename.concat d "native") cache_dir in
          match Native.prepare ?cache_dir:native_dir r.Driver.fused with
          | Error d ->
            Error
              (Printf.sprintf "pinning the stream plan failed: %s"
                 (Kfuse_util.Diag.to_string d))
          | Ok plan ->
            Fun.protect ~finally:(fun () -> Native.release plan) @@ fun () ->
            let fp = Fingerprint.exact p in
            let seed = String.fold_left (fun a c -> (a * 131) + Char.code c) 11 fp in
            let rec frames i =
              if i >= stream_frames then Ok ()
              else
                let frame =
                  Frames.synthetic ~seed ~width:p.Pipeline.width
                    ~height:p.Pipeline.height ~index:i
                in
                let ref_out = Session.push ref_session frame in
                let drawn = Session.draw native_session ~seed in
                let bindings = Session.bindings native_session drawn in
                let run what output check =
                  match Native.execute_plan plan (Native.Images bindings) output with
                  | Error d ->
                    Error
                      (Printf.sprintf "frame %d: native execution (%s) failed: %s" i what
                         (Kfuse_util.Diag.to_string d))
                  | Ok res ->
                    check
                      ~what:(Printf.sprintf "frame %d native %s vs interpreter" i what)
                      ref_out res.Native.outputs
                in
                let ( let* ) = Result.bind in
                let* () = run "summaries" Native.Summaries compare_summaries in
                let* () = run "pixels" Native.Pixels compare_outputs in
                Session.advance native_session drawn;
                frames (i + 1)
            in
            frames 0)
      with
      | exception e ->
        Error (Printf.sprintf "stream oracle raised: %s" (Printexc.to_string e))
      | r -> r))

let unparse_roundtrip p =
  match
    let norm = Corpus.normalize p in
    match Kfuse_dsl.Unparse.pipeline norm with
    | Error _ -> Ok ()  (* outside the DSL fragment: nothing to check *)
    | Ok text -> (
      match Kfuse_dsl.Elaborate.parse_pipeline text with
      | Error e -> Error (Printf.sprintf "unparsed pipeline fails to parse: %s" e)
      | Ok reloaded ->
        if Fingerprint.exact reloaded <> Fingerprint.exact norm then
          Error "unparse/parse round-trip is not the identity (exact fingerprints differ)"
        else Ok ())
  with
  | exception e -> Error (Printf.sprintf "round-trip oracle raised: %s" (Printexc.to_string e))
  | r -> r

(* ---- the bank ---- *)

let check ?(which = all) ?pool ?cache_dir ?(strict_optimal = false) ?(max_exhaustive = 8)
    config p =
  let optimality = ref Not_checked in
  let rec go = function
    | [] -> { failure = None; optimality = !optimality }
    | oracle :: rest -> (
      let result =
        match oracle with
        | Validate_ok -> validate_ok p
        | Legality -> legality config p
        | Beta_optimal ->
          Result.map
            (fun o ->
              optimality := o;
              ())
            (beta_optimal ~strict:strict_optimal ~max_exhaustive config p)
        | Eval_exact -> eval_exact config p
        | Pool_determinism -> pool_determinism ~pool config p
        | Cache_replay -> cache_replay ~cache_dir config p
        | Meta_rename -> meta_rename config p
        | Meta_permute_inputs -> meta_permute_inputs config p
        | Meta_duplicate -> meta_duplicate config p
        | Unparse_roundtrip -> unparse_roundtrip p
        | Incremental_replan -> incremental_replan config p
        | Native_exec -> native_exec ~cache_dir config p
        | Stream_exec -> stream_exec ~cache_dir config p
      in
      match result with
      | Ok () -> go rest
      | Error detail -> { failure = Some { oracle; detail }; optimality = !optimality })
  in
  go which
