module Diag = Kfuse_util.Diag
module Jsonx = Kfuse_util.Jsonx
module Stats = Kfuse_util.Stats
module Image = Kfuse_image.Image
module Pipeline = Kfuse_ir.Pipeline
module Eval = Kfuse_ir.Eval
module Driver = Kfuse_fusion.Driver
module Config = Kfuse_fusion.Config
module Registry = Kfuse_apps.Registry

type app_report = {
  app : string;
  width : int;
  height : int;
  channels : int;
  kernels_unfused : int;
  kernels_fused : int;
  compile_ms_unfused : float;
  compile_ms_fused : float;
  exec_ms_unfused : float;
  exec_ms_fused : float;
  exec_iqr_ms_unfused : float;
  exec_iqr_ms_fused : float;
  samples_unfused : float list;
  samples_fused : float list;
  interp_ms : float;
  diff_unfused : float;
  diff_fused : float;
  exact_unfused : bool;
  exact_fused : bool;
}

type t = {
  cc : string;
  openmp : bool;
  target : string;
  mode : Native.mode;
  runs : int;
  host_cores : int;
  generated_at : float;
  apps : app_report list;
}

let ( let* ) = Result.bind
let speedup r = r.exec_ms_unfused /. r.exec_ms_fused

let max_diff t =
  List.fold_left (fun acc r -> Float.max acc (Float.max r.diff_unfused r.diff_fused)) 0.0
    t.apps

let exact t = List.for_all (fun r -> r.exact_unfused && r.exact_fused) t.apps

(* Every variant sees the same pixels: one deterministic generator per
   app, seeded by a fixed constant, consumed input-by-input. *)
let inputs_for (p : Pipeline.t) =
  let rng = Kfuse_util.Rng.create 42 in
  List.map
    (fun n ->
      ( n,
        Image.random rng ~width:p.Pipeline.width ~height:p.Pipeline.height ~lo:0.0
          ~hi:1.0 ))
    p.Pipeline.inputs

let median_iqr samples =
  let s = Stats.summarize (Array.of_list samples) in
  (s.Stats.median, s.Stats.p75 -. s.Stats.p25)

let bench_app ~mode ~cache_dir ~runs ~size (entry : Registry.entry) =
  let p =
    match size with
    | Some (width, height) -> entry.Registry.small ~width ~height
    | None -> entry.Registry.pipeline ()
  in
  let inputs = inputs_for p in
  let* base = Driver.run_result Config.default Driver.Baseline p in
  let* mincut = Driver.run_result ~optimize:true Config.default Driver.Mincut p in
  let unfused = base.Driver.fused and fused = mincut.Driver.fused in
  let* run_unfused = Native.run ~mode ?cache_dir ~repeat:runs unfused inputs in
  let* run_fused = Native.run ~mode ?cache_dir ~repeat:runs fused inputs in
  let t0 = Unix.gettimeofday () in
  let reference = Eval.run_outputs p (Eval.env_of_list inputs) in
  let interp_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let exec_ms_unfused, exec_iqr_ms_unfused = median_iqr run_unfused.Native.samples_ms in
  let exec_ms_fused, exec_iqr_ms_fused = median_iqr run_fused.Native.samples_ms in
  let unfused_v = Image.verdict ~reference run_unfused.Native.outputs in
  let fused_v = Image.verdict ~reference run_fused.Native.outputs in
  Ok
    {
      app = entry.Registry.name;
      width = p.Pipeline.width;
      height = p.Pipeline.height;
      channels = p.Pipeline.channels;
      kernels_unfused = Pipeline.num_kernels unfused;
      kernels_fused = Pipeline.num_kernels fused;
      compile_ms_unfused = run_unfused.Native.compile_ms;
      compile_ms_fused = run_fused.Native.compile_ms;
      exec_ms_unfused;
      exec_ms_fused;
      exec_iqr_ms_unfused;
      exec_iqr_ms_fused;
      samples_unfused = run_unfused.Native.samples_ms;
      samples_fused = run_fused.Native.samples_ms;
      interp_ms;
      diff_unfused = unfused_v.Image.max_abs_diff;
      diff_fused = fused_v.Image.max_abs_diff;
      exact_unfused = Image.bit_exact unfused_v;
      exact_fused = Image.bit_exact fused_v;
    }

let at_least_one code what = function
  | Some n when n < 1 -> Error (Diag.errorf code "%s must be >= 1, got %d" what n)
  | _ -> Ok ()

let select = function
  | None -> Ok Registry.all
  | Some names ->
    List.fold_left
      (fun acc n ->
        let* l = acc in
        let* e = Registry.lookup n in
        Ok (l @ [ e ]))
      (Ok []) names

(* Arguments are checked before the toolchain is probed, so a bad
   command line fails the same way on a host without a C compiler. *)
let run ?(mode = Native.Dlopen) ?cache_dir ?(runs = 5) ?width ?height ?apps () =
  let* () = at_least_one Diag.Config_invalid "runs" (Some runs) in
  let* () = at_least_one Diag.Empty_iteration_space "width" width in
  let* () = at_least_one Diag.Empty_iteration_space "height" height in
  let* entries = select apps in
  let size =
    match (width, height) with
    | None, None -> None
    | w, h ->
      let w = Option.value w ~default:(Option.value h ~default:0) in
      let h = Option.value h ~default:w in
      Some (w, h)
  in
  let* tc = Toolchain.find () in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest ->
      let* r = bench_app ~mode ~cache_dir ~runs ~size e in
      go (r :: acc) rest
  in
  let* apps = go [] entries in
  Ok
    {
      cc = tc.Toolchain.cc;
      openmp = tc.Toolchain.openmp;
      target = (match tc.Toolchain.target with Some g -> g.Toolchain.isa | None -> "default");
      mode;
      runs;
      host_cores = Domain.recommended_domain_count ();
      generated_at = Unix.time ();
      apps;
    }

(* {1 JSON rendering} — floats keep 6 significant digits; a non-finite
   one is written null. *)

let num f = Jsonx.Num (float_of_string (Printf.sprintf "%.6g" f))
let int n = Jsonx.Num (float_of_int n)

let app_to_json r =
  Jsonx.Obj
    [
      ("app", Jsonx.Str r.app);
      ("width", int r.width);
      ("height", int r.height);
      ("channels", int r.channels);
      ("kernels_unfused", int r.kernels_unfused);
      ("kernels_fused", int r.kernels_fused);
      ("compile_ms_unfused", num r.compile_ms_unfused);
      ("compile_ms_fused", num r.compile_ms_fused);
      ("exec_ms_unfused", num r.exec_ms_unfused);
      ("exec_ms_fused", num r.exec_ms_fused);
      ("exec_iqr_ms_unfused", num r.exec_iqr_ms_unfused);
      ("exec_iqr_ms_fused", num r.exec_iqr_ms_fused);
      ("samples_ms_unfused", Jsonx.Arr (List.map num r.samples_unfused));
      ("samples_ms_fused", Jsonx.Arr (List.map num r.samples_fused));
      ("speedup", num (speedup r));
      ("interp_ms", num r.interp_ms);
      ("bit_exact_unfused", Jsonx.Bool r.exact_unfused);
      ("bit_exact_fused", Jsonx.Bool r.exact_fused);
      ("max_abs_diff_unfused", num r.diff_unfused);
      ("max_abs_diff_fused", num r.diff_fused);
    ]

let to_json t =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("schema", Jsonx.Str "kfuse-bench-native/v2");
         ("generated_at_unix", Jsonx.Num t.generated_at);
         ( "toolchain",
           Jsonx.Obj
             [
               ("cc", Jsonx.Str t.cc);
               ("openmp", Jsonx.Bool t.openmp);
               ("target", Jsonx.Str t.target);
             ] );
         ("mode", Jsonx.Str (Native.mode_to_string t.mode));
         ("runs", int t.runs);
         ("host_cores", int t.host_cores);
         ("apps", Jsonx.Arr (List.map app_to_json t.apps));
       ])
  ^ "\n"

let pp_summary ppf t =
  Format.fprintf ppf
    "native bench: %s%s, target %s, %d core%s, median (IQR) of %d run%s per variant@," t.cc
    (if t.openmp then " (openmp)" else " (no openmp)")
    t.target
    t.host_cores
    (if t.host_cores = 1 then "" else "s")
    t.runs
    (if t.runs = 1 then "" else "s");
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  %-10s %4dx%-4d  %2d -> %-2d kernels  unfused %8.2f (%.2f) ms  fused %8.2f \
         (%.2f) ms  speedup %.2fx  max-abs-diff %.2e%s@,"
        r.app r.width r.height r.kernels_unfused r.kernels_fused r.exec_ms_unfused
        r.exec_iqr_ms_unfused r.exec_ms_fused r.exec_iqr_ms_fused (speedup r)
        (Float.max r.diff_unfused r.diff_fused)
        (if r.exact_unfused && r.exact_fused then "" else "  NOT BIT-EXACT"))
    t.apps
