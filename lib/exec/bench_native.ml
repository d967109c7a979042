module Diag = Kfuse_util.Diag
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

(* Interpreter-vs-native: worst absolute difference over all outputs,
   matched by name.  A missing name is an infinite difference — it can
   only mean fusion renamed a sink, which the exactness gate must not
   silently pass. *)
let diff_against reference outputs =
  List.fold_left
    (fun acc (name, img) ->
      match List.assoc_opt name reference with
      | None -> Float.infinity
      | Some ref_img ->
        if Image.width ref_img <> Image.width img then Float.infinity
        else Float.max acc (Image.max_abs_diff ref_img img))
    0.0 outputs

(* The gate: every output, matched by name, bit for bit. *)
let exact_against reference outputs =
  List.length reference = List.length outputs
  && List.for_all
       (fun (name, img) ->
         match List.assoc_opt name reference with
         | None -> false
         | Some ref_img -> Image.equal ref_img img)
       outputs

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
      diff_unfused = diff_against reference run_unfused.Native.outputs;
      diff_fused = diff_against reference run_fused.Native.outputs;
      exact_unfused = exact_against reference run_unfused.Native.outputs;
      exact_fused = exact_against reference run_fused.Native.outputs;
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
        match Registry.find n with
        | None ->
          Error
            (Diag.errorf Diag.Io_error "unknown application %s (known: %s)" n
               (String.concat ", " Registry.names))
        | Some e -> Ok (l @ [ e ]))
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
      mode;
      runs;
      host_cores = Domain.recommended_domain_count ();
      generated_at = Unix.time ();
      apps;
    }

(* {1 JSON rendering} — flat enough that hand-rolled emission beats a
   dependency; floats render as %.6g (finite) or null. *)

let jf f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
let jlist fs = "[" ^ String.concat ", " (List.map jf fs) ^ "]"

let app_to_json r =
  String.concat ",\n      "
    [
      Printf.sprintf "\"app\": %S" r.app;
      Printf.sprintf "\"width\": %d" r.width;
      Printf.sprintf "\"height\": %d" r.height;
      Printf.sprintf "\"channels\": %d" r.channels;
      Printf.sprintf "\"kernels_unfused\": %d" r.kernels_unfused;
      Printf.sprintf "\"kernels_fused\": %d" r.kernels_fused;
      Printf.sprintf "\"compile_ms_unfused\": %s" (jf r.compile_ms_unfused);
      Printf.sprintf "\"compile_ms_fused\": %s" (jf r.compile_ms_fused);
      Printf.sprintf "\"exec_ms_unfused\": %s" (jf r.exec_ms_unfused);
      Printf.sprintf "\"exec_ms_fused\": %s" (jf r.exec_ms_fused);
      Printf.sprintf "\"exec_iqr_ms_unfused\": %s" (jf r.exec_iqr_ms_unfused);
      Printf.sprintf "\"exec_iqr_ms_fused\": %s" (jf r.exec_iqr_ms_fused);
      Printf.sprintf "\"samples_ms_unfused\": %s" (jlist r.samples_unfused);
      Printf.sprintf "\"samples_ms_fused\": %s" (jlist r.samples_fused);
      Printf.sprintf "\"speedup\": %s" (jf (speedup r));
      Printf.sprintf "\"interp_ms\": %s" (jf r.interp_ms);
      Printf.sprintf "\"bit_exact_unfused\": %b" r.exact_unfused;
      Printf.sprintf "\"bit_exact_fused\": %b" r.exact_fused;
      Printf.sprintf "\"max_abs_diff_unfused\": %s" (jf r.diff_unfused);
      Printf.sprintf "\"max_abs_diff_fused\": %s" (jf r.diff_fused);
    ]

let to_json t =
  let apps = List.map (fun r -> "    {\n      " ^ app_to_json r ^ "\n    }") t.apps in
  String.concat "\n"
    [
      "{";
      "  \"schema\": \"kfuse-bench-native/v2\",";
      Printf.sprintf "  \"generated_at_unix\": %.0f," t.generated_at;
      Printf.sprintf "  \"toolchain\": { \"cc\": %S, \"openmp\": %b }," t.cc t.openmp;
      Printf.sprintf "  \"mode\": %S," (Native.mode_to_string t.mode);
      Printf.sprintf "  \"runs\": %d," t.runs;
      Printf.sprintf "  \"host_cores\": %d," t.host_cores;
      "  \"apps\": [";
      String.concat ",\n" apps;
      "  ]";
      "}";
      "";
    ]

let pp_summary ppf t =
  Format.fprintf ppf "native bench: %s%s, %d core%s, median (IQR) of %d run%s per variant@,"
    t.cc
    (if t.openmp then " (openmp)" else " (no openmp)")
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
