module Diag = Kfuse_util.Diag
module Deadline = Kfuse_util.Deadline
module Image = Kfuse_image.Image
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Fingerprint = Kfuse_cache.Fingerprint
module Plan_cache = Kfuse_cache.Plan_cache
module C = Kfuse_codegen.Lower_common
module Lower_cpu = Kfuse_codegen.Lower_cpu

(* Bump when the generated wrapper or the marshalling layout changes:
   cached artifacts from an older ABI must never be loaded.  v2: the
   marshalling scalar is float64 — OCaml float arrays are already packed
   doubles, so images cross the boundary without rounding and the
   interpreter-vs-native diff reduces to the compiler's own liberties.
   v3: when kf_scalar is float64 the entry point runs on the ABI
   buffers in place instead of allocating + converting per call — the
   streaming per-frame path must not copy multi-megabyte images.
   v4: kf_scalar is always float64, so the entry point is only the
   in-place call; the never-taken converting branch is gone. *)
let abi_version = 4

type mode = Dlopen | Subprocess

let mode_to_string = function Dlopen -> "dlopen" | Subprocess -> "subprocess"

let mode_of_string = function
  | "dlopen" -> Some Dlopen
  | "subprocess" -> Some Subprocess
  | _ -> None

type run_result = {
  outputs : (string * Image.t) list;
  mode_used : mode;
  artifact : string;
  cached : bool;
  compile_ms : float;
  exec_ms : float;
  samples_ms : float list;
  warnings : Diag.t list;
}

(* {1 Loader stubs (kfuse_exec_stubs.c)} *)

external dl_open : string -> nativeint = "kfuse_dl_open"
external dl_sym : nativeint -> string -> nativeint = "kfuse_dl_sym"
external dl_close : nativeint -> unit = "kfuse_dl_close"

external dl_call : nativeint -> float array array -> float array array -> float array -> unit
  = "kfuse_dl_call"

(* {1 Small helpers} *)

let now_ms () = Unix.gettimeofday () *. 1000.

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Names unique within the process (pid + counter), so concurrent
   workers never race for a temp dir or an artifact's tmp path. *)
let unique_seq = Atomic.make 0
let unique_suffix () = Printf.sprintf "%d.%d" (Unix.getpid ()) (Atomic.fetch_and_add unique_seq 1)

let with_temp_dir f =
  (* EEXIST can only be a leftover of a killed process whose pid we
     reuse: skip to the next name. *)
  let rec make () =
    let dir = Filename.concat (Filename.get_temp_dir_name ()) ("kfuse-exec-" ^ unique_suffix ()) in
    match Unix.mkdir dir 0o700 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> make ()
  in
  let dir = make () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* {1 Source generation: generated pipeline + mode-specific wrapper} *)

let runner_args (p : Pipeline.t) ~input ~output ~param =
  List.mapi (fun i n -> input i n) p.Pipeline.inputs
  @ List.mapi (fun i n -> output i n) (Pipeline.outputs p)
  @ List.mapi (fun i (n, _) -> param i n) p.Pipeline.params

let dlopen_wrapper (p : Pipeline.t) =
  let b = Buffer.create 512 in
  let w fmt = Printf.bprintf b fmt in
  w
    "// Entry point for the kfuse loader stub: one fixed signature covers\n\
     // every pipeline shape, so a single dlsym suffices.  The pipeline\n\
     // runs on the caller's float64 buffers in place; this is the\n\
     // per-frame streaming path, so it must not allocate.\n";
  w "void kfuse_entry(const double** ins, double** outs, const double* params) {\n";
  if p.Pipeline.inputs = [] then w "  (void)ins;\n";
  if p.Pipeline.params = [] then w "  (void)params;\n";
  let args =
    runner_args p
      ~input:(fun i name -> Printf.sprintf "ins[%d] /* %s */" i name)
      ~output:(fun i name -> Printf.sprintf "outs[%d] /* %s */" i name)
      ~param:(fun i name -> Printf.sprintf "params[%d] /* %s */" i name)
  in
  w "  run_%s(%s);\n" (C.sanitize p.Pipeline.name) (String.concat ", " args);
  w "}\n";
  Buffer.contents b

let subprocess_wrapper (p : Pipeline.t) =
  let b = Buffer.create 1024 in
  let w fmt = Printf.bprintf b fmt in
  let n = C.sanitize p.Pipeline.name in
  let n_in = List.length p.Pipeline.inputs and n_out = List.length (Pipeline.outputs p) in
  let np = List.length p.Pipeline.params in
  w "#include <fcntl.h>\n#include <stdio.h>\n#include <sys/mman.h>\n";
  w "#include <sys/stat.h>\n#include <unistd.h>\n\n";
  w "// Standalone runner: argv[1] holds the packed native-endian float64\n";
  w "// inputs (in declaration order) followed by %d parameter value%s;\n" np
    (if np = 1 then "" else "s");
  w "// the outputs go to argv[2] in the same packed format.  Both files\n";
  w "// are mapped and the pipeline runs on the maps in place.\n\n";
  w "int main(int argc, char** argv) {\n";
  w "  if (argc != 3) { fprintf(stderr, \"usage: %%s IN OUT\\n\", argv[0]); return 2; }\n";
  w "  const size_t npix = (size_t)%d * %d;\n" p.Pipeline.width p.Pipeline.height;
  (* An empty input file has nothing to map (mmap rejects length 0). *)
  if n_in + np > 0 then begin
    w "  struct stat st;\n";
    w "  int in_fd = open(argv[1], O_RDONLY);\n";
    w "  if (in_fd < 0 || fstat(in_fd, &st) != 0) { perror(argv[1]); return 3; }\n";
    if n_in > 0 then
      w "  if ((size_t)st.st_size < %d * npix * sizeof(double)) { fprintf(stderr, \
         \"truncated input\\n\"); return 3; }\n"
        n_in;
    let in_bytes = Printf.sprintf "(%d * npix + %d) * sizeof(double)" n_in np in
    if np > 0 then
      w "  if ((size_t)st.st_size < %s) { fprintf(stderr, \"truncated parameters\\n\"); \
         return 3; }\n"
        in_bytes;
    w "  void* in_map = mmap(NULL, %s, PROT_READ, MAP_PRIVATE, in_fd, 0);\n" in_bytes;
    w "  if (in_map == MAP_FAILED) { perror(argv[1]); return 3; }\n";
    w "  close(in_fd);\n";
    w "  const kf_scalar* kf_in = (const kf_scalar*)in_map;\n"
  end;
  (* RLIMIT_FSIZE stops an oversized output at the ftruncate (SIGXFSZ,
     classified KF0907). *)
  w "  const size_t out_bytes = %d * npix * sizeof(double);\n" n_out;
  w "  int out_fd = open(argv[2], O_RDWR | O_CREAT | O_TRUNC, 0600);\n";
  w "  if (out_fd < 0 || ftruncate(out_fd, (off_t)out_bytes) != 0) { perror(argv[2]); \
     return 4; }\n";
  w "  void* out_map = mmap(NULL, out_bytes, PROT_READ | PROT_WRITE, MAP_SHARED, out_fd, 0);\n";
  w "  if (out_map == MAP_FAILED) { perror(argv[2]); return 4; }\n";
  w "  close(out_fd);\n";
  w "  kf_scalar* kf_out = (kf_scalar*)out_map;\n";
  let args =
    runner_args p
      ~input:(fun i name -> Printf.sprintf "kf_in + %d * npix /* %s */" i name)
      ~output:(fun i name -> Printf.sprintf "kf_out + %d * npix /* %s */" i name)
      ~param:(fun i name -> Printf.sprintf "kf_in[%d * npix + %d] /* %s */" n_in i name)
  in
  w "  run_%s(%s);\n" n (String.concat ", " args);
  w "  return 0;\n}\n";
  Buffer.contents b

let source ~mode (p : Pipeline.t) =
  (* Double precision throughout the pipeline: every operation and every
     inter-kernel store matches the float64 interpreter bit for bit.
     Both wrappers hand the pipeline float64 buffers in place, so this
     is the one place that fixes kf_scalar, and the typedef refuses to
     compile if it ever disagrees. *)
  String.concat "\n"
    [
      Lower_cpu.emit_pipeline ~prec:C.Double p;
      "// Both entry points pass float64 buffers through as kf_scalar.";
      "typedef char kf_scalar_is_f64[sizeof(kf_scalar) == sizeof(double) ? 1 : -1];";
      "";
      (match mode with Dlopen -> dlopen_wrapper p | Subprocess -> subprocess_wrapper p);
    ]

(* {1 Compile cache} *)

(* The generated source itself is folded into the key (alongside the
   pipeline fingerprint, which keeps keys distinct even if two
   pipelines ever emitted identical C): any codegen change — lowering,
   wrapper — automatically invalidates stale artifacts without
   relying on a version bump someone must remember. *)
let artifact_key ~tc ~mode ~src (p : Pipeline.t) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            Printf.sprintf "kfuse-native-abi-v%d" abi_version;
            Fingerprint.exact p;
            mode_to_string mode;
            "prec:double";
            Toolchain.id tc;
            src;
          ]))

let default_cache_dir () = Filename.concat (Plan_cache.default_dir ()) "native"

(* Process-wide count of real (cache-missing) compiler invocations.
   Streaming tests assert "exactly one compile per stream" as a delta of
   this counter across a session's lifetime. *)
let compile_count = Atomic.make 0
let compiles () = Atomic.get compile_count

(* Single-flight per artifact path: when several worker threads miss on
   the same key at once (N streams of the same pipeline opening against
   a cold cache), exactly one invokes the compiler and the rest wait for
   the publish.  Cross-process races stay benign through the per-attempt
   tmp name and the atomic rename. *)
let compile_lock = Mutex.create ()
let compile_inflight : (string, Condition.t) Hashtbl.t = Hashtbl.create 8

let single_flight ~dest build =
  Mutex.lock compile_lock;
  let rec acquire () =
    if Sys.file_exists dest then begin
      Mutex.unlock compile_lock;
      Ok (dest, 0., true)
    end
    else
      match Hashtbl.find_opt compile_inflight dest with
      | Some cond ->
        Condition.wait cond compile_lock;
        acquire ()
      | None ->
        let cond = Condition.create () in
        Hashtbl.replace compile_inflight dest cond;
        Mutex.unlock compile_lock;
        Fun.protect
          ~finally:(fun () ->
            Mutex.lock compile_lock;
            Hashtbl.remove compile_inflight dest;
            Condition.broadcast cond;
            Mutex.unlock compile_lock)
          build
  in
  acquire ()

let compile ?cache_dir ~mode (p : Pipeline.t) =
  match Toolchain.find () with
  | Error d -> Error d
  | Ok tc ->
    let dir = match cache_dir with Some d -> d | None -> default_cache_dir () in
    mkdir_p dir;
    let src = source ~mode p in
    let key = artifact_key ~tc ~mode ~src p in
    let ext = match mode with Dlopen -> ".so" | Subprocess -> ".bin" in
    let dest = Filename.concat dir ("kf-" ^ key ^ ext) in
    if Sys.file_exists dest then Ok (dest, 0., true)
    else
      single_flight ~dest @@ fun () ->
      (* The source is kept next to the artifact: a KF0903 message can
         point at a file a human can feed to the compiler by hand. *)
      let src_path = Filename.concat dir ("kf-" ^ key ^ ".c") in
      write_file src_path src;
      let attempt = unique_suffix () in
      let tmp = Printf.sprintf "%s.tmp.%s" dest attempt in
      let err_path = Printf.sprintf "%s.log.%s" dest attempt in
      let argv =
        (tc.Toolchain.cc :: Toolchain.flags tc ~shared:(mode = Dlopen))
        @ [ "-o"; tmp; src_path; "-lm" ]
      in
      (* Supervised fork/exec — no shell — with a wall cap so a wedged
         compiler cannot hang the daemon.  No rlimits: compilers
         legitimately need memory, and [fault_injection:false] keeps an
         armed [exec.*] chaos point aimed at executions, not at the
         compiler. *)
      let r =
        Supervisor.run
          ~limits:{ Supervisor.no_limits with Supervisor.wall_ms = Some 120_000. }
          ~fault_injection:false ~stderr_path:err_path ~argv ()
      in
      let log = r.Supervisor.stderr_tail in
      (try Sys.remove err_path with Sys_error _ -> ());
      match r.Supervisor.status with
      | Error f ->
        (try Sys.remove tmp with Sys_error _ -> ());
        let reason =
          match f with
          | Supervisor.Nonzero_exit { code } -> Printf.sprintf "exited with %d" code
          | Supervisor.Timeout { wall_ms; _ } ->
            Printf.sprintf "timed out after %.0f ms" wall_ms
          | Supervisor.Crashed { signal } -> "crashed with " ^ signal
          | Supervisor.Limit { what; _ } -> "exceeded " ^ what
          | Supervisor.Spawn_failed { reason } -> reason
        in
        Error
          (Diag.errorf Diag.Compile_failed "%s %s compiling generated C (%s):\n%s"
             tc.Toolchain.cc reason src_path log)
      | Ok () ->
        (* Atomic publish: concurrent builders race benignly on rename. *)
        Sys.rename tmp dest;
        Atomic.incr compile_count;
        Ok (dest, r.Supervisor.wall_ms, false)

(* {1 Marshalling} *)

(* Zero-copy marshalling: at streaming rates this path runs once per
   frame, so it must not allocate or copy megabytes per call.  Inputs
   are read-only views of the image's backing array (the C stub copies
   them into private buffers before the kernel runs); outputs transfer
   ownership of the result buffer into the image. *)
let flatten img = Image.unsafe_data img

let unflatten ~width ~height arr = Image.unsafe_of_flat ~width ~height arr

(* Mirror {!Eval.run}'s input contract so the two backends are
   interchangeable in tests and oracles. *)
let check_inputs (p : Pipeline.t) inputs =
  let names = List.map fst inputs in
  let sorted = List.sort compare names and expected = List.sort compare p.Pipeline.inputs in
  if sorted <> expected then
    invalid_arg
      (Printf.sprintf "Native.run: pipeline %s expects inputs {%s}, got {%s}"
         p.Pipeline.name
         (String.concat ", " expected)
         (String.concat ", " sorted));
  List.iter
    (fun (n, img) ->
      if Image.width img <> p.Pipeline.width || Image.height img <> p.Pipeline.height then
        invalid_arg
          (Printf.sprintf "Native.run: input %s is %dx%d, pipeline %s is %dx%d" n
             (Image.width img) (Image.height img) p.Pipeline.name p.Pipeline.width
             p.Pipeline.height))
    inputs

let param_values (p : Pipeline.t) overrides =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n p.Pipeline.params) then
        invalid_arg
          (Printf.sprintf "Native.run: pipeline %s has no parameter %s" p.Pipeline.name n))
    overrides;
  List.map
    (fun (n, default) ->
      match List.assoc_opt n overrides with Some v -> v | None -> default)
    p.Pipeline.params

(* A reduction materializes as a 1x1 image (the generated code
   broadcasts the scalar over the full buffer; cell 0 is the value). *)
let is_reduction (p : Pipeline.t) name =
  match Pipeline.producer p name with
  | None -> false
  | Some i -> (
    match (Pipeline.kernel p i).Kernel.op with
    | Kernel.Reduce _ -> true
    | Kernel.Map _ -> false)

let finish_outputs (p : Pipeline.t) out_names bufs =
  let width = p.Pipeline.width and height = p.Pipeline.height in
  List.map2
    (fun name buf ->
      let img =
        if is_reduction p name then Image.init ~width:1 ~height:1 (fun _ _ -> buf.(0))
        else unflatten ~width ~height buf
      in
      (name, img))
    out_names (Array.to_list bufs)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* {1 Execution} *)

(* The request deadline is honored between [repeat] timing samples in
   both modes, so a large [repeat] cannot blow past the service's
   [--request-timeout-ms]: the sample loop stops with KF0905 instead of
   running the full schedule. *)
let sample_deadline_diag ~artifact ~done_ ~repeat =
  Diag.errorf Diag.Exec_timeout
    "request deadline expired after %d of %d timing samples of compiled plan %s" done_ repeat
    artifact

(* A pinned dlopen handle: one dlopen + dlsym at open time, then a bare
   function call per execution.  This is what makes per-frame streaming
   cheap — sessions keep the handle alive across pushes instead of
   paying the loader per call. *)
type loaded = { handle : nativeint; entry : nativeint }

let load_artifact artifact =
  match dl_open artifact with
  | exception Failure msg ->
    Error (Diag.errorf Diag.Exec_failed "dlopen(%s): %s" artifact msg)
  | handle -> (
    match dl_sym handle "kfuse_entry" with
    | exception Failure msg ->
      dl_close handle;
      Error (Diag.errorf Diag.Exec_failed "dlsym(%s, kfuse_entry): %s" artifact msg)
    | entry -> Ok { handle; entry })

let exec_entry ~deadline ~entry ~artifact ~repeat (p : Pipeline.t) inputs pvals =
  let npix = p.Pipeline.width * p.Pipeline.height in
  let out_names = Pipeline.outputs p in
  let ins =
    Array.of_list (List.map (fun n -> flatten (List.assoc n inputs)) p.Pipeline.inputs)
  in
  let outs = Array.of_list (List.map (fun _ -> Array.make npix 0.) out_names) in
  let pars = Array.of_list pvals in
  let samples = ref [] in
  let expired = ref false in
  for i = 1 to repeat do
    if not !expired then
      if i > 1 && Deadline.expired deadline then expired := true
      else begin
        let t0 = now_ms () in
        dl_call entry ins outs pars;
        samples := (now_ms () -. t0) :: !samples
      end
  done;
  if !expired then
    Error (sample_deadline_diag ~artifact ~done_:(List.length !samples) ~repeat)
  else Ok (finish_outputs p out_names outs, List.rev !samples)

(* The runner's files are packed native-endian float64.  Only the child
   maps them: the parent moves them with plain fd I/O through one 64 KiB
   chunk, so nothing it touches outlives the request, and a full temp
   filesystem is an ENOSPC error here rather than a SIGBUS on a page of
   a sparse mapping. *)
let chunk_floats = 8192

let write_runner_input path arrays pvals =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let chunk = Bytes.create (8 * chunk_floats) in
  let put a =
    let n = Array.length a and i = ref 0 in
    while !i < n do
      let k = min chunk_floats (n - !i) in
      for j = 0 to k - 1 do
        Bytes.set_int64_ne chunk (8 * j) (Int64.bits_of_float (Array.unsafe_get a (!i + j)))
      done;
      (* Unix.write returns only once all [8 * k] bytes are written. *)
      ignore (Unix.write fd chunk 0 (8 * k));
      i := !i + k
    done
  in
  List.iter put arrays;
  put (Array.of_list pvals)

let rec read_exactly fd b off len =
  if len > 0 then
    match Unix.read fd b off len with
    | 0 -> raise End_of_file
    | k -> read_exactly fd b (off + k) (len - k)

(* Called only once the child is reaped, so the size [fstat] gives is
   final: a short output is a typed KF0904. *)
let read_runner_output ~artifact ~npix ~n_out path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let expected = 8 * npix * n_out in
  let size = (Unix.fstat fd).Unix.st_size in
  if size <> expected then
    Error
      (Diag.errorf Diag.Exec_failed "compiled plan %s wrote %d bytes, expected %d" artifact size
         expected)
  else
    let chunk = Bytes.create (8 * chunk_floats) in
    let get () =
      let buf = Array.create_float npix and i = ref 0 in
      while !i < npix do
        let k = min chunk_floats (npix - !i) in
        read_exactly fd chunk 0 (8 * k);
        for j = 0 to k - 1 do
          Array.unsafe_set buf (!i + j) (Int64.float_of_bits (Bytes.get_int64_ne chunk (8 * j)))
        done;
        i := !i + k
      done;
      buf
    in
    Ok (Array.init n_out (fun _ -> get ()))

(* I/O errors on the runner's files (ENOSPC on a full temp filesystem,
   say) are typed KF0904 replies, not exceptions out of the request. *)
let runner_io what f =
  try f () with
  | Unix.Unix_error (e, _, _) ->
    Error (Diag.errorf Diag.Exec_failed "cannot %s: %s" what (Unix.error_message e))
  | End_of_file -> Error (Diag.errorf Diag.Exec_failed "cannot %s: unexpected end of file" what)

let exec_subprocess ~deadline ~limits ~artifact ~repeat (p : Pipeline.t) inputs pvals =
  let npix = p.Pipeline.width * p.Pipeline.height in
  let out_names = Pipeline.outputs p in
  with_temp_dir (fun dir ->
      let in_path = Filename.concat dir "in.f64" in
      let out_path = Filename.concat dir "out.f64" in
      let err_path = Filename.concat dir "stderr" in
      let ins = List.map (fun n -> flatten (List.assoc n inputs)) p.Pipeline.inputs in
      Result.bind
        (runner_io "write plan input" (fun () -> Ok (write_runner_input in_path ins pvals)))
      @@ fun () ->
      (* Each sample is a supervised fork/exec child (no shell): rlimits
         between fork and exec, a watchdog on the request deadline, and
         typed KF0905/KF0906/KF0907 classification when it dies. *)
      let argv = [ artifact; in_path; out_path ] in
      let samples = ref [] in
      let failed = ref None in
      for i = 1 to repeat do
        if !failed = None then
          if i > 1 && Deadline.expired deadline then
            failed :=
              Some (sample_deadline_diag ~artifact ~done_:(List.length !samples) ~repeat)
          else begin
            let r = Supervisor.run ~deadline ~limits ~stderr_path:err_path ~argv () in
            match
              Supervisor.failure_diag ~what:(Printf.sprintf "compiled plan %s" artifact) r
            with
            | Some d -> failed := Some d
            | None -> samples := r.Supervisor.wall_ms :: !samples
          end
      done;
      match !failed with
      | Some d -> Error d
      | None ->
        Result.map
          (fun bufs -> (finish_outputs p out_names bufs, List.rev !samples))
          (runner_io "read plan output" (fun () ->
               read_runner_output ~artifact ~npix ~n_out:(List.length out_names) out_path)))

(* {1 Pinned plans} *)

type plan = {
  plan_pipeline : Pipeline.t;
  plan_mode : mode;
  plan_artifact : string;
  plan_cached : bool;
  plan_compile_ms : float;
  plan_warnings : Diag.t list;
  plan_loaded : loaded option;  (* Some for Dlopen, None for Subprocess *)
  mutable plan_released : bool;
}

let pin ?cache_dir ~mode (p : Pipeline.t) =
  match compile ?cache_dir ~mode p with
  | Error d -> Error d
  | Ok (artifact, compile_ms, cached) -> (
    let make loaded =
      {
        plan_pipeline = p;
        plan_mode = mode;
        plan_artifact = artifact;
        plan_cached = cached;
        plan_compile_ms = compile_ms;
        plan_warnings = [];
        plan_loaded = loaded;
        plan_released = false;
      }
    in
    match mode with
    | Subprocess -> Ok (make None)
    | Dlopen -> (
      match load_artifact artifact with
      | Error d -> Error d
      | Ok l -> Ok (make (Some l))))

let prepare ?cache_dir ?mode (p : Pipeline.t) =
  match mode with
  | Some mode -> pin ?cache_dir ~mode p
  | None -> (
    match pin ?cache_dir ~mode:Dlopen p with
    | Error d when d.Diag.code = Diag.Exec_failed ->
      (* In-process load failed; the subprocess runner shares no process
         state with us, so it may still work.  Keep the evidence. *)
      Result.map
        (fun plan -> { plan with plan_warnings = [ { d with Diag.severity = Diag.Warning } ] })
        (pin ?cache_dir ~mode:Subprocess p)
    | r -> r)

let plan_mode plan = plan.plan_mode
let plan_artifact plan = plan.plan_artifact
let plan_cached plan = plan.plan_cached
let plan_compile_ms plan = plan.plan_compile_ms
let plan_warnings plan = plan.plan_warnings
let plan_pipeline plan = plan.plan_pipeline

let release plan =
  if not plan.plan_released then begin
    plan.plan_released <- true;
    match plan.plan_loaded with None -> () | Some l -> dl_close l.handle
  end

let min_sample = function [] -> 0. | s :: rest -> List.fold_left min s rest

let run_plan ?(params = []) ?(repeat = 1) ?(deadline = Deadline.none)
    ?(limits = Supervisor.no_limits) plan inputs =
  if repeat < 1 then invalid_arg "Native.run_plan: repeat must be positive";
  if plan.plan_released then invalid_arg "Native.run_plan: plan already released";
  let p = plan.plan_pipeline in
  check_inputs p inputs;
  let pvals = param_values p params in
  let artifact = plan.plan_artifact in
  let exec =
    match plan.plan_loaded with
    | Some l -> exec_entry ~deadline ~entry:l.entry ~artifact ~repeat p inputs pvals
    | None -> exec_subprocess ~deadline ~limits ~artifact ~repeat p inputs pvals
  in
  match exec with
  | Error d -> Error d
  | Ok (outputs, samples_ms) ->
    Ok
      {
        outputs;
        mode_used = plan.plan_mode;
        artifact;
        cached = plan.plan_cached;
        compile_ms = 0.;
        exec_ms = min_sample samples_ms;
        samples_ms;
        warnings = [];
      }

(* {1 One-shot runs} *)

let run ?mode ?cache_dir ?params ?repeat ?deadline ?limits (p : Pipeline.t) inputs =
  match prepare ?cache_dir ?mode p with
  | Error d -> Error d
  | Ok plan ->
    Fun.protect ~finally:(fun () -> release plan) @@ fun () ->
    Result.map
      (fun r -> { r with compile_ms = plan.plan_compile_ms; warnings = plan.plan_warnings })
      (run_plan ?params ?repeat ?deadline ?limits plan inputs)
