module Diag = Kfuse_util.Diag
module Deadline = Kfuse_util.Deadline
module Rng = Kfuse_util.Rng
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
   in-place call; the never-taken converting branch is gone.
   v5: the subprocess artifact is a persistent runner serving request
   frames over pipes on a memfd arena, not a one-shot IN OUT program.
   v6: the driver takes a workspace for its intermediates instead of
   allocating them per call: the runner allocates it at start-up, a
   pinned dlopen plan at [prepare], and kfuse_entry takes it last.
   v7: a request can ask the runner to draw the inputs into its arena
   and to fold the outputs; the reply carries the kernels' own time,
   the generator state after the draw and the folds. *)
let abi_version = 7

type mode = Dlopen | Subprocess

let mode_to_string = function Dlopen -> "dlopen" | Subprocess -> "subprocess"

let mode_of_string = function
  | "dlopen" -> Some Dlopen
  | "subprocess" -> Some Subprocess
  | _ -> None

type 'o ran = {
  outputs : 'o;
  mode_used : mode;
  artifact : string;
  cached : bool;
  compile_ms : float;
  exec_ms : float;
  samples_ms : float list;
  warnings : Diag.t list;
}

type run_result = (string * Image.t) list ran

type summary = { width : int; height : int; min : float; max : float; sum : float }

let mean s = s.sum /. float_of_int (max 1 (s.width * s.height))

type input =
  | Images of (string * Image.t) list
  | Random of { rng : Rng.t; lo : float; hi : float }

type _ output =
  | Pixels : (string * Image.t) list output
  | Summaries : (string * summary) list output

(* {1 Loader stubs (kfuse_exec_stubs.c)} *)

external dl_open : string -> nativeint = "kfuse_dl_open"
external dl_sym : nativeint -> string -> nativeint = "kfuse_dl_sym"
external dl_close : nativeint -> unit = "kfuse_dl_close"

external dl_call :
  nativeint -> float array array -> float array array -> float array -> nativeint -> unit
  = "kfuse_dl_call"

external ws_alloc : int -> nativeint = "kfuse_ws_alloc"
external ws_free : nativeint -> unit = "kfuse_ws_free"

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

(* {1 Source generation: generated pipeline + mode-specific wrapper} *)

(* The runner call, its [i]-th input, output and parameter argument
   spelled by [input i], [output i] and [param i], each followed by the
   generated name it binds, and the workspace [kf_ws] last. *)
let runner_call (p : Pipeline.t) ~input ~output ~param =
  let bind arg i n = Printf.sprintf "%s /* %s */" (arg i) n in
  let img = C.ident C.Image in
  let args =
    List.mapi (fun i n -> bind input i (img n)) p.Pipeline.inputs
    @ List.mapi (fun i n -> bind output i (img n)) (Pipeline.outputs p)
    @ List.mapi (fun i (n, _) -> bind param i (C.ident C.Param n)) p.Pipeline.params
    @ [ "kf_ws" ]
  in
  Printf.sprintf "%s(%s)" (C.ident C.Runner p.Pipeline.name) (String.concat ", " args)

let dlopen_wrapper (p : Pipeline.t) =
  let b = Buffer.create 512 in
  let w fmt = Printf.bprintf b fmt in
  w
    "// Entry point for the kfuse loader stub: one fixed signature covers\n\
     // every pipeline shape, so a single dlsym suffices.  The pipeline\n\
     // runs on the caller's float64 buffers in place, its intermediates\n\
     // in the caller's workspace; this is the per-frame streaming path,\n\
     // so the only allocation left is a line-buffered kernel's per-thread\n\
     // ring of (2R+1) rows per hoisted subexpression.\n";
  w "void kfuse_entry(const double** ins, double** outs, const double* params, double* kf_ws) {\n";
  if p.Pipeline.inputs = [] then w "  (void)ins;\n";
  if p.Pipeline.params = [] then w "  (void)params;\n";
  w "  %s;\n"
    (runner_call p
       ~input:(Printf.sprintf "ins[%d]")
       ~output:(Printf.sprintf "outs[%d]")
       ~param:(Printf.sprintf "params[%d]"));
  w "}\n";
  Buffer.contents b

(* The runner protocol, both sides.  A request is [request_words]
   native-endian int64s {ABI, input bytes, output bytes, fault code,
   flags, generator state s0..s3, lo, span}, lo and span as float64
   bits.  Flag [draw_flag] has the runner draw the inputs into its arena
   from that state before the kernels run ({!Rng.fill_float}'s values:
   lo + u * span), [fold_flag] fold every output after.  A reply is
   [reply_words] {ABI, output bytes, kernel nanoseconds, the state after
   the draw, then the min, max and row-major sum of each output as
   float64 bits}: with no draw the state is the request's, with no fold
   the sums are zero. *)
let request_words = 11
let draw_flag = 1
let fold_flag = 2
let reply_words (p : Pipeline.t) = 7 + (3 * List.length (Pipeline.outputs p))

(* A reduction materializes as a 1x1 image (the generated code
   broadcasts the scalar over the full buffer; cell 0 is the value). *)
let is_reduction (p : Pipeline.t) name =
  match Pipeline.producer p name with
  | None -> false
  | Some i -> (
    match (Pipeline.kernel p i).Kernel.op with
    | Kernel.Reduce _ -> true
    | Kernel.Map _ -> false)

let subprocess_wrapper (p : Pipeline.t) =
  let b = Buffer.create 4096 in
  let w fmt = Printf.bprintf b fmt in
  let outputs = Pipeline.outputs p in
  let n_in = List.length p.Pipeline.inputs and n_out = List.length outputs in
  let np = List.length p.Pipeline.params in
  w "#include <errno.h>\n#include <signal.h>\n#include <stddef.h>\n#include <stdint.h>\n";
  w "#include <stdio.h>\n#include <stdlib.h>\n#include <string.h>\n#include <sys/mman.h>\n";
  w "#include <sys/resource.h>\n#include <time.h>\n#include <unistd.h>\n\n";
  w "%s\n" Arena_c.source;
  w "// Persistent runner (ABI v%d).  fd 3 is the arena: the packed\n" abi_version;
  w "// native-endian float64 inputs in declaration order, %d parameter\n" np;
  w "// value%s, then the outputs.  fd 4 carries requests {ABI, input\n"
    (if np = 1 then "" else "s");
  w "// bytes, output bytes, fault, flags, state s0..s3, lo, span}: flag 1\n";
  w "// draws the inputs into the arena, flag 2 folds the outputs.  The\n";
  w "// kernels run on the arena in place and fd 5 gets the reply {ABI,\n";
  w "// output bytes, kernel ns, state after the draw, min/max/sum of each\n";
  w "// output}.  EOF on fd 4 ends it.  The intermediates live in one\n";
  w "// workspace allocated at start-up.\n\n";
  w "static int kf_io(int fd, void* buf, size_t n, int out) {\n";
  w "  size_t done = 0;\n";
  w "  while (done < n) {\n";
  w "    ssize_t k = out ? write(fd, (char*)buf + done, n - done)\n";
  w "                    : read(fd, (char*)buf + done, n - done);\n";
  w "    if (k < 0 && errno == EINTR) continue;\n";
  w "    if (k <= 0) return (k == 0 && done == 0) ? 1 : -1;\n";
  w "    done += (size_t)k;\n";
  w "  }\n";
  w "  return 0;\n";
  w "}\n\n";
  w "int main(void) {\n";
  w "  const size_t npix = (size_t)%d * %d;\n" p.Pipeline.width p.Pipeline.height;
  w "  const size_t in_bytes = ((size_t)%d * npix + %d) * sizeof(double);\n" n_in np;
  w "  const size_t out_bytes = (size_t)%d * npix * sizeof(double);\n" n_out;
  w "  char* arena = mmap(NULL, in_bytes + out_bytes, PROT_READ | PROT_WRITE, MAP_SHARED, 3, 0);\n";
  w "  if (arena == MAP_FAILED) { perror(\"arena\"); return 3; }\n";
  w "  close(3);\n";
  let ws = Lower_cpu.workspace_scalars p in
  if ws = 0 then w "  kf_scalar* kf_ws = NULL;\n"
  else begin
    (* kf_malloc abort()s when the workspace does not fit, which the
       supervisor types as an RLIMIT_AS failure (KF0907). *)
    w "  kf_scalar* kf_ws = kf_malloc((size_t)%d * sizeof(kf_scalar));\n" ws
  end;
  if n_in + np > 0 then w "  kf_scalar* kf_in = (kf_scalar*)arena;\n";
  w "  kf_scalar* kf_out = (kf_scalar*)(arena + in_bytes);\n";
  w "  for (;;) {\n";
  w "    int64_t req[%d];\n" request_words;
  w "    int r = kf_io(4, req, sizeof req, 0);\n";
  w "    if (r == 1) return 0;\n";
  w "    if (r != 0) { fprintf(stderr, \"short request frame\\n\"); return 3; }\n";
  w "    if (req[0] != %d || (size_t)req[1] != in_bytes || (size_t)req[2] != out_bytes) {\n"
    abi_version;
  w "      fprintf(stderr, \"request frame (ABI %%lld, %%lld input bytes, %%lld output \"\n";
  w "              \"bytes) disagrees with the arena (ABI %d, %%zu, %%zu)\\n\",\n" abi_version;
  w "              (long long)req[0], (long long)req[1], (long long)req[2], in_bytes, out_bytes);\n";
  w "      return 3;\n";
  w "    }\n";
  (* The exec.* chaos points, drawn by the parent, acted out here so
     they exercise the real kill-and-respawn path. *)
  w "    if (req[3] == 1) raise(SIGSEGV);\n";
  w "    if (req[3] == 2) for (;;) pause();\n";
  w "    if (req[3] == 3) {\n";
  w "      struct rlimit rl = { 64L << 20, 64L << 20 };\n";
  w "      (void)setrlimit(RLIMIT_AS, &rl);\n";
  w "      for (;;) if (!malloc((size_t)4 << 20)) abort();\n";
  w "    }\n";
  w "    int64_t rep[%d] = { %d, (int64_t)out_bytes };\n" (reply_words p) abi_version;
  w "    memcpy(&rep[3], &req[5], 4 * sizeof(int64_t));\n";
  if n_in > 0 then begin
    w "    if (req[%d] & %d) {\n" 4 draw_flag;
    w "      uint64_t s[4];\n";
    w "      double lo, span;\n";
    w "      memcpy(s, &req[5], sizeof s);\n";
    w "      memcpy(&lo, &req[9], sizeof lo);\n";
    w "      memcpy(&span, &req[10], sizeof span);\n";
    w "      kf_fill(kf_in, (size_t)%d * npix, s, lo, span);\n" n_in;
    w "      memcpy(&rep[3], s, sizeof s);\n";
    w "    }\n"
  end;
  w "    struct timespec t0, t1;\n";
  w "    clock_gettime(CLOCK_MONOTONIC, &t0);\n";
  w "    %s;\n"
    (runner_call p
       ~input:(Printf.sprintf "kf_in + %d * npix")
       ~output:(Printf.sprintf "kf_out + %d * npix")
       ~param:(Printf.sprintf "kf_in[%d * npix + %d]" n_in));
  w "    clock_gettime(CLOCK_MONOTONIC, &t1);\n";
  w "    rep[2] = (int64_t)(t1.tv_sec - t0.tv_sec) * 1000000000 + (t1.tv_nsec - t0.tv_nsec);\n";
  w "    if (req[4] & %d) {\n" fold_flag;
  (* A reduction's value is cell 0 of its broadcast buffer. *)
  List.iteri
    (fun k name ->
      w "      {\n";
      w "        double acc[3] = { INFINITY, -INFINITY, 0.0 };\n";
      w "        kf_fold(kf_out + %d * npix, %s, acc);\n" k
        (if is_reduction p name then "1" else "npix");
      w "        memcpy(&rep[%d], acc, sizeof acc);\n" (7 + (3 * k));
      w "      }\n")
    outputs;
  w "    }\n";
  w "    if (kf_io(5, rep, sizeof rep, 1) != 0) return 0;\n";
  w "  }\n";
  w "}\n";
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

(* The artifact of [p] in [dir]: emit, key, then find or build it. *)
let build ~tc ~dir ~mode (p : Pipeline.t) =
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
    let attempt = Toolchain.unique_suffix () in
    let tmp = Printf.sprintf "%s.tmp.%s" dest attempt in
    let err_path = Printf.sprintf "%s.log.%s" dest attempt in
    let argv =
      (tc.Toolchain.cc :: Toolchain.flags tc ~shared:(mode = Dlopen))
      @ [ "-o"; tmp; src_path; "-lm" ]
    in
    (* Supervised fork/exec — no shell — with a wall cap so a wedged
       compiler cannot hang the daemon.  No rlimits: compilers
       legitimately need memory. *)
    let r =
      Supervisor.run
        ~limits:{ Supervisor.no_limits with Supervisor.wall_ms = Some 120_000. }
        ~stderr_path:err_path ~argv ()
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
        | Supervisor.Spawn_failed { reason } | Supervisor.Protocol { reason } -> reason
      in
      Error
        (Diag.errorf Diag.Compile_failed "%s %s compiling generated C (%s):\n%s"
           tc.Toolchain.cc reason src_path log)
    | Ok () ->
      (* Atomic publish: concurrent builders race benignly on rename. *)
      Sys.rename tmp dest;
      Atomic.incr compile_count;
      Ok (dest, r.Supervisor.wall_ms, false)

(* A warm request finds its artifact without emitting the source
   again: the path is remembered per cache directory, toolchain, mode
   and exact fingerprint, which pins the pipeline and so its source.
   The file must still exist.  A daemon running paper-exec's six apps
   holds six paths, at about 350 bytes of key and path each; past
   [artifact_memo_cap] (some 1.5 MB) the memo starts over, so a daemon
   fed new pipelines for ever does not grow without bound. *)
let artifact_memo : (string, string) Hashtbl.t = Hashtbl.create 64
let artifact_memo_lock = Mutex.create ()
let artifact_memo_cap = 4096

let compile ?cache_dir ~mode (p : Pipeline.t) =
  match Toolchain.find () with
  | Error d -> Error d
  | Ok tc -> (
    let dir = match cache_dir with Some d -> d | None -> default_cache_dir () in
    let key =
      String.concat "\n" [ dir; Toolchain.id tc; mode_to_string mode; Fingerprint.exact p ]
    in
    match Mutex.protect artifact_memo_lock (fun () -> Hashtbl.find_opt artifact_memo key) with
    | Some dest when Sys.file_exists dest -> Ok (dest, 0., true)
    | _ ->
      let r = build ~tc ~dir ~mode p in
      Result.iter
        (fun (dest, _, _) ->
          Mutex.protect artifact_memo_lock (fun () ->
              if Hashtbl.length artifact_memo >= artifact_memo_cap then Hashtbl.reset artifact_memo;
              Hashtbl.replace artifact_memo key dest))
        r;
      r)

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

let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l

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
  |> by_name

(* {1 The seeded draw and the fold (kfuse_arena.h)}

   One C text draws {!Rng.fill_float}'s values and folds min, max and
   the row-major sum: these stubs run it on OCaml arrays, a sandboxed
   runner on its arena. *)

external fill_floats : Bytes.t -> float -> float -> float array -> unit = "kfuse_fill_floats"
external fold_floats : float array -> float array = "kfuse_fold_floats"

let materialize (p : Pipeline.t) = function
  | Images inputs -> inputs
  | Random { rng; lo; hi } ->
    let width = p.Pipeline.width and height = p.Pipeline.height in
    List.map
      (fun n ->
        let data = Array.create_float (width * height) in
        let state = Rng.save rng in
        fill_floats state lo (hi -. lo) data;
        Rng.restore rng state;
        (n, unflatten ~width ~height data))
      p.Pipeline.inputs

let summary ~width ~height acc = { width; height; min = acc.(0); max = acc.(1); sum = acc.(2) }

let summarize img =
  summary ~width:(Image.width img) ~height:(Image.height img)
    (fold_floats (Image.unsafe_data img))

let deliver : type o. Pipeline.t -> string list -> float array array -> o output -> o =
 fun p out_names bufs want ->
  let images = finish_outputs p out_names bufs in
  match want with
  | Pixels -> images
  | Summaries -> List.map (fun (n, img) -> (n, summarize img)) images

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
   paying the loader per call.  The workspace for the driver's
   intermediates comes with it, so repeated calls reuse warm pages
   instead of faulting fresh ones in; [ws_lock] is held by the one call
   using it. *)
type loaded = { handle : nativeint; entry : nativeint; ws : nativeint; ws_lock : Mutex.t }

let workspace_bytes p = 8 * Lower_cpu.workspace_scalars p

let load_artifact artifact p =
  match dl_open artifact with
  | exception Failure msg ->
    Error (Diag.errorf Diag.Exec_failed "dlopen(%s): %s" artifact msg)
  | handle -> (
    match dl_sym handle "kfuse_entry" with
    | exception Failure msg ->
      dl_close handle;
      Error (Diag.errorf Diag.Exec_failed "dlsym(%s, kfuse_entry): %s" artifact msg)
    | entry -> (
      match ws_alloc (workspace_bytes p) with
      | exception Failure msg ->
        dl_close handle;
        Error (Diag.errorf Diag.Exec_failed "workspace of compiled plan %s: %s" artifact msg)
      | ws -> Ok { handle; entry; ws; ws_lock = Mutex.create () }))

let exec_entry ~deadline ~entry ~ws ~artifact ~repeat (p : Pipeline.t) inputs pvals want =
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
        dl_call entry ins outs pars ws;
        samples := (now_ms () -. t0) :: !samples
      end
  done;
  if !expired then
    Error (sample_deadline_diag ~artifact ~done_:(List.length !samples) ~repeat)
  else Ok (deliver p out_names outs want, List.rev !samples)

(* {1 Persistent sandboxed runners} *)

external pwrite_floats : Unix.file_descr -> float array -> int -> unit = "kfuse_pwrite_floats"
external pread_floats : Unix.file_descr -> float array -> int -> unit = "kfuse_pread_floats"

module Runner = Supervisor.Runner

(* Idle runners are kept per artifact and rlimits (RLIMIT_AS and
   RLIMIT_FSIZE are fixed at spawn), most recently used first, at most
   [max_idle_runners] of them (enough to keep the paper's six apps
   warm) holding at most [max_idle_arena_bytes] between them: an idle
   runner pins its whole arena in shmem, and its workspace once a
   request has run.  The paper's six apps at 1024² need 96 MiB of arena
   and 88 MiB of workspace.  [live] holds every runner not yet closed,
   idle or checked out, for the stats. *)
let max_idle_runners = 8
let max_idle_arena_bytes = 256 * 1024 * 1024

(* An idle runner under its pool key, with its arena plus workspace
   bytes. *)
type idle = { key : string; runner : Runner.t; bytes : int }

type pool = {
  lock : Mutex.t;
  mutable idle : idle list;
  mutable live : Runner.t list;
  mutable spawns : int;
  mutable kills : int;
}

let pool = { lock = Mutex.create (); idle = []; live = []; spawns = 0; kills = 0 }

let locked f = Mutex.protect pool.lock f

let forget r = pool.live <- List.filter (fun x -> x != r) pool.live

let retire r =
  locked (fun () -> forget r);
  ignore (Runner.close r)

(* Every runner failure ends here: the runner may hold state the failed
   request corrupted, so it never serves again. *)
let discard r =
  locked (fun () ->
      forget r;
      pool.kills <- pool.kills + 1);
  Runner.kill r

let checkout ~key ~limits ~arena_bytes artifact =
  let rec take acc = function
    | [] -> (None, List.rev acc)
    | e :: rest when e.key = key -> (Some e.runner, List.rev_append acc rest)
    | e :: rest -> take (e :: acc) rest
  in
  let rec idle () =
    match locked (fun () ->
        let r, rest = take [] pool.idle in
        pool.idle <- rest;
        r)
    with
    | Some r when Runner.alive r -> Some r
    | Some r ->
      (* Died while idle (killed from outside): not this request's
         failure, just spawn afresh. *)
      retire r;
      idle ()
    | None -> None
  in
  match idle () with
  | Some r -> Ok r
  | None -> (
    match Runner.spawn ~limits ~arena_bytes ~argv:[ artifact ] with
    | Error reason ->
      Error (Diag.errorf Diag.Exec_failed "cannot start compiled plan %s: %s" artifact reason)
    | Ok r ->
      locked (fun () ->
          pool.live <- r :: pool.live;
          pool.spawns <- pool.spawns + 1);
      Ok r)

(* [r] joins the idle list in front; the least recently used runners
   past either cap are retired.  [bytes] is [r]'s arena plus workspace;
   a runner over the byte cap on its own retires at once rather than
   emptying the pool. *)
let checkin ~key ~bytes r =
  let rec split n total kept = function
    | e :: rest as idle ->
      let total = total + e.bytes in
      if n < max_idle_runners && total <= max_idle_arena_bytes then
        split (n + 1) total (e :: kept) rest
      else (List.rev kept, idle)
    | [] -> (List.rev kept, [])
  in
  if Runner.served r >= Runner.request_cap || bytes > max_idle_arena_bytes then retire r
  else
    let evicted =
      locked (fun () ->
          let kept, evicted = split 0 0 [] ({ key; runner = r; bytes } :: pool.idle) in
          pool.idle <- kept;
          evicted)
    in
    List.iter (fun e -> retire e.runner) evicted

let shutdown_runners () =
  let idle = locked (fun () -> let l = pool.idle in pool.idle <- []; l) in
  List.iter (fun e -> retire e.runner) idle

let () = at_exit shutdown_runners

type runner_stats = { runners : int; runner_spawns : int; runner_kills : int; runner_cpu_ms : float }

let runner_stats () =
  let live, spawns, kills =
    locked (fun () -> (pool.live, pool.spawns, pool.kills))
  in
  {
    runners = List.length live;
    runner_spawns = spawns;
    runner_kills = kills;
    runner_cpu_ms = List.fold_left (fun acc r -> acc +. Runner.cpu_ms r) 0. live;
  }

(* Arena I/O errors are typed KF0904 replies, not exceptions out of the
   request. *)
let arena_io what f =
  try Ok (f ()) with Failure e -> Error (Diag.errorf Diag.Exec_failed "cannot %s: %s" what e)

(* The request's bytes in a runner: its arena's input and parameter
   bytes, and its output bytes. *)
let arena_bytes (p : Pipeline.t) =
  let npix = p.Pipeline.width * p.Pipeline.height in
  ( 8 * ((List.length p.Pipeline.inputs * npix) + List.length p.Pipeline.params),
    8 * List.length (Pipeline.outputs p) * npix )

let over_fsize ~what ~out_bytes f =
  Diag.errorf Diag.Exec_limit
    "%s exceeded a resource limit: its %d output bytes are over RLIMIT_FSIZE (%d)" what out_bytes
    f

let check_limits (limits : Supervisor.limits) (p : Pipeline.t) =
  let in_bytes, out_bytes = arena_bytes p in
  let what =
    Printf.sprintf "pipeline %s at %dx%d" p.Pipeline.name p.Pipeline.width p.Pipeline.height
  in
  let held = in_bytes + out_bytes + workspace_bytes p in
  match (limits.Supervisor.fsize_bytes, limits.Supervisor.mem_bytes) with
  | Some f, _ when out_bytes > f -> Error (over_fsize ~what ~out_bytes f)
  | _, Some m when held > m ->
    Error
      (Diag.errorf Diag.Exec_limit
         "%s exceeded a resource limit: its %d bytes of arena and workspace are over RLIMIT_AS (%d)"
         what held m)
  | _ -> Ok ()

(* The one runner exchange.  [Images] reach the arena by [pwrite] of
   their arrays; a [Random] input is drawn by the runner straight into
   its arena at the first request, and the generator takes the state
   the runner reports back.  [Pixels] leave it by [pread] into fresh
   arrays; [Summaries] are folded by the runner at the last request and
   travel in its reply, so a request that wants no pixels moves no
   pixel through the caller.  Each sample is the kernel time the runner
   measured around its own call. *)
let exec_subprocess : type o.
    deadline:Deadline.t -> limits:Supervisor.limits -> artifact:string -> repeat:int ->
    Pipeline.t -> input -> float list -> o output -> (o * float list, Diag.t) result =
 fun ~deadline ~limits ~artifact ~repeat p input pvals want ->
  let npix = p.Pipeline.width * p.Pipeline.height in
  let out_names = Pipeline.outputs p in
  let n_in = List.length p.Pipeline.inputs and n_out = List.length out_names in
  let in_bytes, out_bytes = arena_bytes p in
  let what = Printf.sprintf "compiled plan %s" artifact in
  match (limits.Supervisor.fsize_bytes, Supervisor.wall_cap ~deadline limits) with
  | Some f, _ when out_bytes > f -> Error (over_fsize ~what ~out_bytes f)
  | _, Some w when w <= 0. ->
    Error (Diag.errorf Diag.Exec_timeout "request deadline expired before %s ran" what)
  | _ -> (
    let key =
      let lim = function None -> "-" | Some v -> string_of_int v in
      String.concat " "
        [ artifact; lim limits.cpu_s; lim limits.mem_bytes; lim limits.fsize_bytes ]
    in
    let bytes = in_bytes + out_bytes + workspace_bytes p in
    match checkout ~key ~limits ~arena_bytes:(in_bytes + out_bytes) artifact with
    | Error d -> Error d
    | Ok r -> (
      let arena = Runner.arena r in
      let written =
        arena_io "write plan input" (fun () ->
            (match input with
            | Images inputs ->
              List.iteri
                (fun i n ->
                  pwrite_floats arena (flatten (List.assoc n inputs)) (8 * i * npix))
                p.Pipeline.inputs
            | Random _ -> ());
            if pvals <> [] then pwrite_floats arena (Array.of_list pvals) (8 * n_in * npix))
      in
      let reply = Bytes.create (8 * reply_words p) in
      let word i = Bytes.get_int64_ne reply (8 * i) in
      let request i misbehave =
        let draw = match input with Random _ when i = 1 -> true | _ -> false in
        let fold = match want with Summaries -> i = repeat | Pixels -> false in
        let state, lo, span =
          match input with
          | Random { rng; lo; hi } when draw -> (Rng.save rng, lo, hi -. lo)
          | _ -> (Bytes.make 32 '\000', 0., 0.)
        in
        let b = Bytes.create (8 * request_words) in
        List.iteri
          (fun k v -> Bytes.set_int64_ne b (8 * k) (Int64.of_int v))
          [
            abi_version;
            in_bytes;
            out_bytes;
            Supervisor.misbehave_code misbehave;
            (if draw then draw_flag else 0) lor if fold then fold_flag else 0;
          ];
        Bytes.blit state 0 b (8 * 5) 32;
        Bytes.set_int64_ne b (8 * 9) (Int64.bits_of_float lo);
        Bytes.set_int64_ne b (8 * 10) (Int64.bits_of_float span);
        (b, draw)
      in
      let rec go i samples =
        if i > repeat then Ok (List.rev samples)
        else if i > 1 && Deadline.expired deadline then
          Error (`Keep (sample_deadline_diag ~artifact ~done_:(List.length samples) ~repeat))
        else
          let misbehave = Supervisor.draw_fault () in
          let request, drew = request i misbehave in
          let run =
            Runner.exchange r ~wall_ms:(Supervisor.wall_cap ~deadline limits) ~misbehave ~request
              ~reply
          in
          match Supervisor.failure_diag ~what run with
          | Some d -> Error (`Kill d)
          | None ->
            let abi = Int64.to_int (word 0) and wrote = Int64.to_int (word 1) in
            if abi <> abi_version || wrote <> out_bytes then
              Error
                (`Kill
                  (Diag.errorf Diag.Exec_failed "%s wrote %d bytes, expected %d (ABI %d)" what
                     wrote out_bytes abi))
            else begin
              (match input with
              | Random { rng; _ } when drew -> Rng.restore rng (Bytes.sub reply 24 32)
              | _ -> ());
              go (i + 1) ((Int64.to_float (word 2) /. 1e6) :: samples)
            end
      in
      let read () : (o, Diag.t) result =
        match want with
        | Pixels ->
          let off k = in_bytes + (8 * k * npix) in
          arena_io "read plan output" (fun () ->
              finish_outputs p out_names
                (Array.init n_out (fun k ->
                     let buf = Array.create_float npix in
                     pread_floats arena buf (off k);
                     buf)))
        | Summaries ->
          Ok
            (List.mapi
               (fun k name ->
                 let width, height =
                   if is_reduction p name then (1, 1) else (p.Pipeline.width, p.Pipeline.height)
                 in
                 let acc = Array.init 3 (fun j -> Int64.float_of_bits (word (7 + (3 * k) + j))) in
                 (name, summary ~width ~height acc))
               out_names
            |> by_name)
      in
      (* [`Keep]: the runner is sound and goes back to the pool;
         [`Kill]: it failed, or may hold a failed request's state. *)
      match
        match written with
        | Error d -> Error (`Kill d)
        | Ok () ->
          Result.bind (go 1 []) (fun samples ->
              match read () with Ok outs -> Ok (outs, samples) | Error d -> Error (`Kill d))
      with
      | exception e ->
        discard r;
        raise e
      | Ok (outs, samples) ->
        checkin ~key ~bytes r;
        Ok (outs, samples)
      | Error (`Keep d) ->
        checkin ~key ~bytes r;
        Error d
      | Error (`Kill d) ->
        discard r;
        Error d))

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
      match load_artifact artifact p with
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
    match plan.plan_loaded with
    | None -> ()
    | Some l ->
      Mutex.protect l.ws_lock (fun () -> ws_free l.ws);
      dl_close l.handle
  end

let min_sample = function [] -> 0. | s :: rest -> List.fold_left min s rest

let execute_plan : type o.
    ?params:(string * float) list -> ?repeat:int -> ?deadline:Deadline.t ->
    ?limits:Supervisor.limits -> plan -> input -> o output -> (o ran, Diag.t) result =
 fun ?(params = []) ?(repeat = 1) ?(deadline = Deadline.none) ?(limits = Supervisor.no_limits)
     plan input want ->
  if repeat < 1 then invalid_arg "Native.run_plan: repeat must be positive";
  if plan.plan_released then invalid_arg "Native.run_plan: plan already released";
  let p = plan.plan_pipeline in
  (match input with Images inputs -> check_inputs p inputs | Random _ -> ());
  let pvals = param_values p params in
  let artifact = plan.plan_artifact in
  let exec =
    match plan.plan_loaded with
    | Some l ->
      let inputs = materialize p input in
      (* Calls on one plan queue for its workspace: two in flight never
         share one. *)
      Mutex.protect l.ws_lock (fun () ->
          exec_entry ~deadline ~entry:l.entry ~ws:l.ws ~artifact ~repeat p inputs pvals want)
    | None -> exec_subprocess ~deadline ~limits ~artifact ~repeat p input pvals want
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

let run_plan ?params ?repeat ?deadline ?limits plan inputs =
  execute_plan ?params ?repeat ?deadline ?limits plan (Images inputs) Pixels

(* {1 One-shot runs} *)

let execute ?mode ?cache_dir ?params ?repeat ?deadline ?limits (p : Pipeline.t) input want =
  match prepare ?cache_dir ?mode p with
  | Error d -> Error d
  | Ok plan ->
    Fun.protect ~finally:(fun () -> release plan) @@ fun () ->
    Result.map
      (fun r -> { r with compile_ms = plan.plan_compile_ms; warnings = plan.plan_warnings })
      (execute_plan ?params ?repeat ?deadline ?limits plan input want)

let run ?mode ?cache_dir ?params ?repeat ?deadline ?limits (p : Pipeline.t) inputs =
  execute ?mode ?cache_dir ?params ?repeat ?deadline ?limits p (Images inputs) Pixels
