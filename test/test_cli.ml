(* End-to-end tests of the kfusec command-line driver: run the real
   binary on real DSL files and check outputs.  The binary and the
   example pipelines are declared as dune test dependencies. *)

open Support

let pipelines_dir = "../examples/pipelines"

let check_contains what (code, text) needles =
  Alcotest.(check int) (what ^ " exit code") 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%s output mentions %S" what needle)
        true (contains needle text))
    needles

let test_list () =
  check_contains "list" (run_capture [ "list" ])
    [ "harris"; "sobel"; "unsharp"; "shitomasi"; "enhance"; "night"; "9 kernels" ]

let test_fuse_app () =
  check_contains "fuse harris"
    (run_capture [ "fuse"; "--app"; "harris" ])
    [ "point-to-local"; "w=328.000"; "w=256.000"; "kernels: 9 -> 6" ]

let test_fuse_dsl_file () =
  check_contains "fuse sobel.pipe"
    (run_capture [ "fuse"; Filename.concat pipelines_dir "sobel.pipe" ])
    [ "kernels: 3 -> 1" ]

let test_emit_cuda_and_cpu () =
  check_contains "emit cuda"
    (run_capture [ "emit"; "--app"; "sobel" ])
    [ "__global__ void k_mag"; "cuda_runtime.h" ];
  check_contains "emit cpu"
    (run_capture [ "emit"; "--app"; "sobel"; "--backend"; "cpu"; "-O" ])
    [ "omp parallel for"; "void k_mag" ]

let test_estimate () =
  check_contains "estimate"
    (run_capture [ "estimate"; "--app"; "unsharp"; "-d"; "gtx680" ])
    [ "baseline"; "mincut"; "speedup" ]

let test_explain_dot_unparse () =
  check_contains "explain"
    (run_capture [ "explain"; "--app"; "night" ])
    [ "Edge benefits"; "point-based"; "Algorithm 1 trace"; "Inlining verdicts" ];
  check_contains "dot"
    (run_capture [ "dot"; "--app"; "harris"; "-w" ])
    [ "digraph \"harris\""; "subgraph cluster_"; "label=\"328\"" ];
  check_contains "unparse"
    (run_capture [ "unparse"; "-a"; "sobel" ])
    [ "pipeline sobel(in)"; "sqrt" ]

let test_run_on_pgm () =
  (* Full image-in image-out flow through the binary. *)
  let input = Filename.temp_file "kfusec_in" ".pgm" in
  let output = Filename.temp_file "kfusec_out" ".pgm" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ input; output ])
    (fun () ->
      let img =
        Kfuse_image.Image.init ~width:40 ~height:30 (fun x y ->
            if (x / 8) + (y / 8) mod 2 = 0 then 0.9 else 0.1)
      in
      Kfuse_image.Pgm.write input img;
      let code, text =
        run_capture
          [ "run"; Filename.concat pipelines_dir "emboss.pipe"; "-i"; input; "-o"; output ]
      in
      Alcotest.(check int) "exit" 0 code;
      Alcotest.(check bool) "reports output" true (contains "wrote" text);
      let out = Kfuse_image.Pgm.read output in
      Alcotest.(check int) "output width" 40 (Kfuse_image.Image.width out);
      Alcotest.(check int) "output height" 30 (Kfuse_image.Image.height out))

let test_check () =
  check_contains "check built-in"
    (run_capture [ "check"; "--app"; "harris" ])
    [ "harris: OK (9 kernels" ];
  List.iter
    (fun (file, want) ->
      check_contains ("check " ^ file)
        (run_capture [ "check"; Filename.concat pipelines_dir file ])
        [ want ])
    [ ("sobel.pipe", "OK (3 kernels"); ("unsharp.pipe", "OK (4 kernels") ];
  let code, text = run_capture [ "fuse"; "--app"; "not_an_app" ] in
  Alcotest.(check bool) "bad app fails" true (code <> 0);
  Alcotest.(check bool) "helpful error" true (contains "unknown application" text);
  let bad = Filename.temp_file "kfusec_bad" ".pipe" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove bad with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text bad (fun oc ->
          output_string oc "pipeline p(in)\nout = conv(ghost, gauss3)\n");
      let code, text = run_capture [ "check"; bad ] in
      Alcotest.(check bool) "malformed file fails" true (code <> 0);
      Alcotest.(check bool) "typed diagnostic" true (contains "error[KF" text))

let test_read_file_diagnostic () =
  (* A FILE argument that exists but cannot be read as a file (a
     directory) must come back as a clean KF0101 diagnostic, not an
     uncaught Sys_error. *)
  let code, text = run_capture [ "check"; "." ] in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  Alcotest.(check bool) "typed io diagnostic" true (contains "error[KF0101]" text);
  Alcotest.(check bool) "no raw exception" false (contains "Sys_error" text)

let test_fault_injection_e2e () =
  (* Acceptance: an injected search fault degrades to the baseline with
     a warning and exit 0 by default, and fails with nonzero status
     under --strict. *)
  let env = "KFUSE_FAULTS=cut.stoer_wagner@1" in
  let code, text = run_capture ~env [ "fuse"; "--app"; "harris"; "-j"; "2" ] in
  Alcotest.(check int) "degraded fuse exits 0" 0 code;
  Alcotest.(check bool) "fault warning" true (contains "warning[KF0901]" text);
  Alcotest.(check bool) "fell back" true (contains "degraded: fell back" text);
  Alcotest.(check bool) "baseline kernel count" true (contains "kernels: 9 -> 9" text);
  let code, text = run_capture ~env [ "fuse"; "--app"; "harris"; "--strict" ] in
  Alcotest.(check bool) "strict exits nonzero" true (code <> 0);
  Alcotest.(check bool) "strict error" true (contains "error[KF0901]" text);
  let code, text = run_capture ~env:"KFUSE_FAULTS=nonsense@@" [ "list" ] in
  Alcotest.(check int) "malformed spec exits 2" 2 code;
  Alcotest.(check bool) "spec error message" true (contains "malformed KFUSE_FAULTS" text)

let cc_available = lazy (Sys.command "cc --version > /dev/null 2>&1" = 0)

let require_cc () = if not (Lazy.force cc_available) then Alcotest.skip ()

let test_run_native_e2e () =
  (* The full --native flow: plan, compile, execute, verify against the
     interpreter, write the result image. *)
  require_cc ();
  with_temp_dir @@ fun dir ->
  let input = Filename.concat dir "in.pgm" in
  let output = Filename.concat dir "out.pgm" in
  let img =
    Kfuse_image.Image.init ~width:32 ~height:24 (fun x y ->
        0.1 +. (0.8 *. float_of_int ((x + y) mod 7) /. 7.0))
  in
  Kfuse_image.Pgm.write input img;
  let args file =
    [
      "run"; Filename.concat pipelines_dir file; "--native"; "--cache-dir"; dir;
      "-i"; input; "-o"; output;
    ]
  in
  let code, text = run_capture (args "sobel.pipe") in
  Alcotest.(check int) "native run exits 0" 0 code;
  Alcotest.(check bool) "native diff reported as exactly 0" true
    (contains "native max-abs-diff vs interpreter: 0" text);
  Alcotest.(check bool) "compile reported" true (contains "kfusec: native (" text);
  Alcotest.(check bool) "image written" true (contains "wrote" text);
  let out = Kfuse_image.Pgm.read output in
  Alcotest.(check int) "output width" 32 (Kfuse_image.Image.width out);
  (* Same plan again: the artifact cache serves the compile. *)
  let code, text = run_capture (args "sobel.pipe") in
  Alcotest.(check int) "cached run exits 0" 0 code;
  Alcotest.(check bool) "artifact cache hit" true (contains "(cached)" text);
  (* Forced subprocess mode agrees too. *)
  let code, text =
    run_capture (args "sobel.pipe" @ [ "--exec-mode"; "subprocess" ])
  in
  Alcotest.(check int) "subprocess run exits 0" 0 code;
  Alcotest.(check bool) "subprocess diff 0" true
    (contains "native max-abs-diff vs interpreter: 0" text);
  (* A runner arena that cannot be allocated (here EFBIG from fallocate
     under a file size cap of 1024 blocks, at most 1 MiB, as ENOSPC on
     a full shmem) is a typed KF0904 before any runner starts, not a
     signal.  The cap leaves room to compile; a 640x480 input and
     output need 4.9 MB. *)
  let big = Filename.concat dir "big.pgm" in
  Kfuse_image.Pgm.write big (Kfuse_image.Image.const ~width:640 ~height:480 0.5);
  let code, text =
    run_capture ~env:"trap '' XFSZ; ulimit -f 1024; KFUSE_FAULTS="
      [
        "run"; Filename.concat pipelines_dir "sobel.pipe"; "--native"; "--cache-dir"; dir;
        "-i"; big; "--exec-mode"; "subprocess";
      ]
  in
  Alcotest.(check bool) "capped run fails" true (code <> 0);
  Alcotest.(check bool) "typed KF0904 on the arena allocation" true
    (contains "KF0904" text && contains "cannot allocate the runner arena" text)

(* A daemon killed with SIGKILL cannot retire its sandbox runners, yet
   none may outlive it: each sees EOF on its request pipe and exits. *)
let test_serve_killed_leaves_no_runner () =
  require_cc ();
  with_temp_dir @@ fun dir ->
  with_daemon "serve" [ "--cache-dir"; dir ] @@ fun d ->
  let code, text = query d [ "--exec"; "-a"; "sobel"; "--width"; "8"; "--height"; "6" ] in
  Alcotest.(check int) "sandboxed exec answers" 0 code;
  Alcotest.(check bool) "through a runner" true (contains "\"mode\":\"subprocess\"" text);
  let runners () = processes_mentioning (Filename.concat dir "native") in
  Alcotest.(check int) "one warm runner" 1 (List.length (runners ()));
  kill d;
  let rec gone n =
    match runners () with
    | [] -> ()
    | l when n = 0 -> Alcotest.failf "runner(s) %s outlived the daemon" (String.concat ", " l)
    | _ -> Unix.sleepf 0.05; gone (n - 1)
  in
  gone 100

(* SIGTERM stops a daemon whose socket file is gone: waking the accept
   thread must not go through the socket's path.  The warm runner and
   the default cache live under [d.dir], so [stop] sees any runner left. *)
let test_serve_stops_without_socket_file () =
  require_cc ();
  with_daemon "serve" [] @@ fun d ->
  let code, _ = query d [ "--exec"; "-a"; "sobel"; "--width"; "8"; "--height"; "6" ] in
  Alcotest.(check int) "sandboxed exec answers" 0 code;
  Alcotest.(check int) "one warm runner" 1
    (List.length (processes_mentioning (Filename.concat d.dir "xdg")));
  Sys.remove d.socket;
  stop d

(* The same for a router, once its fleet is ready: no shard is left. *)
let test_shard_serve_stops_without_socket_file () =
  with_daemon "shard-serve" [ "--shards"; "2" ] @@ fun d ->
  Sys.remove d.socket;
  stop d

(* A second daemon binds the path of a first whose socket file was
   removed.  SIGTERM stops the first, which must leave the second's
   socket alone; the second keeps answering and drains as usual. *)
let test_serve_spares_a_successors_socket () =
  with_temp_dir @@ fun shared ->
  let socket = Filename.concat shared "d.sock" in
  with_daemon ~socket "serve" [] @@ fun first ->
  Sys.remove socket;
  with_daemon ~socket "serve" [] @@ fun second ->
  stop ~taken:true first;
  let code, text = query second [ "--ping" ] in
  Alcotest.(check int) "the second answers" 0 code;
  Alcotest.(check bool) "pong" true (contains "pong" text)

(* Descriptor exhaustion must not kill the accept loop.  Under a 24-fd
   limit, 40 held connections drive accept(2) into EMFILE; once they are
   closed, the daemon answers again and has counted the failed accepts. *)
let test_serve_survives_emfile () =
  with_temp_dir @@ fun dir ->
  with_daemon ~ulimit:"-n 24" "serve"
    [ "--cache-dir"; dir; "-j"; "1"; "--request-timeout-ms"; "0" ]
  @@ fun d ->
  let held =
    List.init 40 (fun _ ->
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX d.socket);
        fd)
  in
  Unix.sleepf 0.3;
  List.iter Unix.close held;
  let code, text = query d [ "--timeout-ms"; "5000"; "--ping" ] in
  Alcotest.(check int) "ping answers after the burst" 0 code;
  Alcotest.(check bool) "pong" true (contains "pong" text);
  let code, text = query d [ "--stats" ] in
  Alcotest.(check int) "stats answers" 0 code;
  let accept_errors =
    match Kfuse_service.Jsonx.of_string text with
    | Ok stats ->
      Option.bind (Kfuse_service.Jsonx.member "connections" stats)
        (Kfuse_service.Jsonx.mem_num "accept_errors")
    | Error e -> Alcotest.failf "stats is not JSON (%s): %s" e text
  in
  Alcotest.(check bool) "failed accepts are counted" true
    (match accept_errors with Some n -> n >= 1.0 | None -> false)

(* A fuse_exec whose images could never fit the sandbox is a KF0907
   before the daemon allocates any of them, whether it asks for a
   summary, a verification or pixels; with one worker, a request that
   killed it would leave every later one hanging.  The address-space cap
   makes a daemon that did allocate 40000x40000 images fail the same way
   on any host. *)
let test_serve_refuses_oversized_exec () =
  with_temp_dir @@ fun dir ->
  with_daemon ~ulimit:"-v 4194304" "serve" [ "--cache-dir"; dir; "-j"; "1"; "--max-conns"; "1" ]
  @@ fun d ->
  List.iter
    (fun flags ->
      let code, text =
        query d
          ([ "--timeout-ms"; "20000"; "--exec"; "-a"; "sobel"; "--width"; "40000";
             "--height"; "40000" ]
          @ flags)
      in
      let what = String.concat " " ("oversized fuse_exec" :: flags) in
      Alcotest.(check bool) (what ^ " fails") true (code <> 0);
      Alcotest.(check bool) (what ^ " is KF0907") true (contains "KF0907" text))
    [ []; [ "--verify" ]; [ "--pixels" ] ];
  let code, text = query d [ "--timeout-ms"; "5000"; "--ping" ] in
  Alcotest.(check int) "ping answers after the refusals" 0 code;
  Alcotest.(check bool) "pong" true (contains "pong" text)

(* Line-buffered kernels give each OpenMP thread one contiguous strip of
   rows.  Sandboxed runs with one and three threads (the runner inherits
   OMP_NUM_THREADS from kfusec), at extents whose strips are tiny or
   uneven, stay bit-exact: enhance, and a log under a 3x3 box that
   min-cut fuses point-to-local. *)
let test_run_native_strips () =
  require_cc ();
  with_temp_dir @@ fun dir ->
  let logbox = Filename.concat dir "logbox.pipe" in
  Out_channel.with_open_text logbox (fun oc ->
      output_string oc
        "pipeline logbox(in) {\n\
        \  size 64 64\n\
        \  l   = log(in + 0.5)\n\
        \  out = conv(l, mean3, mirror)\n\
         }\n");
  let inputs =
    List.map
      (fun (width, height) ->
        let input = Filename.concat dir (Printf.sprintf "in%dx%d.pgm" width height) in
        Kfuse_image.Pgm.write input
          (Kfuse_image.Image.init ~width ~height (fun x y ->
               0.05 +. (0.9 *. float_of_int (((7 * x) + (13 * y)) mod 17) /. 17.0)));
        (width, height, input))
      [ (3, 3); (5, 17); (1023, 7) ]
  in
  (* One thread count after the other: the two runs of an artifact
     never compile it at once. *)
  let runs =
    List.concat_map
      (fun threads ->
        List.concat_map
          (fun (width, height, input) ->
            List.map (fun target -> (width, height, input, threads, target))
              [ [ "-a"; "enhance" ]; [ logbox ] ])
          inputs)
      [ 1; 3 ]
  in
  map2_threads
    (fun (width, height, input, threads, target) ->
      let out = Filename.concat dir (Printf.sprintf "out-%dx%d-%d-%s.pgm" width height threads
          (Filename.basename (List.hd (List.rev target)))) in
      let code, text =
        run_capture
          ~env:(Printf.sprintf "KFUSE_FAULTS= OMP_NUM_THREADS=%d" threads)
          (("run" :: target)
          @ [ "--native"; "--exec-mode"; "subprocess"; "--cache-dir"; dir; "-i"; input; "-o"; out ])
      in
      let what =
        Printf.sprintf "%s %dx%d, %d thread(s)" (List.hd (List.rev target)) width height threads
      in
      (what, code, text))
    runs
  |> List.iter (fun (what, code, text) ->
         Alcotest.(check int) (what ^ " exits 0") 0 code;
         if not (contains "native max-abs-diff vs interpreter: 0\n" text) then
           Alcotest.failf "%s is not bit-exact:\n%s" what text)

let test_run_native_no_toolchain () =
  (* KFUSE_CC pointing nowhere must surface as a typed KF0902, not a
     crash.  The subprocess env keeps the probe isolated from the
     suite's own toolchain discovery. *)
  with_temp_dir @@ fun dir ->
  let input = Filename.concat dir "in.pgm" in
  Kfuse_image.Pgm.write input (Kfuse_image.Image.const ~width:8 ~height:8 0.5);
  let code, text =
    run_capture ~env:"KFUSE_FAULTS= KFUSE_CC=/definitely/not/a/compiler"
      [
        "run"; Filename.concat pipelines_dir "sobel.pipe"; "--native";
        "--cache-dir"; dir; "-i"; input; "-o"; Filename.concat dir "out.pgm";
      ]
  in
  Alcotest.(check bool) "missing toolchain fails" true (code <> 0);
  Alcotest.(check bool) "typed KF0902" true (contains "KF0902" text)

let test_fuzz_native_smoke () =
  require_cc ();
  let code, text = run_capture [ "fuzz"; "--cases"; "2"; "--seed"; "3"; "--native" ] in
  Alcotest.(check int) "native fuzz exits 0" 0 code;
  Alcotest.(check bool) "campaign is clean" true (contains "no failures" text)

let test_bench_native_small () =
  require_cc ();
  with_temp_dir @@ fun dir ->
  let out = Filename.concat dir "bench.json" in
  let code, text =
    run_capture
      [
        "bench-native"; "-o"; out; "--runs"; "3"; "--width"; "32"; "--height"; "24";
        "--apps"; "sobel,unsharp"; "--cache-dir"; dir;
      ]
  in
  (* Exit 0 means every output matched the interpreter exactly. *)
  Alcotest.(check int) "bench-native exits 0" 0 code;
  Alcotest.(check bool) "summary table printed" true (contains "sobel" text);
  let json = json_of "BENCH_native.json" (read_file out) in
  Alcotest.(check (option string)) "versioned schema" (Some "kfuse-bench-native/v2")
    (Jsonx.mem_str "schema" json);
  let apps = Option.value ~default:[] (Option.bind (Jsonx.member "apps" json) Jsonx.arr) in
  Alcotest.(check (list (option string))) "both apps present"
    [ Some "sobel"; Some "unsharp" ]
    (List.map (Jsonx.mem_str "app") apps);
  List.iter
    (fun app ->
      Alcotest.(check bool) "spread reported" true
        (Option.is_some (Jsonx.mem_num "exec_iqr_ms_fused" app));
      Alcotest.(check (option (float 0.))) "exact difference recorded" (Some 0.)
        (Jsonx.mem_num "max_abs_diff_fused" app))
    apps

let test_bench_native_bad_args () =
  (* Bad sizes and names are rejected before the toolchain is probed:
     a broken compiler must not mask them, and they are typed
     diagnostics with exit 1, never cmdliner's internal-error 125. *)
  List.iter
    (fun (args, id) ->
      let what = String.concat " " args in
      let code, text =
        run_capture ~env:"KFUSE_FAULTS= KFUSE_CC=/definitely/not/a/compiler"
          ([ "bench-native"; "-o"; "-" ] @ args)
      in
      Alcotest.(check int) (what ^ " exits 1") 1 code;
      Alcotest.(check bool)
        (what ^ " is " ^ id)
        true
        (contains ("kfusec: error[" ^ id ^ "]") text))
    [
      ([ "--runs"; "0"; "--apps"; "sobel" ], "KF0401");
      ([ "--width"; "0"; "--apps"; "sobel" ], "KF0504");
      ([ "--height"; "0"; "--apps"; "sobel" ], "KF0504");
      ([ "--apps"; "nosuchapp" ], "KF0101");
    ]

let test_emit_refuses_int_overflow () =
  (* Generated C indexes with int: a 65536x65536 space (2^32 elements)
     is refused at validation, before any planning or emission. *)
  with_temp_dir @@ fun dir ->
  let file = Filename.concat dir "huge.pipe" in
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        "pipeline huge(in) {\n  size 65536 65536\n  dx = conv(in, sobelx, clamp)\n}\n");
  let code, text = run_capture [ "emit"; "--backend"; "cpu"; file ] in
  Alcotest.(check int) "emit exits 1" 1 code;
  Alcotest.(check bool) "emit is KF0504" true (contains "error[KF0504]" text);
  Alcotest.(check bool) "nothing emitted" false (contains "void k_dx" text)

let test_repl_script () =
  (* The lazy-pipeline repl, batch mode: build a two-chain DAG, flush
     incrementally and from scratch, and check the two fingerprints the
     transcript prints are equal (the differential invariant, through
     the real binary). *)
  with_temp_dir @@ fun dir ->
  let script = Filename.concat dir "edit.kf" in
  Out_channel.with_open_text script (fun oc ->
      output_string oc
        "# repl e2e\n\
         input in\n\
         add blur = conv(in, gauss3, mirror)\n\
         param gain 1.5\n\
         add mag = blur * gain + in\n\
         show\n\
         flush\n\
         add mix = mag - blur\n\
         flush\n\
         flush scratch\n\
         quit\n");
  let code, text =
    run_capture [ "repl"; "--width"; "48"; "--height"; "32"; "--script"; script ]
  in
  Alcotest.(check int) "repl script exits 0" 0 code;
  Alcotest.(check bool) "edits applied" true (contains "applied: append mix" text);
  Alcotest.(check bool) "show prints state" true (contains "kernels (2): blur mag" text);
  let fingerprints =
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' (String.trim l) with
           | [ "fingerprint"; fp ] -> Some fp
           | _ -> None)
  in
  Alcotest.(check int) "three flush fingerprints" 3 (List.length fingerprints);
  (match fingerprints with
  | [ first; incr; scratch ] ->
    Alcotest.(check string) "incremental = scratch" scratch incr;
    Alcotest.(check bool) "edit changed the plan" true (first <> incr)
  | _ -> Alcotest.fail "unexpected fingerprint lines");
  (* A rejected command aborts batch mode with the offending line. *)
  let bad = Filename.concat dir "bad.kf" in
  Out_channel.with_open_text bad (fun oc ->
      output_string oc "input in\nfrob x\n");
  let code, text =
    run_capture [ "repl"; "--width"; "8"; "--height"; "8"; "--script"; bad ]
  in
  Alcotest.(check int) "bad script exits 1" 1 code;
  Alcotest.(check bool) "typed parse error" true (contains "error[KF0201]" text);
  Alcotest.(check bool) "line number reported" true (contains "repl:2" text)

(* A one-shot dlopen run with a full OpenMP team used to dlclose libgomp
   under its own pool threads and segfault a dlopen-trusted daemon: the
   reply is clean, the daemon still answers, and SIGTERM drains it. *)
let test_serve_dlopen_full_team () =
  require_cc ();
  with_daemon "serve" [ "--exec-sandbox"; "dlopen-trusted" ] @@ fun d ->
  let reply = query_json d [ "--exec"; "-a"; "harris"; "--width"; "1024"; "--height"; "1024" ] in
  Alcotest.(check (option string)) "status ok" (Some "ok") (Kfuse_service.Jsonx.mem_str "status" reply);
  Alcotest.(check (option string)) "in process" (Some "dlopen")
    (Kfuse_service.Jsonx.mem_str "mode" (field "exec" reply));
  Alcotest.(check (pair int string)) "still answering" (0, "pong\n") (query d [ "--ping" ]);
  stop d

(* The same edit script through the local repl and through a live
   daemon's lazy session prints the same plan fingerprints: the retarget
   changes the plan, its incremental flush equals the scratch one and
   reuses the untouched chain's blocks, and the daemon accounts for the
   one session. *)
let test_repl_local_vs_daemon () =
  with_temp_dir @@ fun dir ->
  let script = Filename.concat dir "edit.kf" in
  Out_channel.with_open_text script (fun oc ->
      output_string oc
        "# two weakly-connected chains; the retarget dirties only one\n\
         input in\n\
         add blur = conv(in, gauss3, mirror)\n\
         param gain 1.5\n\
         add mag = blur * gain + in\n\
         input aux\n\
         add a1 = conv(aux, gauss5, mirror)\n\
         add a2 = a1 * 2.0\n\
         add mix = mag - blur\n\
         flush\n\
         retarget mix blur in\n\
         flush  # a trailing comment is no part of the command\n\
         flush scratch\n\
         quit\n");
  let repl extra = run_capture ([ "repl"; "--width"; "64"; "--height"; "48" ] @ extra @ [ "--script"; script ]) in
  let code, text = repl [] in
  Alcotest.(check int) "local repl exits 0" 0 code;
  let local =
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with [ "fingerprint"; fp ] -> Some fp | _ -> None)
  in
  with_daemon "serve" [ "-j"; "2" ] @@ fun d ->
  let code, text = repl [ "--socket"; d.socket ] in
  Alcotest.(check int) "remote repl exits 0" 0 code;
  let remote =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (json_of "repl --socket line")
  in
  let module J = Kfuse_service.Jsonx in
  let fps = List.filter_map (J.mem_str "fingerprint") remote in
  Alcotest.(check (list string)) "same fingerprints" local fps;
  (match fps with
  | [ first; incr; scratch ] ->
    Alcotest.(check string) "incremental = scratch" scratch incr;
    Alcotest.(check bool) "the retarget changed the plan" true (first <> incr)
  | _ -> Alcotest.failf "expected three flushes, got %d" (List.length fps));
  let flushes = List.filter (fun v -> J.member "replan" v <> None) remote in
  Alcotest.(check (list (option bool))) "which flushes bypass the memos"
    [ Some false; Some false; Some true ]
    (List.map (J.mem_bool "scratch") flushes);
  (match flushes with
  | _ :: second :: _ ->
    Alcotest.(check bool) "the retarget flush reused blocks" true
      (num_at second [ "replan"; "blocks_reused" ] > 0.0)
  | _ -> Alcotest.fail "fewer than two flush replies");
  (match List.rev (List.filter (fun v -> J.member "flushes" v <> None) remote) with
  | close :: _ -> Alcotest.(check (float 0.0)) "close counts 3 flushes" 3.0 (num_at close [ "flushes" ])
  | [] -> Alcotest.fail "no lazy_close reply");
  let lazy_ = field "lazy" (query_json d [ "--stats" ]) in
  List.iter
    (fun (k, want) -> Alcotest.(check (float 0.0)) ("lazy " ^ k) want (num_at lazy_ [ k ]))
    [ ("opened", 1.0); ("closed", 1.0); ("active", 0.0) ];
  shutdown d

(* The long options a subcommand's --help lists under OPTIONS (the
   section before cmdliner's COMMON OPTIONS: --help and --version). *)
let long_options cmd =
  let code, text = run_capture [ cmd; "--help=plain" ] in
  Alcotest.(check int) (cmd ^ " --help exit code") 0 code;
  let names line =
    String.split_on_char ' ' line
    |> List.filter_map (fun w ->
           if String.starts_with ~prefix:"--" w then
             let w = String.sub w 2 (String.length w - 2) in
             Some (List.hd (String.split_on_char '=' (List.hd (String.split_on_char ',' w))))
           else None)
  in
  let rec options acc = function
    | [] -> acc
    | l :: _ when String.length l > 0 && l.[0] <> ' ' -> acc
    | l :: rest ->
      let acc = if String.starts_with ~prefix:"       -" l then names l @ acc else acc in
      options acc rest
  in
  let rec skip = function
    | [] -> Alcotest.failf "%s --help has no OPTIONS section" cmd
    | "OPTIONS" :: rest -> options [] rest
    | _ :: rest -> skip rest
  in
  List.sort compare (skip (String.split_on_char '\n' text))

(* The daemons take only the settings that something sets: the fusion
   model and the search budget are per request, and the supervision
   and session bounds are constants. *)
let test_daemon_option_surface () =
  Alcotest.(check (list string)) "serve options"
    [
      "cache"; "cache-dir"; "crash-dir"; "drain-timeout"; "exec-sandbox"; "jobs"; "max-conns";
      "queue"; "request-timeout-ms"; "socket";
    ]
    (long_options "serve");
  Alcotest.(check (list string)) "shard-serve options"
    [
      "cache-dir"; "drain-timeout"; "health-interval-ms"; "max-conns"; "queue";
      "request-timeout-ms"; "shard-dir"; "shards"; "socket";
    ]
    (long_options "shard-serve")

(* A fusion-model flag is a usage error for serve, reported before the
   daemon binds its socket: a daemon that started would never exit. *)
let test_serve_refuses_model_flag () =
  with_temp_dir @@ fun dir ->
  let socket = Filename.concat dir "d.sock" in
  let daemon =
    match
      Kfuse_exec.Supervisor.Child.spawn
        ~argv:
          [
            "sh"; "-c";
            Printf.sprintf "KFUSE_FAULTS= exec %s serve --gamma 1 --socket %s --cache-dir %s"
              kfusec (Filename.quote socket) (Filename.quote dir);
          ]
        ()
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "cannot start kfusec serve: %s" e
  in
  let rec await n =
    match Kfuse_exec.Supervisor.Child.poll daemon with
    | Some st -> st
    | None when n = 0 ->
      let bound = Sys.file_exists socket in
      ignore (Kfuse_exec.Supervisor.Child.terminate daemon);
      Alcotest.failf "serve --gamma 1 kept running (socket bound: %b)" bound
    | None -> Unix.sleepf 0.05; await (n - 1)
  in
  (match await 200 with
  | Unix.WEXITED 124 -> ()
  | Unix.WEXITED c -> Alcotest.failf "serve --gamma 1 exited %d, not the usage code 124" c
  | _ -> Alcotest.fail "serve --gamma 1 died on a signal");
  Alcotest.(check bool) "socket never bound" false (Sys.file_exists socket)

let test_budget_e2e () =
  let code, text =
    run_capture [ "fuse"; "--app"; "harris"; "--budget-ms"; "0" ]
  in
  Alcotest.(check int) "budget fallback exits 0" 0 code;
  Alcotest.(check bool) "budget warning" true (contains "warning[KF0603]" text);
  let code, _ =
    run_capture [ "fuse"; "--app"; "harris"; "--budget-ms"; "0"; "--strict" ]
  in
  Alcotest.(check bool) "strict budget exits nonzero" true (code <> 0)

(* A local repl and a --socket one seed the same builder: an app at an
   extent override, and an empty builder's inputs refused for the same
   reason with the same message.  [show] prints the local builder; the
   daemon's lazy_open reply carries the same fields. *)
let test_repl_local_and_socket_seed_alike () =
  with_temp_dir @@ fun dir ->
  let script = Filename.concat dir "show.kf" in
  Out_channel.with_open_text script (fun oc -> output_string oc "show\nquit\n");
  let module J = Kfuse_service.Jsonx in
  with_daemon "serve" [] @@ fun d ->
  let repl args = run_capture ([ "repl" ] @ args @ [ "--script"; script ]) in
  let local args =
    let code, text = repl args in
    if code <> 0 then Alcotest.failf "local repl %s exited %d: %s" (String.concat " " args) code text;
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"applied" l))
  in
  (* The opening reply, rendered as [show] renders a builder. *)
  let remote args =
    let code, text = repl (args @ [ "--socket"; d.socket ]) in
    if code <> 0 then Alcotest.failf "repl --socket %s exited %d: %s" (String.concat " " args) code text;
    let opened = json_of "lazy_open reply" (List.hd (String.split_on_char '\n' text)) in
    let int k = int_of_float (num_at opened [ k ]) in
    let strs k =
      match Option.bind (J.member k opened) J.arr with
      | Some l -> String.concat " " (List.filter_map J.str l)
      | None -> Alcotest.failf "lazy_open reply lacks %S" k
    in
    let kernels = Option.value ~default:[] (Option.bind (J.member "kernels" opened) J.arr) in
    [
      Printf.sprintf "pipeline %s: %dx%dx%d, generation %d"
        (Option.get (J.mem_str "name" opened))
        (int "width") (int "height") (int "channels") (int "generation");
      "inputs: " ^ strs "inputs";
      Printf.sprintf "kernels (%d): %s" (List.length kernels) (strs "kernels");
    ]
  in
  let at_extent = [ "-a"; "sobel"; "--width"; "40"; "--height"; "30" ] in
  let seeded = local at_extent in
  Alcotest.(check bool) "local builder at 40x30" true
    (contains ": 40x30x1," (List.hd seeded));
  Alcotest.(check (list string)) "an app at an extent override" seeded (remote at_extent);
  List.iter
    (fun (inputs, code) ->
      let args = [ "--width"; "8"; "--height"; "8"; "--inputs"; inputs ] in
      let lcode, ltext = repl args and rcode, rtext = repl (args @ [ "--socket"; d.socket ]) in
      Alcotest.(check (pair int int)) ("--inputs " ^ inputs ^ " exits 1 in both") (1, 1)
        (lcode, rcode);
      Alcotest.(check bool) ("--inputs " ^ inputs ^ " is " ^ code) true (contains code ltext);
      Alcotest.(check string) ("--inputs " ^ inputs ^ ": the same refusal") rtext ltext)
    [ ("1x,a", "error[KF0202]"); ("a,a", "error[KF0503]") ];
  shutdown d

(* An [input] line is held to the rules [--inputs] is: a name that is
   not an identifier, or one already an input, is refused with the
   same diagnostic by the local builder and by a daemon's session, and
   an interactive session goes on to take the next input. *)
let test_repl_input_refused_alike () =
  with_temp_dir @@ fun dir ->
  let lines = Filename.concat dir "lines.kf" in
  Out_channel.with_open_text lines (fun oc ->
      output_string oc "input 1x\ninput a\ninput b\nshow\nquit\n");
  with_daemon "serve" [] @@ fun d ->
  let repl extra =
    let code, text =
      run_capture
        ([ "repl"; "--width"; "8"; "--height"; "8"; "--inputs"; "a" ] @ extra
        @ [ "<"; Filename.quote lines ])
    in
    Alcotest.(check int) (String.concat " " ("repl" :: extra) ^ " exits 0") 0 code;
    let out =
      String.split_on_char '\n' text
      |> List.map (fun l ->
             let p = "kfuse> " in
             if String.starts_with ~prefix:p l then
               String.sub l (String.length p) (String.length l - String.length p)
             else l)
    in
    (List.filter (contains "error[") out, out)
  in
  let lrefused, local = repl [] and rrefused, remote = repl [ "--socket"; d.socket ] in
  Alcotest.(check (list string)) "refused in order, for its own reason"
    [
      "kfusec: error[KF0202]: input \"1x\" is not an identifier";
      "kfusec: error[KF0503]: duplicate input \"a\"";
    ]
    lrefused;
  Alcotest.(check (list string)) "the daemon refuses alike" lrefused rrefused;
  Alcotest.(check bool) "the local session takes the next input" true
    (List.mem "inputs: a b" local);
  let shown =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"{" l then
          Option.bind (Jsonx.member "inputs" (json_of "repl --socket reply" l)) Jsonx.arr
        else None)
      remote
  in
  Alcotest.(check (list string)) "the daemon's session takes the next input" [ "a"; "b" ]
    (List.filter_map Jsonx.str (List.nth shown (List.length shown - 1)));
  shutdown d

let suite =
  [
    Alcotest.test_case "list" `Quick test_list;
    Alcotest.test_case "fuse built-in app" `Quick test_fuse_app;
    Alcotest.test_case "fuse DSL file" `Quick test_fuse_dsl_file;
    Alcotest.test_case "emit cuda + cpu" `Quick test_emit_cuda_and_cpu;
    Alcotest.test_case "estimate" `Quick test_estimate;
    Alcotest.test_case "explain/dot/unparse" `Quick test_explain_dot_unparse;
    Alcotest.test_case "run on PGM image" `Quick test_run_on_pgm;
    Alcotest.test_case "check subcommand" `Quick test_check;
    Alcotest.test_case "read_file diagnostic" `Quick test_read_file_diagnostic;
    Alcotest.test_case "fault injection end-to-end" `Quick test_fault_injection_e2e;
    Alcotest.test_case "budget end-to-end" `Quick test_budget_e2e;
    Alcotest.test_case "serve and shard-serve option surface" `Quick
      test_daemon_option_surface;
    Alcotest.test_case "serve refuses a fusion-model flag" `Quick
      test_serve_refuses_model_flag;
    Alcotest.test_case "bench-native rejects bad arguments" `Quick test_bench_native_bad_args;
    Alcotest.test_case "emit refuses a space past int indexing" `Quick
      test_emit_refuses_int_overflow;
    Alcotest.test_case "repl --script end-to-end" `Quick test_repl_script;
    Alcotest.test_case "run --native end-to-end" `Slow test_run_native_e2e;
    Alcotest.test_case "run --native: line buffers on uneven strips, 1 and 3 threads" `Slow
      test_run_native_strips;
    Alcotest.test_case "serve: a killed daemon leaves no runner" `Slow
      test_serve_killed_leaves_no_runner;
    Alcotest.test_case "serve: SIGTERM stops it after its socket file is removed" `Quick
      test_serve_stops_without_socket_file;
    Alcotest.test_case "shard-serve: SIGTERM stops it after its socket file is removed" `Quick
      test_shard_serve_stops_without_socket_file;
    Alcotest.test_case "serve: a stopping daemon spares the socket a successor bound" `Quick
      test_serve_spares_a_successors_socket;
    Alcotest.test_case "serve: accept survives descriptor exhaustion" `Quick
      test_serve_survives_emfile;
    Alcotest.test_case "serve: an oversized fuse_exec is a KF0907, not a dead worker" `Quick
      test_serve_refuses_oversized_exec;
    Alcotest.test_case "run --native without a toolchain" `Quick
      test_run_native_no_toolchain;
    Alcotest.test_case "fuzz --native smoke" `Slow test_fuzz_native_smoke;
    Alcotest.test_case "bench-native is bit-exact" `Slow test_bench_native_small;
    Alcotest.test_case "serve --exec-sandbox dlopen-trusted survives a full OpenMP team" `Slow
      test_serve_dlopen_full_team;
    Alcotest.test_case "repl --script: local and --socket transcripts agree" `Slow
      test_repl_local_vs_daemon;
    Alcotest.test_case "repl: local and --socket sessions seed the same builder" `Slow
      test_repl_local_and_socket_seed_alike;
    Alcotest.test_case "repl: an input line is refused alike locally and by --socket" `Slow
      test_repl_input_refused_alike;
  ]
