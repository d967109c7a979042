(* End-to-end tests of the kfusec command-line driver: run the real
   binary on real DSL files and check outputs.  The binary and the
   example pipelines are declared as dune test dependencies. *)

let kfusec = "../bin/kfusec.exe"
let pipelines_dir = "../examples/pipelines"

(* [env] is a shell prefix like "KFUSE_FAULTS=cut.stoer_wagner@1" for
   the fault-injection end-to-end tests.  The default empty assignment
   insulates the regular tests from a KFUSE_FAULTS inherited from the
   environment (CI sets one for the fault matrix job). *)
let run_capture ?(env = "KFUSE_FAULTS=") args =
  let out = Filename.temp_file "kfusec_out" ".txt" in
  let cmd =
    Printf.sprintf "%s %s %s > %s 2>&1" env kfusec (String.concat " " args) out
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_text out In_channel.input_all in
  (try Sys.remove out with Sys_error _ -> ());
  (code, text)

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

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

let test_dsl_check_ok_and_error () =
  check_contains "dsl-check"
    (run_capture [ "dsl-check"; Filename.concat pipelines_dir "unsharp.pipe" ])
    [ "OK (4 kernels" ];
  let code, text = run_capture [ "fuse"; "--app"; "not_an_app" ] in
  Alcotest.(check bool) "bad app fails" true (code <> 0);
  Alcotest.(check bool) "helpful error" true (contains "unknown application" text)

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
  check_contains "check DSL file"
    (run_capture [ "check"; Filename.concat pipelines_dir "sobel.pipe" ])
    [ "OK (3 kernels" ];
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

let with_temp_dir f =
  let dir = Filename.temp_file "kfusec_native" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

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
  let socket = Filename.concat dir "d.sock" in
  let daemon =
    match
      (* [exec] keeps the daemon at the child's pid; the empty
         KFUSE_FAULTS keeps a fault-matrix run's faults out of it. *)
      Kfuse_exec.Supervisor.Child.spawn
        ~argv:
          [
            "sh"; "-c";
            Printf.sprintf "KFUSE_FAULTS= exec %s serve --socket %s --cache-dir %s" kfusec
              (Filename.quote socket) (Filename.quote dir);
          ]
        ()
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "cannot start kfusec serve: %s" e
  in
  Fun.protect ~finally:(fun () -> ignore (Kfuse_exec.Supervisor.Child.terminate daemon))
  @@ fun () ->
  let rec wait_socket n =
    if not (Sys.file_exists socket) then
      if n = 0 then Alcotest.fail "kfusec serve never listened"
      else (Unix.sleepf 0.05; wait_socket (n - 1))
  in
  wait_socket 200;
  let code, text =
    run_capture [ "query"; "--socket"; socket; "--exec"; "-a"; "sobel"; "--width"; "8"; "--height"; "6" ]
  in
  Alcotest.(check int) "sandboxed exec answers" 0 code;
  Alcotest.(check bool) "through a runner" true (contains "\"mode\":\"subprocess\"" text);
  let native = Filename.concat dir "native" in
  let runners () =
    Array.to_list (Sys.readdir "/proc")
    |> List.filter (fun pid ->
           match In_channel.with_open_bin ("/proc/" ^ pid ^ "/cmdline") In_channel.input_all with
           | cmd -> String.starts_with ~prefix:native cmd
           | exception Sys_error _ -> false)
  in
  Alcotest.(check int) "one warm runner" 1 (List.length (runners ()));
  Kfuse_exec.Supervisor.Child.kill daemon;
  let rec gone n =
    match runners () with
    | [] -> ()
    | l when n = 0 -> Alcotest.failf "runner(s) %s outlived the daemon" (String.concat ", " l)
    | _ -> Unix.sleepf 0.05; gone (n - 1)
  in
  gone 100

(* Descriptor exhaustion must not kill the accept loop.  Under a 24-fd
   limit, 40 held connections drive accept(2) into EMFILE; once they are
   closed, the daemon answers again and has counted the failed accepts. *)
let test_serve_survives_emfile () =
  with_temp_dir @@ fun dir ->
  let socket = Filename.concat dir "d.sock" in
  let daemon =
    match
      Kfuse_exec.Supervisor.Child.spawn
        ~argv:
          [
            "sh"; "-c";
            Printf.sprintf
              "ulimit -n 24; KFUSE_FAULTS= exec %s serve --socket %s --cache-dir %s -j 1 \
               --request-timeout-ms 0"
              kfusec (Filename.quote socket) (Filename.quote dir);
          ]
        ()
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "cannot start kfusec serve: %s" e
  in
  Fun.protect ~finally:(fun () -> ignore (Kfuse_exec.Supervisor.Child.terminate daemon))
  @@ fun () ->
  let rec wait_socket n =
    if not (Sys.file_exists socket) then
      if n = 0 then Alcotest.fail "kfusec serve never listened"
      else (Unix.sleepf 0.05; wait_socket (n - 1))
  in
  wait_socket 200;
  let held =
    List.init 40 (fun _ ->
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        fd)
  in
  Unix.sleepf 0.3;
  List.iter Unix.close held;
  let code, text =
    run_capture [ "query"; "--socket"; socket; "--timeout-ms"; "5000"; "--ping" ]
  in
  Alcotest.(check int) "ping answers after the burst" 0 code;
  Alcotest.(check bool) "pong" true (contains "pong" text);
  let code, text = run_capture [ "query"; "--socket"; socket; "--stats" ] in
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
  List.iter
    (fun (width, height) ->
      let input = Filename.concat dir (Printf.sprintf "in%dx%d.pgm" width height) in
      Kfuse_image.Pgm.write input
        (Kfuse_image.Image.init ~width ~height (fun x y ->
             0.05 +. (0.9 *. float_of_int (((7 * x) + (13 * y)) mod 17) /. 17.0)));
      List.iter
        (fun threads ->
          List.iter
            (fun target ->
              let code, text =
                run_capture
                  ~env:(Printf.sprintf "KFUSE_FAULTS= OMP_NUM_THREADS=%d" threads)
                  (("run" :: target)
                  @ [
                      "--native"; "--exec-mode"; "subprocess"; "--cache-dir"; dir; "-i"; input;
                      "-o"; Filename.concat dir "out.pgm";
                    ])
              in
              let what =
                Printf.sprintf "%s %dx%d, %d thread(s)" (List.hd (List.rev target)) width height
                  threads
              in
              Alcotest.(check int) (what ^ " exits 0") 0 code;
              if not (contains "native max-abs-diff vs interpreter: 0\n" text) then
                Alcotest.failf "%s is not bit-exact:\n%s" what text)
            [ [ "-a"; "enhance" ]; [ logbox ] ])
        [ 1; 3 ])
    [ (3, 3); (5, 17); (1023, 7) ]

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
  let json = In_channel.with_open_text out In_channel.input_all in
  Alcotest.(check bool) "versioned schema" true (contains "kfuse-bench-native/v2" json);
  Alcotest.(check bool) "both apps present" true
    (contains "\"sobel\"" json && contains "\"unsharp\"" json);
  Alcotest.(check bool) "spread reported" true (contains "\"exec_iqr_ms_fused\"" json);
  Alcotest.(check bool) "exact difference recorded" true
    (contains "\"max_abs_diff_fused\": 0\n" json)

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

let suite =
  [
    Alcotest.test_case "list" `Quick test_list;
    Alcotest.test_case "fuse built-in app" `Quick test_fuse_app;
    Alcotest.test_case "fuse DSL file" `Quick test_fuse_dsl_file;
    Alcotest.test_case "emit cuda + cpu" `Quick test_emit_cuda_and_cpu;
    Alcotest.test_case "estimate" `Quick test_estimate;
    Alcotest.test_case "dsl-check + errors" `Quick test_dsl_check_ok_and_error;
    Alcotest.test_case "explain/dot/unparse" `Quick test_explain_dot_unparse;
    Alcotest.test_case "run on PGM image" `Quick test_run_on_pgm;
    Alcotest.test_case "check subcommand" `Quick test_check;
    Alcotest.test_case "read_file diagnostic" `Quick test_read_file_diagnostic;
    Alcotest.test_case "fault injection end-to-end" `Quick test_fault_injection_e2e;
    Alcotest.test_case "budget end-to-end" `Quick test_budget_e2e;
    Alcotest.test_case "bench-native rejects bad arguments" `Quick test_bench_native_bad_args;
    Alcotest.test_case "repl --script end-to-end" `Quick test_repl_script;
    Alcotest.test_case "run --native end-to-end" `Slow test_run_native_e2e;
    Alcotest.test_case "run --native: line buffers on uneven strips, 1 and 3 threads" `Slow
      test_run_native_strips;
    Alcotest.test_case "serve: a killed daemon leaves no runner" `Slow
      test_serve_killed_leaves_no_runner;
    Alcotest.test_case "serve: accept survives descriptor exhaustion" `Quick
      test_serve_survives_emfile;
    Alcotest.test_case "run --native without a toolchain" `Quick
      test_run_native_no_toolchain;
    Alcotest.test_case "fuzz --native smoke" `Slow test_fuzz_native_smoke;
    Alcotest.test_case "bench-native is bit-exact" `Slow test_bench_native_small;
  ]
