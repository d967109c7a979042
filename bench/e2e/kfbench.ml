(* kfbench: the end-to-end benchmark of kfuse.

     kfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--smoke] [--out FILE] [--kfusec PATH]
     kfbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]

   A run starts real kfusec daemons and drives one of four closed-loop
   workloads (see README.md) from this process, on at most two
   connections.  With --trace 0 it prints every end-to-end metric; with
   --trace 1 it runs the loop untraced and traced, replays the same
   seeded inputs in-process with a span around every layer call, and
   prints every per-layer metric.  The last line of standard output is
   one JSON object: correct, attempted, failed and the metrics.  Work
   files go to .kfbench/ in the current directory. *)

module Svc = Kfuse_service
module Jsonx = Svc.Jsonx

let now = Unix.gettimeofday

(* Daemons not yet stopped, killed if the run dies half-way. *)
let live : Daemon.t list ref = ref []

let kill_live () =
  List.iter
    (fun (d : Daemon.t) ->
      (try Unix.kill d.Daemon.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.Daemon.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

(* One fresh set-up: its duration, and the daemon's resident set once
   warm (summed over a fleet's processes). *)
let start (w : Loops.workload) ctx ~dir =
  let t0 = now () in
  let r = w.Loops.start ctx ~dir in
  let s = now () -. t0 in
  live := r.Loops.daemon :: !live;
  (r, { Report.setup_s = s; warm_rss_mb = sum Daemon.rss_mb (Daemon.pids r.Loops.daemon) })

(* Teardown is an op: a daemon that exits non-zero or on a signal
   fails it. *)
let teardown ctx (r : Loops.running) =
  r.Loops.close ();
  Loops.attempt ctx.Loops.acct;
  (match Daemon.stop r.Loops.daemon with
  | Ok () -> ()
  | Error msg -> Loops.fail ctx.Loops.acct msg);
  live := List.filter (fun d -> d != r.Loops.daemon) !live

(* Host CPU steal, in USER_HZ ticks, from the first line of /proc/stat. *)
let steal_ticks () =
  let first = List.hd (String.split_on_char '\n' (Daemon.read_file "/proc/stat")) in
  match String.split_on_char ' ' first with
  | "cpu" :: rest -> (
    match List.filter (( <> ) "") rest with
    | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> float_of_string steal
    | _ -> 0.)
  | _ -> 0.

(* One measured stretch, with the daemon's CPU time and the requests
   served marked at ten evenly spaced window boundaries. *)
let measured (r : Loops.running) ~traced ~seconds =
  let pids = Daemon.pids r.Loops.daemon in
  List.iter Daemon.reset_hwm pids;
  let lock = Mutex.create () and reqs = ref 0 and marks = ref [] in
  let mark () =
    marks := { Report.t = now (); cpu_ms = sum Daemon.cpu_ms pids; reqs = !reqs } :: !marks
  in
  let window = seconds /. 10. in
  let next = ref (now () +. window) and steal0 = steal_ticks () in
  mark ();
  let tick k =
    Mutex.lock lock;
    reqs := !reqs + k;
    if now () >= !next then begin
      mark ();
      next := !next +. window
    end;
    Mutex.unlock lock
  in
  let st = r.Loops.loop ~traced ~seconds ~tick in
  mark ();
  let steal =
    (steal_ticks () -. steal0) /. Daemon.ticks_per_s
    /. (st.Loops.wall_s *. float_of_int (Domain.recommended_domain_count ()))
  in
  Printf.printf "# loop %.1f s, %d requests, peak rss %.1f MiB, host cpu steal %.1f%%\n"
    st.Loops.wall_s st.Loops.requests (sum Daemon.hwm_mb pids) (steal *. 100.);
  (st, List.rev !marks)

(* Plan-cache and shed counters from the daemons' stats op, summed over
   the fleet. *)
let daemon_counters ctx (r : Loops.running) =
  let get path v =
    List.fold_left (fun v k -> Option.bind v (Jsonx.member k)) (Some v) path
    |> fun v -> Option.value ~default:0. (Option.bind v Jsonx.num)
  in
  List.fold_left
    (fun acc socket ->
      Loops.attempt ctx.Loops.acct;
      match Daemon.call socket Svc.Protocol.Stats with
      | Error d ->
        Loops.fail ctx.Loops.acct ("stats: " ^ Kfuse_util.Diag.to_string d);
        acc
      | Ok s ->
        List.map
          (fun (name, total) ->
            ( name,
              total
              +.
              match name with
              | "sheds" ->
                get [ "connections"; "shed" ] s
                +. get [ "streams"; "shed" ] s
                +. get [ "streams"; "frames_shed" ] s
                +. get [ "lazy"; "shed" ] s
              | key -> get [ "cache"; key ] s ))
          acc)
    (List.map
       (fun k -> (k, 0.))
       [ "hits"; "disk_hits"; "misses"; "iso_misses"; "evictions"; "sheds" ])
    r.Loops.stats_sockets

(* service.router_hop_ms: a warm fuse through a two-shard router minus
   the same fuse sent straight to its home shard.  Only DAGs homed on
   shard 0 are used, so the probe needs two connections. *)
let router_hop ctx ~dir ~seconds =
  let socket = Filename.concat dir "r.sock" and fleet = Filename.concat dir "fleet" in
  let d =
    Daemon.spawn ~kfusec:ctx.Loops.kfusec ~dir ~socket
      [ "shard-serve"; "--shards"; "2"; "--socket"; socket; "--shard-dir"; fleet ]
  in
  live := d :: !live;
  Loops.ready d (Daemon.pings d);
  Loops.ready d (Daemon.shards_up d);
  (* The router's keyspace: leading 32 bits of the structural
     fingerprint, mod the shard count. *)
  let home text =
    match Kfuse_dsl.Elaborate.parse_pipeline_diag text with
    | Error _ -> -1
    | Ok p ->
      let s = Kfuse_cache.Fingerprint.structural p in
      abs (Option.value ~default:0 (int_of_string_opt ("0x" ^ String.sub s 0 8))) mod 2
  in
  let texts =
    Array.to_list (Lazy.force ctx.Loops.pool)
    |> List.map (fun (dag : Inputs.dag) -> dag.Inputs.text)
    |> List.filter (fun t -> home t = 0)
    |> List.filteri (fun i _ -> i < 16)
  in
  let via = ref [] and direct = ref [] in
  let fuse c text =
    Loops.request ctx ~traced:false c "fuse"
      (Svc.Protocol.Fuse (Loops.fuse_request ~source:text ()))
  in
  Loops.connection ctx socket (fun router ->
      Loops.connection ctx (Filename.concat fleet "shard-0.sock") (fun shard ->
          List.iter (fun text -> ignore (fuse router text)) texts;
          let round () =
            List.iter
              (fun text ->
                let r1, ms1 = fuse router text in
                let r2, ms2 = fuse shard text in
                Loops.check ctx
                  (Loops.plan_summary r1 = Loops.plan_summary r2)
                  "router and home shard disagree on a plan";
                via := ms1 :: !via;
                direct := ms2 :: !direct)
              texts
          in
          let until = now () +. seconds in
          round ();
          while now () < until do
            round ()
          done));
  Loops.attempt ctx.Loops.acct;
  (match Daemon.stop d with Ok () -> () | Error msg -> Loops.fail ctx.Loops.acct msg);
  live := List.filter (fun x -> x != d) !live;
  (Report.median !via -. Report.median !direct, List.length !via)

(* ---- per-layer metrics ---- *)

let layer_metrics ~workload ~(mixed : Loops.stretch) ~(n : Replay.counts) ~counters ~hop
    ~retries =
  let open Report in
  let d ?under name = Span.durations ?under name in
  let med ?under name = median (d ?under name) in
  let cnt ?under name = List.length (d ?under name) in
  let ms ?under mname span = metric mname "ms" (cnt ?under span) (med ?under span) in
  let ratio name num den = metric name "ratio" den (float_of_int num /. float_of_int den) in
  let apps = Array.to_list Inputs.apps in
  let per_app span = List.map (fun app -> med (span ^ "." ^ app)) apps in
  let app_n span = List.fold_left (fun acc app -> acc + cnt (span ^ "." ^ app)) 0 apps in
  let kernel = per_app "exec.kernel" and sandbox = per_app "exec.sandbox" in
  let synth = per_app "image.synth" in
  let window =
    let rec add a b = match (a, b) with x :: a, y :: b -> (x +. y) :: add a b | _ -> [] in
    add (d "stream.bindings") (d "stream.advance")
  in
  let c k = List.assoc k counters in
  let lookups = c "hits" +. c "disk_hits" +. c "misses" +. c "iso_misses" in
  let cache_ratio name v = metric name "ratio" (int_of_float lookups) (v /. lookups) in
  let audit = med "lazy.validate" +. med "lazy.seam_check" +. med "lazy.fingerprint" in
  (* Round trip minus the in-process replay of the same work. *)
  let rtt cls =
    median
      (List.filter_map
         (fun (s : Loops.sample) -> if cls = "" || s.Loops.cls = cls then Some s.Loops.ms else None)
         mixed.Loops.samples)
  in
  let overhead =
    match workload with
    | "paper-exec" ->
      mean
        (List.map
           (fun app -> rtt app -. med ("image.synth." ^ app) -. med ("exec.sandbox." ^ app))
           apps)
    | "motion-stream" -> rtt "" -. (med "stream.frame" +. median window +. med "stream.kernel")
    | "plan-mix" -> rtt "" -. med "plan.request"
    | _ -> rtt "" -. med "lazy.op"
  in
  (* trace.overhead_pct: per request class, the median round trip of the
     traced operations of the mixed stretch over that of the untraced
     ones; the geometric mean over classes. *)
  let traced_over_untraced =
    List.filter_map
      (fun (cls, _) ->
        let half traced =
          List.filter_map
            (fun (s : Loops.sample) ->
              if s.Loops.cls = cls && s.Loops.traced = traced then Some s.Loops.ms else None)
            mixed.Loops.samples
        in
        match (half true, half false) with
        | [], _ | _, [] -> None
        | t, u -> Some (median t /. median u))
      (by_class mixed.Loops.samples)
  in
  let bytes =
    List.filter_map
      (fun (s : Loops.sample) -> if s.Loops.traced then Some (float_of_int s.Loops.bytes) else None)
      mixed.Loops.samples
  in
  [ metric "exec.kernel_ms" "ms" (app_n "exec.kernel") (mean kernel) ]
  @ List.map2
      (fun app v -> metric ("exec.kernel_ms." ^ app) "ms" (cnt ("exec.kernel." ^ app)) v)
      apps kernel
  @ [
      metric "exec.sandbox_ms" "ms" (app_n "exec.sandbox") (mean sandbox);
      metric "exec.marshal_ms" "ms" (app_n "exec.sandbox") (mean (List.map2 ( -. ) sandbox kernel));
      ratio "exec.artifact_hit_ratio" n.Replay.artifact_hits n.Replay.artifact_lookups;
      ms "exec.cc_ms" "exec.cc";
      ms "exec.load_ms" "exec.load";
      ms "codegen.emit_ms" "codegen.emit";
      metric "codegen.c_bytes" "bytes" (List.length n.Replay.c_bytes) (median n.Replay.c_bytes);
      metric "image.synth_ms" "ms" (app_n "image.synth") (mean synth);
      ms "stream.frame_ms" "stream.frame";
      ms "stream.kernel_ms" "stream.kernel";
      metric "stream.window_ms" "ms" (List.length window) (median window);
      ms "stream.open_ms" "stream.open";
      ms ~under:"plan.request" "cache.key_ms" "cache.key";
      ms ~under:"plan.request" "cache.find_ms" "cache.find";
      cache_ratio "cache.hit_ratio" (c "hits" +. c "disk_hits");
      cache_ratio "cache.iso_miss_ratio" (c "iso_misses");
      cache_ratio "cache.disk_hit_ratio" (c "disk_hits");
      metric "cache.evictions" "count" 1 (c "evictions");
      ms ~under:"plan.request" "dsl.parse_ms" "dsl.parse";
      ms ~under:"plan.request" "ir.validate_ms" "ir.validate";
      ms "fusion.benefit_ms" "fusion.benefit";
      ms "fusion.mincut_ms" "fusion.mincut";
      ms "fusion.transform_ms" "fusion.transform";
      ms "fusion.plan_ms" "fusion.plan";
      ratio "fusion.kernels_out_ratio" n.Replay.kernels_out n.Replay.kernels_in;
      ms "lazy.edit_ms" "lazy.edit";
      ms "lazy.flush_ms" "lazy.flush";
      ms "lazy.scratch_ms" "lazy.scratch";
      ms "lazy.seam_check_ms" "lazy.seam_check";
      ms "lazy.fingerprint_ms" "lazy.fingerprint";
      metric "lazy.audit_share" "ratio" (cnt "lazy.flush") (audit /. med "lazy.flush");
      ratio "lazy.blocks_reused_ratio" n.Replay.blocks_reused n.Replay.blocks;
      ratio "lazy.edges_reused_ratio" n.Replay.edges_reused n.Replay.edges;
      metric "lazy.fell_back" "count" (cnt "lazy.flush") (float_of_int n.Replay.fell_back);
      metric "service.overhead_ms" "ms" (List.length mixed.Loops.samples) overhead;
      metric "service.router_hop_ms" "ms" (snd hop) (fst hop);
      metric "service.reply_bytes" "bytes" (List.length bytes) (median bytes);
      metric "service.sheds" "count" 1 (c "sheds");
      metric "service.retries" "count" 1 (float_of_int retries);
      metric "trace.overhead_pct" "%" (List.length mixed.Loops.samples)
        ((geomean traced_over_untraced -. 1.) *. 100.);
    ]

(* paper-exec detail: where each app's round trip goes. *)
let print_decomposition (mixed : Loops.stretch) =
  let open Report in
  print_endline "# paper-exec round trip per app (ms): rtt = synth + sandbox + overhead";
  Array.iter
    (fun app ->
      let rtt =
        median
          (List.filter_map
             (fun (s : Loops.sample) -> if s.Loops.cls = app then Some s.Loops.ms else None)
             mixed.Loops.samples)
      in
      let synth = median (Span.durations ("image.synth." ^ app))
      and sandbox = median (Span.durations ("exec.sandbox." ^ app))
      and kernel = median (Span.durations ("exec.kernel." ^ app)) in
      Printf.printf
        "#   %-10s rtt %8.2f  synth %7.2f  sandbox %8.2f (kernel %7.2f, marshal %7.2f)  \
         overhead %7.2f\n"
        app rtt synth sandbox kernel (sandbox -. kernel) (rtt -. synth -. sandbox))
    Inputs.apps

(* ---- a run ---- *)

let run ~workload ~seed ~seconds ~trace ~smoke ~out ~kfusec =
  let w =
    match List.find_opt (fun (w : Loops.workload) -> w.Loops.name = workload) Loops.all with
    | Some w -> w
    | None ->
      Printf.eprintf "kfbench: unknown workload %S (%s)\n" workload
        (String.concat ", " (List.map (fun (w : Loops.workload) -> w.Loops.name) Loops.all));
      exit 2
  in
  if not (Sys.file_exists kfusec) then begin
    Printf.eprintf "kfbench: no kfusec at %s (build it, or pass --kfusec)\n" kfusec;
    exit 2
  end;
  let work = Printf.sprintf ".kfbench/%s-%d-%d" workload seed (Unix.getpid ()) in
  Daemon.mkdir_p (Filename.concat work "tmp");
  (* Compiler and sandbox temporaries of the in-process replay stay in
     the work directory too. *)
  let tmp = Daemon.absolute (Filename.concat work "tmp") in
  Unix.putenv "TMPDIR" tmp;
  Filename.set_temp_dir_name tmp;
  let size = if smoke then Inputs.smoke else Inputs.full in
  let ctx =
    {
      Loops.kfusec;
      size;
      seed;
      acct = Loops.acct ();
      pool = lazy (Inputs.pool size seed);
    }
  in
  let omp = Option.value ~default:"unset" (Sys.getenv_opt "OMP_NUM_THREADS") in
  let omp = if workload = "motion-stream" then "daemon=1 kfbench=" ^ omp else omp in
  let envelope = Report.envelope ~seed ~omp in
  Printf.printf "# kfbench %s seed %d seconds %g trace %d%s\n# envelope %s\n%!" workload seed
    seconds (if trace then 1 else 0) (if smoke then " smoke" else "") (Jsonx.to_string envelope);
  let n_setups = if smoke || trace then 1 else w.Loops.setups in
  (* The plan-mix pool is generated before any set-up is timed. *)
  if workload = "plan-mix" || trace then ignore (Lazy.force ctx.Loops.pool);
  let metrics =
    Fun.protect
      ~finally:(fun () ->
        kill_live ();
        Daemon.rm_rf work)
    @@ fun () ->
    (* [n_setups] fresh set-ups; the last one serves the loop. *)
    let rec setup k acc =
      let r, s = start w ctx ~dir:(Filename.concat work (Printf.sprintf "setup%d" k)) in
      if k = n_setups then (r, List.rev (s :: acc))
      else begin
        teardown ctx r;
        setup (k + 1) (s :: acc)
      end
    in
    let r, setups = setup 1 [] in
    r.Loops.arm ();
    if not trace then begin
      let st, marks = measured r ~traced:false ~seconds in
      teardown ctx r;
      Report.end_to_end ~workload ~setups ~st ~marks
    end
    else begin
      (* One stretch traces every other operation: tracing's cost shows
         as the gap between the two halves, measured side by side. *)
      let mixed, marks = measured r ~traced:true ~seconds:(seconds /. 2.) in
      let counters = daemon_counters ctx r in
      teardown ctx r;
      (* The end-to-end metrics of that stretch, for reference. *)
      List.iter Report.print_metric (Report.end_to_end ~workload ~setups ~st:mixed ~marks);
      let n =
        Kfuse_util.Pool.with_pool (min 2 (Kfuse_util.Pool.default_size ())) (fun pool ->
            Replay.run
              {
                Replay.loops = ctx;
                dir = Filename.concat work "replay";
                native_dir = Daemon.absolute ".kfbench/native";
                pool;
                fresh_compiles = (if smoke then 1 else Array.length Inputs.apps);
              }
              ~workload ~seconds:(seconds /. 2.))
      in
      let hop =
        router_hop ctx ~dir:(Filename.concat work "router") ~seconds:(if smoke then 0.2 else 1.)
      in
      if workload = "paper-exec" then print_decomposition mixed;
      Span.write (Printf.sprintf ".kfbench/spans-%s-%d.jsonl" workload seed);
      layer_metrics ~workload ~mixed ~n ~counters ~hop ~retries:ctx.Loops.acct.Loops.retries
    end
  in
  let a = ctx.Loops.acct in
  let correct = a.Loops.wrong = 0 and failed = a.Loops.failed in
  List.iter Report.print_metric metrics;
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc
        (Report.record ~envelope ~workload ~trace ~correct ~attempted:a.Loops.attempted ~failed
           metrics);
      output_char oc '\n';
      close_out oc)
    out;
  print_endline (Report.result_line ~correct ~attempted:a.Loops.attempted ~failed metrics)

let default_kfusec () =
  (* _build/default/bench/e2e/kfbench.exe -> _build/default/bin/kfusec.exe *)
  Filename.concat
    (Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)))
    (Filename.concat "bin" "kfusec.exe")

let usage =
  "kfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE] \
   [--kfusec PATH]\n\
   kfbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]"

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest ->
    let benchmark = ref "BENCHMARK.json" and files = ref [] in
    Arg.parse_argv ~current:(ref 0)
      (Array.of_list ("kfbench-compare" :: rest))
      [ ("--benchmark", Arg.Set_string benchmark, "FILE the bounds (default BENCHMARK.json)") ]
      (fun f -> files := !files @ [ f ])
      usage;
    (match !files with
    | [ a; b ] -> exit (if Report.compare ~benchmark:!benchmark a b > 0 then 1 else 0)
    | _ ->
      prerr_endline usage;
      exit 2)
  | _ ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
    let smoke = ref false and out = ref None and kfusec = ref (default_kfusec ()) in
    Arg.parse
      [
        ( "--workload",
          Arg.Set_string workload,
          "NAME paper-exec, motion-stream, plan-mix or lazy-edit" );
        ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
        ("--seconds", Arg.Set_float seconds, "S length of the measured loop (default 10)");
        ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced run (default 0)");
        ("--smoke", Arg.Set smoke, " small inputs, one set-up (the runtest configuration)");
        ( "--out",
          Arg.String (fun f -> out := Some f),
          "FILE append this run's record, for compare" );
        ("--kfusec", Arg.Set_string kfusec, "PATH the kfusec binary (default: next to kfbench)");
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      usage;
    if !workload = "" || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~smoke:!smoke
      ~out:!out ~kfusec:!kfusec
