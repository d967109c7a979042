module Diag = Kfuse_util.Diag

type t = { cc : string; openmp : bool }

let probe_source =
  "int main(void) {\n\
  \  int s = 0;\n\
   #pragma omp parallel for reduction(+:s)\n\
  \  for (int i = 0; i < 8; ++i) s += i;\n\
  \  return s == 28 ? 0 : 1;\n\
   }\n"

(* Names unique within the process (pid + counter), so concurrent
   workers never race for a probe dir or an artifact's tmp path. *)
let unique_seq = Atomic.make 0
let unique_suffix () = Printf.sprintf "%d.%d" (Unix.getpid ()) (Atomic.fetch_and_add unique_seq 1)

let with_temp_dir f =
  (* EEXIST can only be a leftover of a killed process whose pid we
     reuse: skip to the next name. *)
  let rec make () =
    let dir = Filename.concat (Filename.get_temp_dir_name ()) ("kfuse-probe-" ^ unique_suffix ()) in
    match Unix.mkdir dir 0o700 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> make ()
  in
  let dir = make () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

(* [true] when [cc args] compiles the probe program cleanly. *)
let compiles cc extra_flags =
  with_temp_dir (fun dir ->
      let src = Filename.concat dir "probe.c" in
      let out = Filename.concat dir "probe.out" in
      write_file src probe_source;
      let cmd =
        Filename.quote_command cc
          (extra_flags @ [ "-o"; out; src ])
          ~stdout:Filename.null ~stderr:Filename.null
      in
      Sys.command cmd = 0)

(* On a single-core host OpenMP is pure loss: every kernel's parallel
   region pays fork/join and barrier overhead (measured ~2.7 ms per
   512x512 pipeline call, larger than some kernels) and there is no
   second core to pay it back.  Streaming's frame budget cannot afford
   it, so the probe only turns OpenMP on when parallelism exists. *)
let core_count () =
  match Domain.recommended_domain_count () with n when n >= 1 -> n | _ -> 1

let probe_count = Atomic.make 0
let probes () = Atomic.get probe_count

let probe cc =
  Atomic.incr probe_count;
  if core_count () > 1 && compiles cc [ "-O2"; "-fopenmp" ] then Some { cc; openmp = true }
  else if compiles cc [ "-O2" ] then Some { cc; openmp = false }
  else None

(* Single-flight: kfused's worker threads all reach [find], and the
   whole probe runs under the lock, so a cold memo is probed once. *)
let memo : (string option, (t, Diag.t) result) Hashtbl.t = Hashtbl.create 4
let memo_lock = Mutex.create ()

let forget () = Mutex.protect memo_lock (fun () -> Hashtbl.reset memo)

let find () =
  Mutex.protect memo_lock @@ fun () ->
  let pinned = Sys.getenv_opt "KFUSE_CC" in
  match Hashtbl.find_opt memo pinned with
  | Some r -> r
  | None ->
    let r =
      match pinned with
      | Some cc -> (
        match probe cc with
        | Some t -> Ok t
        | None ->
          Error
            (Diag.errorf Diag.Toolchain_missing
               "KFUSE_CC=%s cannot compile a trivial C program; unset it or point it \
                at a working compiler"
               cc))
      | None -> (
        match List.find_map probe [ "cc"; "gcc"; "clang" ] with
        | Some t -> Ok t
        | None ->
          Error
            (Diag.errorf Diag.Toolchain_missing
               "no usable C compiler found (tried cc, gcc, clang); install one or set \
                KFUSE_CC"))
    in
    Hashtbl.replace memo pinned r;
    r

(* The codegen's own flag list: the header of every emitted file quotes
   the same one. *)
let flags t ~shared =
  Kfuse_codegen.Lower_cpu.cc_flags
  @ (if t.openmp then [ "-fopenmp" ] else [])
  @ if shared then [ "-shared"; "-fPIC" ] else []

(* The flag set is folded in so a flag change never replays a stale
   artifact compiled under the old semantics. *)
let id t =
  Printf.sprintf "%s%s %s" t.cc
    (if t.openmp then "+openmp" else "-openmp")
    (String.concat " " (flags t ~shared:false))
