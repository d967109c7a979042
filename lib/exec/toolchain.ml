module Diag = Kfuse_util.Diag

type target = { isa : string; macros_md5 : string }
type t = { cc : string; openmp : bool; target : target option }

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

(* The C macros [cc -march=native] predefines, or [None] when it
   refuses the option: they name every ISA extension the host target
   turns on, so their digest tells one target from another. *)
let host_macros cc =
  with_temp_dir (fun dir ->
      let out = Filename.concat dir "macros.h" in
      let cmd =
        Filename.quote_command cc
          [ Kfuse_codegen.Lower_cpu.host_target_flag; "-E"; "-dM"; "-x"; "c"; Filename.null ]
          ~stdout:out ~stderr:Filename.null
      in
      if Sys.command cmd = 0 then Some (In_channel.with_open_bin out In_channel.input_all)
      else None)

(* The widest x86-64 micro-architecture level the macros reach (the
   psABI's v2/v3/v4), the architecture for other hosts: a label for
   reports.  The digest is what tells targets apart. *)
let isa_label macros =
  let has m = List.mem ("#define " ^ m ^ " 1") (String.split_on_char '\n' macros) in
  let avx512 = [ "__AVX512F__"; "__AVX512BW__"; "__AVX512CD__"; "__AVX512DQ__"; "__AVX512VL__" ] in
  if has "__x86_64__" then
    if List.for_all has avx512 then "x86-64-v4"
    else if List.for_all has [ "__AVX2__"; "__FMA__"; "__BMI2__" ] then "x86-64-v3"
    else if List.for_all has [ "__SSE4_2__"; "__POPCNT__" ] then "x86-64-v2"
    else "x86-64"
  else if has "__aarch64__" then "aarch64"
  else "native"

let probe_count = Atomic.make 0
let probes () = Atomic.get probe_count

(* Plans are built for the host's own target when the compiler takes
   the flag and its probe links; otherwise for the compiler's default
   one.  OpenMP is asked for first, and only on a multi-core host. *)
let probe cc =
  Atomic.incr probe_count;
  let openmp = if core_count () > 1 then [ true; false ] else [ false ] in
  List.find_map
    (fun (openmp, native) ->
      let flags =
        ("-O2" :: (if openmp then [ "-fopenmp" ] else []))
        @ if native then [ Kfuse_codegen.Lower_cpu.host_target_flag ] else []
      in
      if not (compiles cc flags) then None
      else if not native then Some { cc; openmp; target = None }
      else
        Option.map
          (fun m ->
            let md5 = Digest.to_hex (Digest.string m) in
            { cc; openmp; target = Some { isa = isa_label m; macros_md5 = md5 } })
          (host_macros cc))
    (List.concat_map (fun o -> [ (o, true); (o, false) ]) openmp)

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
  @ (if t.target <> None then [ Kfuse_codegen.Lower_cpu.host_target_flag ] else [])
  @ (if t.openmp then [ "-fopenmp" ] else [])
  @ if shared then [ "-shared"; "-fPIC" ] else []

(* The flag set is folded in so a flag change never replays a stale
   artifact compiled under the old semantics, and the target's
   fingerprint so that a cache directory shared by two hosts never
   hands one the other's instructions. *)
let id t =
  Printf.sprintf "%s%s %s%s" t.cc
    (if t.openmp then "+openmp" else "-openmp")
    (String.concat " " (flags t ~shared:false))
    (match t.target with Some g -> Printf.sprintf " target=%s:%s" g.isa g.macros_md5 | None -> "")
