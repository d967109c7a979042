(** C toolchain discovery for the native execution backend.

    The backend shells out to a host C compiler to build fused plans.
    [KFUSE_CC] pins the compiler explicitly; otherwise [cc], [gcc] and
    [clang] are probed in order.  Each candidate is verified by actually
    compiling a tiny translation unit, first with [-fopenmp] (an OpenMP
    pragma included, so the support library must link) and
    [-march=native], then dropping the target and then OpenMP until one
    compiles.  Without [-fopenmp] the generated pragmas are ignored by
    the compiler and execution is sequential; without [-march=native]
    plans are built for the compiler's default target.

    Probe results are memoized per [KFUSE_CC] value: discovery probes
    each candidate at most once per process, also when several threads
    ask at once.  Nothing is probed before the first {!find}, so a
    daemon starts without running the compiler. *)

(** The host target plans are built for with [-march=native]. *)
type target = {
  isa : string;
      (** the x86-64 micro-architecture level it reaches (["x86-64-v4"]
          …), or the architecture elsewhere: a label for reports *)
  macros_md5 : string;
      (** the digest of every macro the compiler predefines for it,
          which tells one target from another *)
}

type t = {
  cc : string;  (** compiler command, e.g. ["cc"] or [$KFUSE_CC] *)
  openmp : bool;  (** whether [-fopenmp] compiles and links *)
  target : target option;  (** [None]: the compiler's default target *)
}

(** [find ()] locates a working compiler.
    [Error] is {!Kfuse_util.Diag.Toolchain_missing} ([KF0902]): nothing
    usable on [PATH], or [KFUSE_CC] names a compiler that cannot build a
    trivial program. *)
val find : unit -> (t, Kfuse_util.Diag.t) result

val forget : unit -> unit
(** Drop the memo: the next {!find} probes again (tests). *)

val probes : unit -> int
(** Process-wide count of candidate compilers probed so far. *)

val unique_suffix : unit -> string
(** A name part unique within this process ([pid.counter]), for temp
    files that concurrent threads create side by side. *)

(** [flags t ~shared] is the flag set used for building fused plans:
    {!Kfuse_codegen.Lower_cpu.cc_flags}, [-march=native] when [t]
    has a target, [-fopenmp] when supported, plus [-shared -fPIC] when
    [shared].  Every emitted file quotes the same flags in its header.
    The interpreter-faithfulness flags of [cc_flags] are always there:
    without them the optimizer strength-reduces [pow(x, 2.0)] to [x*x]
    (1 ulp off glibc's pow) or contracts [a*b+c] into fma on targets
    that have one, and native output stops being bit-comparable with
    the {!Kfuse_ir.Eval} interpreter. *)
val flags : t -> shared:bool -> string list

(** [id t] is a short stable description ([cc], OpenMP support, the
    flags and the target fingerprint), folded into compile-cache keys
    so switching compilers or hosts never replays a stale artifact. *)
val id : t -> string
