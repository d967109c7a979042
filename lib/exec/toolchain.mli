(** C toolchain discovery for the native execution backend.

    The backend shells out to a host C compiler to build fused plans.
    [KFUSE_CC] pins the compiler explicitly; otherwise [cc], [gcc] and
    [clang] are probed in order.  Each candidate is verified by actually
    compiling a tiny translation unit — once with [-fopenmp] (an OpenMP
    pragma included, so the support library must link) and, failing
    that, without, in which case the generated pragmas are ignored by
    the compiler and execution is sequential.

    Probe results are memoized per [KFUSE_CC] value: discovery runs at
    most one compile per candidate per process, also when several
    threads ask at once. *)

type t = {
  cc : string;  (** compiler command, e.g. ["cc"] or [$KFUSE_CC] *)
  openmp : bool;  (** whether [-fopenmp] compiles and links *)
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
    [-O2], [-fopenmp] when supported, plus [-shared -fPIC] when
    [shared].  Always includes the interpreter-faithfulness flags
    {!Kfuse_codegen.Lower_cpu.cc_flags}, the same list every emitted
    file quotes in its header: without
    them the optimizer strength-reduces [pow(x, 2.0)] to [x*x] (1 ulp
    off glibc's pow) or contracts [a*b+c] into fma on targets that
    have one, and native output stops being bit-comparable with the
    {!Kfuse_ir.Eval} interpreter. *)
val flags : t -> shared:bool -> string list

(** [id t] is a short stable description ([cc] plus OpenMP support),
    folded into compile-cache keys so switching compilers never replays
    a stale artifact. *)
val id : t -> string
