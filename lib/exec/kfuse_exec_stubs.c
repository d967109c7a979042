/* Loader stubs for the native execution backend.
 *
 * The generated C for every pipeline is wrapped behind one fixed entry
 * point (ABI v2):
 *
 *   void kfuse_entry(const double** ins, double** outs, const double* params);
 *
 * so a single dlopen/dlsym/call stub covers every pipeline shape — no
 * ctypes/libffi dependency, no per-signature code.  The OCaml side
 * passes `float array` values, which are already packed 64-bit doubles,
 * so marshalling copies bits without rounding: the interpreter and the
 * compiled plan see identical inputs.
 *
 * No OCaml allocation happens between reading the arrays and writing
 * the results, so raw Field/Double_field access is GC-safe; the entry
 * call itself runs in a blocking section so other runtime threads (the
 * kfused worker pool) keep making progress during a long kernel.
 */

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

#include <dlfcn.h>
#include <errno.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <unistd.h>

/* Sandboxed spawn for the exec supervisor.
 *
 * OCaml 5 forbids Unix.fork once other domains exist — and both kfused
 * (its fusion-search Pool) and the test runner hold domain pools — so
 * the fork happens here, entirely in C: between fork and exec the
 * child runs only async-signal-safe libc calls (dup2, setrlimit,
 * sigprocmask, execvp), never the OCaml runtime.  Every OCaml value is
 * extracted into plain C memory *before* forking.
 *
 * Arguments:
 *   vargv     : string array        — argv; argv[0] resolved via PATH
 *   vfds      : fd * fd * fd        — stdin / stdout / stderr for the child
 *   vlimits   : int array [3]       — RLIMIT_CPU (s), RLIMIT_AS (bytes),
 *                                     RLIMIT_FSIZE (bytes); -1 = unlimited.
 *                                     Soft and hard are both set, so the
 *                                     child cannot raise them back.
 *   vmisbehave: int                 — chaos: 0 none, 1 die with SIGSEGV,
 *                                     2 hang forever, 3 exhaust a 64 MiB
 *                                     private RLIMIT_AS and abort (the
 *                                     generated kf_malloc's OOM signature)
 *
 * Returns the child pid; raises Failure when fork itself fails.  A
 * failed setrlimit is deliberately non-fatal in the child: the parent's
 * watchdog still covers it. */

static void kfuse_child_rlimit(int resource, long lim)
{
  struct rlimit rl;
  if (lim < 0) return;
  rl.rlim_cur = (rlim_t)lim;
  rl.rlim_max = (rlim_t)lim;
  (void)setrlimit(resource, &rl);
}

value kfuse_spawn(value vargv, value vfds, value vlimits, value vmisbehave)
{
  CAMLparam4(vargv, vfds, vlimits, vmisbehave);
  mlsize_t nargs = Wosize_val(vargv);
  char **argv = calloc(nargs + 1, sizeof(char *));
  if (argv == NULL) caml_failwith("kfuse_spawn: out of memory");
  for (mlsize_t i = 0; i < nargs; i++) {
    argv[i] = strdup(String_val(Field(vargv, i)));
    if (argv[i] == NULL) {
      for (mlsize_t j = 0; j < i; j++) free(argv[j]);
      free(argv);
      caml_failwith("kfuse_spawn: out of memory");
    }
  }
  int fd_in = Int_val(Field(vfds, 0));
  int fd_out = Int_val(Field(vfds, 1));
  int fd_err = Int_val(Field(vfds, 2));
  long cpu_s = Long_val(Field(vlimits, 0));
  long mem_bytes = Long_val(Field(vlimits, 1));
  long fsize_bytes = Long_val(Field(vlimits, 2));
  int misbehave = Int_val(vmisbehave);

  pid_t pid = fork();
  if (pid == 0) {
    /* Child.  The parent may have OCaml signal handlers (kfused's
     * SIGTERM drain, the runtime's SIGSEGV stack-guard handler) and a
     * thread signal mask; reset both so the watchdog's SIGTERM and the
     * chaos signals behave as for a fresh process.  (exec would reset
     * handlers anyway, but the misbehave paths never exec — and the
     * blocked-signal mask *survives* exec.) */
    sigset_t empty;
    sigemptyset(&empty);
    (void)sigprocmask(SIG_SETMASK, &empty, NULL);
    (void)signal(SIGTERM, SIG_DFL);
    (void)signal(SIGINT, SIG_DFL);
    (void)signal(SIGSEGV, SIG_DFL);
    (void)signal(SIGABRT, SIG_DFL);
    (void)signal(SIGPIPE, SIG_DFL);
    if (dup2(fd_in, 0) < 0 || dup2(fd_out, 1) < 0 || dup2(fd_err, 2) < 0)
      _exit(127);
    kfuse_child_rlimit(RLIMIT_CPU, cpu_s);
    kfuse_child_rlimit(RLIMIT_AS, mem_bytes);
    kfuse_child_rlimit(RLIMIT_FSIZE, fsize_bytes);
    switch (misbehave) {
    case 1:
      raise(SIGSEGV);
      _exit(0);
    case 2:
      for (;;) pause();
    case 3:
      kfuse_child_rlimit(RLIMIT_AS, 64L * 1024 * 1024);
      for (;;)
        if (malloc(4 * 1024 * 1024) == NULL) abort();
    default:
      break;
    }
    execvp(argv[0], argv);
    _exit(127);
  }

  int saved_errno = errno;
  for (mlsize_t i = 0; i < nargs; i++) free(argv[i]);
  free(argv);
  if (pid < 0) {
    char msg[256];
    snprintf(msg, sizeof msg, "fork: %s", strerror(saved_errno));
    caml_failwith(msg);
  }
  CAMLreturn(Val_long(pid));
}

typedef void (*kfuse_entry_fn)(const double **, double **, const double *);

/* Pin libgomp for the life of the process before the first artifact is
 * loaded.  An OpenMP artifact otherwise pulls libgomp in as its own
 * dependency, and its dlclose can unmap libgomp while the idle pool
 * threads still execute its code: the next instruction fetch faults.
 * RTLD_NODELETE keeps the mapping; a host without libgomp (no OpenMP
 * toolchain) simply has nothing to pin. */
static void kfuse_pin_libgomp(void)
{
  static int pinned = 0;
  if (pinned) return;
  pinned = 1;
  (void)dlopen("libgomp.so.1", RTLD_NOW | RTLD_GLOBAL | RTLD_NODELETE);
}

value kfuse_dl_open(value vpath)
{
  CAMLparam1(vpath);
  kfuse_pin_libgomp();
  void *h = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *err = dlerror();
    caml_failwith(err ? err : "dlopen failed");
  }
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

value kfuse_dl_sym(value vhandle, value vname)
{
  CAMLparam2(vhandle, vname);
  void *h = (void *)Nativeint_val(vhandle);
  /* Clear any stale error so a NULL result is unambiguous. */
  (void)dlerror();
  void *sym = dlsym(h, String_val(vname));
  if (sym == NULL) {
    const char *err = dlerror();
    caml_failwith(err ? err : "dlsym: symbol not found");
  }
  CAMLreturn(caml_copy_nativeint((intnat)sym));
}

value kfuse_dl_close(value vhandle)
{
  CAMLparam1(vhandle);
  dlclose((void *)Nativeint_val(vhandle));
  CAMLreturn(Val_unit);
}

static mlsize_t float_array_length(value v)
{
  return Wosize_val(v) / Double_wosize;
}

/* Float arrays above this length (in doubles = words) are guaranteed to
 * live on the major heap (allocations over Max_young_wosize = 256 words
 * never touch the minor heap, so no promotion can move them) and above
 * the compactor's size-class pools (<= 128 words), so their data
 * pointer is stable for the whole call even while the blocking section
 * lets the GC run on other threads.  Those arrays are handed to the
 * kernel in place — this is the per-frame streaming path, where the
 * malloc + copy of multi-megabyte buffers used to dominate the kernel
 * itself.  Smaller arrays keep the conservative copy. */
#define KFUSE_STABLE_LEN 4096

/* Free only the buffers this call allocated (owned[i] != 0). */
static void free_owned(double **bufs, const unsigned char *owned, mlsize_t n)
{
  if (bufs == NULL) return;
  for (mlsize_t i = 0; i < n; i++)
    if (owned != NULL && owned[i]) free(bufs[i]);
  free(bufs);
}

value kfuse_dl_call(value vfn, value vins, value vouts, value vparams)
{
  CAMLparam4(vfn, vins, vouts, vparams);
  kfuse_entry_fn fn = (kfuse_entry_fn)Nativeint_val(vfn);
  mlsize_t nin = Wosize_val(vins);
  mlsize_t nout = Wosize_val(vouts);
  mlsize_t npar = float_array_length(vparams);

  double **ins = calloc(nin ? nin : 1, sizeof(double *));
  double **outs = calloc(nout ? nout : 1, sizeof(double *));
  unsigned char *in_owned = calloc(nin ? nin : 1, 1);
  unsigned char *out_owned = calloc(nout ? nout : 1, 1);
  double *par = malloc((npar ? npar : 1) * sizeof(double));
  int oom = (ins == NULL || outs == NULL || in_owned == NULL || out_owned == NULL
             || par == NULL);

  for (mlsize_t i = 0; !oom && i < nin; i++) {
    value a = Field(vins, i);
    mlsize_t len = float_array_length(a);
    if (len > KFUSE_STABLE_LEN) {
      ins[i] = (double *)Op_val(a);
      continue;
    }
    ins[i] = malloc((len ? len : 1) * sizeof(double));
    if (ins[i] == NULL) { oom = 1; break; }
    in_owned[i] = 1;
    for (mlsize_t j = 0; j < len; j++)
      ins[i][j] = Double_field(a, j);
  }
  for (mlsize_t i = 0; !oom && i < nout; i++) {
    value a = Field(vouts, i);
    mlsize_t len = float_array_length(a);
    if (len > KFUSE_STABLE_LEN) {
      outs[i] = (double *)Op_val(a);
      continue;
    }
    outs[i] = calloc(len ? len : 1, sizeof(double));
    if (outs[i] == NULL) { oom = 1; break; }
    out_owned[i] = 1;
  }
  if (oom) {
    free_owned(ins, in_owned, nin);
    free_owned(outs, out_owned, nout);
    free(in_owned);
    free(out_owned);
    free(par);
    caml_failwith("kfuse_dl_call: out of memory marshalling buffers");
  }
  for (mlsize_t j = 0; j < npar; j++)
    par[j] = Double_field(vparams, j);

  caml_enter_blocking_section();
  fn((const double **)ins, outs, par);
  caml_leave_blocking_section();

  for (mlsize_t i = 0; i < nout; i++) {
    if (!out_owned[i]) continue; /* kernel already wrote in place */
    value a = Field(vouts, i);
    mlsize_t len = float_array_length(a);
    for (mlsize_t j = 0; j < len; j++)
      Store_double_field(a, j, outs[i][j]);
  }

  free_owned(ins, in_owned, nin);
  free_owned(outs, out_owned, nout);
  free(in_owned);
  free(out_owned);
  free(par);
  CAMLreturn(Val_unit);
}
