/* Stubs for the native execution backend: the dlopen loader below, and
 * the sandbox's spawn plus the fd-level primitives of its persistent
 * runners (memfd arena, pwrite/pread on float arrays, a poll watchdog,
 * the per-request RLIMIT_CPU re-arm), and the seeded draw and the
 * min/max/sum fold over float arrays (kfuse_arena.h, which the runners
 * run on their arenas).
 *
 * The generated C for every pipeline is wrapped behind one fixed entry
 * point (since ABI v6):
 *
 *   void kfuse_entry(const double** ins, double** outs, const double* params,
 *                    double* workspace);
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

/* memfd_create, fallocate, prlimit, F_ADD_SEALS */
#define _GNU_SOURCE

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <math.h>
#include <poll.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>

/* Sandboxed spawn for the exec supervisor.
 *
 * OCaml 5 forbids Unix.fork once other domains exist — and both kfused
 * (its fusion-search Pool) and the test runner hold domain pools — so
 * the fork happens here, entirely in C: between fork and exec the
 * child runs only async-signal-safe libc calls (dup2, fcntl, close,
 * setrlimit, sigprocmask, execvp), never the OCaml runtime.  Every
 * OCaml value is extracted into plain C memory *before* forking.
 *
 * Arguments:
 *   vargv  : string array        — argv; argv[0] resolved via PATH
 *   vfds   : fd * fd * fd        — stdin / stdout / stderr for the child
 *   vlimits: int array [3]       — RLIMIT_CPU (s), RLIMIT_AS (bytes),
 *                                  RLIMIT_FSIZE (bytes); -1 = unlimited.
 *                                  Soft and hard are both set, so the
 *                                  child cannot raise them back.
 *   vextra : fd array            — handed to the child as fds 3, 4, ...
 *                                  (a persistent runner's arena and
 *                                  pipes); every other fd above 2 is
 *                                  closed in the child, so it holds
 *                                  nothing of the parent's but these.
 *   vdie   : bool                — SIGTERM the child when the
 *                                  spawning *thread* dies
 *                                  (PR_SET_PDEATHSIG, kept across exec).
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

#define KFUSE_MAX_EXTRA 8

value kfuse_spawn(value vargv, value vfds, value vlimits, value vextra, value vdie)
{
  CAMLparam5(vargv, vfds, vlimits, vextra, vdie);
  mlsize_t nargs = Wosize_val(vargv);
  mlsize_t nextra = Wosize_val(vextra);
  if (nextra > KFUSE_MAX_EXTRA) caml_invalid_argument("kfuse_spawn: too many fds");
  int extra[KFUSE_MAX_EXTRA];
  for (mlsize_t i = 0; i < nextra; i++) extra[i] = Int_val(Field(vextra, i));
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
  int die_with_parent = Bool_val(vdie);
  pid_t parent = getpid();

  pid_t pid = fork();
  if (pid == 0) {
    /* Child.  The parent may have OCaml signal handlers (kfused's
     * SIGTERM drain, the runtime's SIGSEGV stack-guard handler), an
     * ignored SIGPIPE and a thread signal mask; reset them so the
     * watchdog's SIGTERM behaves as for a fresh process.  exec resets
     * handlers but not ignored signals, and the blocked-signal mask
     * survives it. */
    sigset_t empty;
    sigemptyset(&empty);
    (void)sigprocmask(SIG_SETMASK, &empty, NULL);
    (void)signal(SIGTERM, SIG_DFL);
    (void)signal(SIGINT, SIG_DFL);
    (void)signal(SIGSEGV, SIG_DFL);
    (void)signal(SIGABRT, SIG_DFL);
    (void)signal(SIGPIPE, SIG_DFL);
    if (die_with_parent) {
      (void)prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (getppid() != parent) _exit(127); /* died before the prctl */
    }
    if (dup2(fd_in, 0) < 0 || dup2(fd_out, 1) < 0 || dup2(fd_err, 2) < 0)
      _exit(127);
    /* Extra fds land on 3, 4, ...: lift them above that range first so
     * no dup2 clobbers a source still to be moved.  dup2 clears
     * FD_CLOEXEC on the target, so the parent's O_CLOEXEC ends stay
     * private to it. */
    int base = 3 + (int)nextra;
    for (mlsize_t i = 0; i < nextra; i++) {
      extra[i] = fcntl(extra[i], F_DUPFD_CLOEXEC, base);
      if (extra[i] < 0) _exit(127);
    }
    for (mlsize_t i = 0; i < nextra; i++)
      if (dup2(extra[i], 3 + (int)i) < 0) _exit(127);
#ifdef SYS_close_range
    (void)syscall(SYS_close_range, (unsigned)base, ~0U, 0);
#else
    for (int fd = base; fd < 1024; fd++) (void)close(fd);
#endif
    kfuse_child_rlimit(RLIMIT_CPU, cpu_s);
    kfuse_child_rlimit(RLIMIT_AS, mem_bytes);
    kfuse_child_rlimit(RLIMIT_FSIZE, fsize_bytes);
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

/* {1 Persistent runners: arena, fd I/O on float arrays, CPU re-arm} */

static void kfuse_fail_errno(const char *what, int err)
{
  char msg[256];
  snprintf(msg, sizeof msg, "%s: %s", what, strerror(err));
  caml_failwith(msg);
}

/* A memfd of [size] bytes, O_CLOEXEC.  A nonzero size is fallocate'd
 * here, so a full shmem is a Failure now (the runner is never
 * spawned) rather than a SIGBUS on some page of a sparse map later,
 * then sealed against resizing: the runner that maps it can neither
 * shrink it under the parent's pread nor grow it.  Size 0 is a plain,
 * growable memfd (a runner's stderr). */
value kfuse_memfd(value vname, value vsize)
{
  CAMLparam2(vname, vsize);
  long size = Long_val(vsize);
  int sealed = size > 0;
  int fd = memfd_create(String_val(vname), MFD_CLOEXEC | (sealed ? MFD_ALLOW_SEALING : 0));
  if (fd < 0) kfuse_fail_errno("memfd_create", errno);
  if (sealed) {
    int r;
    caml_enter_blocking_section();
    do r = fallocate(fd, 0, 0, (off_t)size); while (r != 0 && errno == EINTR);
    int err = errno;
    caml_leave_blocking_section();
    if (r != 0) {
      close(fd);
      kfuse_fail_errno("fallocate", err);
    }
    if (fcntl(fd, F_ADD_SEALS, F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL) != 0) {
      err = errno;
      close(fd);
      kfuse_fail_errno("F_ADD_SEALS", err);
    }
  }
  CAMLreturn(Val_int(fd));
}

/* Float arrays above this length (in doubles = words) are guaranteed to
 * live on the major heap (allocations over Max_young_wosize = 256 words
 * never touch the minor heap, so no promotion can move them) and above
 * the compactor's size-class pools (<= 128 words), so their data
 * pointer is stable for the whole call even while the blocking section
 * lets the GC run on other threads.  Those arrays are handed to the
 * kernel (or the fd) in place — the per-frame streaming path and the
 * sandbox arena, where the malloc + copy of multi-megabyte buffers used
 * to dominate the kernel itself.  Smaller arrays are short enough to
 * move without releasing the runtime. */
#define KFUSE_STABLE_LEN 4096

static mlsize_t float_array_length(value v)
{
  return Wosize_val(v) / Double_wosize;
}

/* Write [n] bytes of [p] at [off] of [fd]; 0 or an errno. */
static int kfuse_pwrite_all(int fd, const char *p, size_t n, off_t off)
{
  size_t done = 0;
  while (done < n) {
    ssize_t k = pwrite(fd, p + done, n - done, off + (off_t)done);
    if (k < 0 && errno == EINTR) continue;
    if (k < 0) return errno;
    if (k == 0) return ENOSPC;
    done += (size_t)k;
  }
  return 0;
}

/* Read [n] bytes at [off] of [fd] into [p]; 0, an errno, or -1 at end
 * of file. */
static int kfuse_pread_all(int fd, char *p, size_t n, off_t off)
{
  size_t done = 0;
  while (done < n) {
    ssize_t k = pread(fd, p + done, n - done, off + (off_t)done);
    if (k < 0 && errno == EINTR) continue;
    if (k < 0) return errno;
    if (k == 0) return -1;
    done += (size_t)k;
  }
  return 0;
}

/* pwrite (write = 1) or pread (write = 0) the whole of float array [va]
 * at byte offset [voff] of [vfd].  Raises Failure on an I/O error or,
 * reading, at end of file. */
static value kfuse_fd_floats(value vfd, value va, value voff, int write)
{
  CAMLparam3(vfd, va, voff);
  int fd = Int_val(vfd);
  char *p = (char *)Op_val(va);
  size_t len = float_array_length(va) * sizeof(double);
  off_t off = (off_t)Long_val(voff);
  int release = float_array_length(va) > KFUSE_STABLE_LEN;
  if (release) caml_enter_blocking_section();
  int err = write ? kfuse_pwrite_all(fd, p, len, off) : kfuse_pread_all(fd, p, len, off);
  if (release) caml_leave_blocking_section();
  if (err < 0) caml_failwith("pread: short read");
  if (err > 0) kfuse_fail_errno(write ? "pwrite" : "pread", err);
  CAMLreturn(Val_unit);
}

value kfuse_pwrite_floats(value vfd, value va, value voff)
{
  return kfuse_fd_floats(vfd, va, voff, 1);
}

value kfuse_pread_floats(value vfd, value va, value voff)
{
  return kfuse_fd_floats(vfd, va, voff, 0);
}

/* {1 The seeded draw and the fold (kfuse_arena.h)} */

#include "kfuse_arena.h"

/* Fill float array [va] with draws of the generator whose state words
 * [vstate] holds (32 bytes, Rng.save), each lo + u * span; the advanced
 * state goes back into [vstate].  A long array is filled outside the
 * runtime lock (see KFUSE_STABLE_LEN). */
value kfuse_fill_floats(value vstate, value vlo, value vspan, value va)
{
  CAMLparam4(vstate, vlo, vspan, va);
  double lo = Double_val(vlo), span = Double_val(vspan);
  mlsize_t len = float_array_length(va);
  uint64_t s[4];
  memcpy(s, Bytes_val(vstate), sizeof s);
  double *p = (double *)Op_val(va);
  int release = len > KFUSE_STABLE_LEN;
  if (release) caml_enter_blocking_section();
  kf_fill(p, len, s, lo, span);
  if (release) caml_leave_blocking_section();
  memcpy(Bytes_val(vstate), s, sizeof s);
  CAMLreturn(Val_unit);
}

/* [| min; max; row-major sum |] of the first [vlen] elements of a
 * float array (at most all of them). */
value kfuse_fold_floats(value va, value vlen)
{
  CAMLparam2(va, vlen);
  CAMLlocal1(r);
  mlsize_t len = float_array_length(va);
  if (Long_val(vlen) >= 0 && (mlsize_t)Long_val(vlen) < len) len = (mlsize_t)Long_val(vlen);
  double acc[3] = { INFINITY, -INFINITY, 0.0 };
  const double *p = (const double *)Op_val(va);
  int release = len > KFUSE_STABLE_LEN;
  if (release) caml_enter_blocking_section();
  kf_fold(p, len, acc);
  if (release) caml_leave_blocking_section();
  r = caml_alloc_float_array(3);
  for (int i = 0; i < 3; i++) Store_double_flat_field(r, i, acc[i]);
  CAMLreturn(r);
}

/* Wait until [vfd] is readable (data or hang-up) for at most
 * [vtimeout_ms] (< 0: forever).  poll, not select: a daemon with many
 * connections can hold fds past FD_SETSIZE. */
value kfuse_wait_readable(value vfd, value vtimeout_ms)
{
  CAMLparam2(vfd, vtimeout_ms);
  struct pollfd pfd = { .fd = Int_val(vfd), .events = POLLIN, .revents = 0 };
  int timeout = Int_val(vtimeout_ms);
  int r;
  caml_enter_blocking_section();
  r = poll(&pfd, 1, timeout);
  int err = errno;
  caml_leave_blocking_section();
  if (r < 0 && err != EINTR) kfuse_fail_errno("poll", err);
  CAMLreturn(Val_bool(r > 0));
}

/* Set the soft RLIMIT_CPU of [vpid] to [vsoft] seconds, clamped to its
 * hard limit (raising a hard limit needs privilege; the soft one is
 * ours to move).  Best effort: the watchdog still bounds the request
 * when the kernel refuses. */
value kfuse_set_cpu_soft(value vpid, value vsoft)
{
  CAMLparam2(vpid, vsoft);
  struct rlimit rl;
  pid_t pid = (pid_t)Long_val(vpid);
  if (prlimit(pid, RLIMIT_CPU, NULL, &rl) == 0) {
    rlim_t soft = (rlim_t)Long_val(vsoft);
    rl.rlim_cur = (rl.rlim_max != RLIM_INFINITY && soft > rl.rlim_max) ? rl.rlim_max : soft;
    (void)prlimit(pid, RLIMIT_CPU, &rl, NULL);
  }
  CAMLreturn(Val_unit);
}

typedef void (*kfuse_entry_fn)(const double **, double **, const double *, double *);

/* A pinned plan's workspace for its intermediates: [vbytes] bytes of
 * malloc'd memory (NULL for none), freed by kfuse_ws_free.  A large
 * block is a fresh mapping whose pages fault in on the first call
 * only; later calls of the plan find them resident. */
value kfuse_ws_alloc(value vbytes)
{
  CAMLparam1(vbytes);
  size_t n = (size_t)Long_val(vbytes);
  void *p = NULL;
  if (n > 0 && (p = malloc(n)) == NULL) caml_failwith("out of memory");
  CAMLreturn(caml_copy_nativeint((intnat)p));
}

value kfuse_ws_free(value vws)
{
  free((void *)Nativeint_val(vws));
  return Val_unit;
}

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

/* Free only the buffers this call allocated (owned[i] != 0). */
static void free_owned(double **bufs, const unsigned char *owned, mlsize_t n)
{
  if (bufs == NULL) return;
  for (mlsize_t i = 0; i < n; i++)
    if (owned != NULL && owned[i]) free(bufs[i]);
  free(bufs);
}

value kfuse_dl_call(value vfn, value vins, value vouts, value vparams, value vws)
{
  CAMLparam5(vfn, vins, vouts, vparams, vws);
  kfuse_entry_fn fn = (kfuse_entry_fn)Nativeint_val(vfn);
  double *ws = (double *)Nativeint_val(vws);
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
  fn((const double **)ins, outs, par, ws);
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
