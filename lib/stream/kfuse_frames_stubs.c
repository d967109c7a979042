/* The per-pixel loop of Frames.synthetic.
 *
 * OCaml ints are 63 bits wide, but each mix round keeps only the low 30
 * bits, and those depend only on the low 32 bits of its operands (the
 * widest reach is h >> 2).  So 32-bit unsigned arithmetic on the low
 * words of the OCaml ints computes the same 30 bits, and lets the
 * compiler vectorize the loop.  The library builds with
 * -ffp-contract=off (and no -ffast-math), so no compiler may fuse a
 * multiply and an add into an FMA, and exp is libm's, as the OCaml
 * reference's in test/test_stream.ml is: every pixel is bit-identical. */

#include <caml/mlvalues.h>

#include <math.h>
#include <stdint.h>

static inline uint32_t kfuse_mix(uint32_t h, uint32_t v)
{
  return (h ^ (v + 0x7f4a7c15u + (h << 6) + (h >> 2))) & 0x3FFFFFFFu;
}

/* Multiversioned: gcc emits the pixel loop for x86-64-v4, x86-64-v3
 * and the baseline, and glibc's ifunc resolver picks the widest the
 * CPU runs, once, at load time.  A -march flag in the build would
 * instead put one CPU's instructions in an object that a shared build
 * cache can hand to another.  Where ifunc is missing (no glibc, not
 * x86-64, not gcc 12 or later) the plain loop builds.  The clones
 * keep -ffp-contract=off, so no FMA is formed on the FMA targets. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) && !defined(__clang__) \
    && __GNUC__ >= 12
#define KFUSE_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define KFUSE_CLONES
#endif

KFUSE_CLONES
static void kfuse_fill(double *data, mlsize_t width, mlsize_t height, double cx, double cy,
                       double rx, double ry, uint32_t h0)
{
  double *ex = data;
  for (mlsize_t x = 0; x < width; x++) {
    double dx = ((double)x - cx) / rx;
    ex[x] = exp(-(dx * dx));
  }
  for (mlsize_t y = height; y-- > 0;) {
    double dy = ((double)y - cy) / ry;
    double eyv = exp(-(dy * dy));
    uint32_t vy = (uint32_t)y * 0x85ebu, sy = (uint32_t)y << 8;
    double *row = data + y * width;
    for (mlsize_t x = 0; x < width; x++) {
      uint32_t h = kfuse_mix(h0, (uint32_t)x);
      h = kfuse_mix(h, vy);
      h = kfuse_mix(h, (uint32_t)x ^ sy);
      double blob = ex[x] * eyv;
      double noise = (double)(int32_t)h / 1073741824.0; /* h < 2^30 */
      row[x] = 0.15 + 0.7 * blob + 0.05 * noise;
    }
  }
}

/* Fill [vdata] (width [vwidth], row-major) with frame pixels:
 * 0.15 + 0.7 * ex[x] * ey[y] + 0.05 * hash2(seed, x, y) / 2^30, where
 * ex[x] = exp(-((x - cx) / rx)^2) and ey[y] = exp(-((y - cy) / ry)^2)
 * for [vblob] = [| cx; cy; rx; ry |].  The column terms wait in row 0,
 * which is drawn last, each pixel there reading its term before it
 * overwrites it.  Allocates nothing and raises nothing ([@@noalloc]). */
value kfuse_frames_fill(value vdata, value vwidth, value vblob, value vseed)
{
  mlsize_t width = Long_val(vwidth);
  mlsize_t height = width == 0 ? 0 : Wosize_val(vdata) / Double_wosize / width;
  if (height == 0) return Val_unit;
  kfuse_fill((double *)Op_val(vdata), width, height, Double_flat_field(vblob, 0),
             Double_flat_field(vblob, 1), Double_flat_field(vblob, 2),
             Double_flat_field(vblob, 3), (uint32_t)Long_val(vseed) ^ 0x9e3779b9u);
  return Val_unit;
}
