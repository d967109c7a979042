/* The per-pixel loop of Frames.synthetic.
 *
 * OCaml ints are 63 bits wide, but each mix round keeps only the low 30
 * bits, and those depend only on the low 32 bits of its operands (the
 * widest reach is h >> 2).  So 32-bit unsigned arithmetic on the low
 * words of the OCaml ints computes the same 30 bits, and lets the
 * compiler vectorize the loop.  The library builds with
 * -ffp-contract=off, so no compiler may fuse a multiply and an add into
 * an FMA and change the rounding: every pixel is bit-identical to the
 * OCaml reference in test/test_stream.ml. */

#include <caml/mlvalues.h>

#include <stdint.h>

static inline uint32_t kfuse_mix(uint32_t h, uint32_t v)
{
  return (h ^ (v + 0x7f4a7c15u + (h << 6) + (h >> 2))) & 0x3FFFFFFFu;
}

/* Fill [vdata] (length |ex| * |ey|, row-major) with frame pixels:
 * 0.15 + 0.7 * ex[x] * ey[y] + 0.05 * hash2(seed, x, y) / 2^30.
 * Allocates nothing and raises nothing ([@@noalloc]). */
value kfuse_frames_fill(value vdata, value vex, value vey, value vseed)
{
  double *data = (double *)Op_val(vdata);
  const double *ex = (const double *)Op_val(vex);
  const double *ey = (const double *)Op_val(vey);
  mlsize_t width = Wosize_val(vex) / Double_wosize;
  mlsize_t height = Wosize_val(vey) / Double_wosize;
  uint32_t h0 = (uint32_t)Long_val(vseed) ^ 0x9e3779b9u;
  for (mlsize_t y = 0; y < height; y++) {
    double eyv = ey[y];
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
  return Val_unit;
}
