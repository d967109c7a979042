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

/* Fill [vdata] (width [vwidth], row-major) with frame pixels:
 * 0.15 + 0.7 * ex[x] * ey[y] + 0.05 * hash2(seed, x, y) / 2^30, where
 * ex[x] = exp(-((x - cx) / rx)^2) and ey[y] = exp(-((y - cy) / ry)^2)
 * for [vblob] = [| cx; cy; rx; ry |].  The column terms wait in row 0,
 * which is drawn last, each pixel there reading its term before it
 * overwrites it.  Allocates nothing and raises nothing ([@@noalloc]). */
value kfuse_frames_fill(value vdata, value vwidth, value vblob, value vseed)
{
  double *data = (double *)Op_val(vdata), *ex = data;
  mlsize_t width = Long_val(vwidth);
  mlsize_t height = width == 0 ? 0 : Wosize_val(vdata) / Double_wosize / width;
  if (height == 0) return Val_unit;
  double cx = Double_flat_field(vblob, 0), cy = Double_flat_field(vblob, 1);
  double rx = Double_flat_field(vblob, 2), ry = Double_flat_field(vblob, 3);
  uint32_t h0 = (uint32_t)Long_val(vseed) ^ 0x9e3779b9u;
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
  return Val_unit;
}
