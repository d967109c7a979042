/* The seeded input draw and the output fold of a native run, written
 * once.  kfuse_exec_stubs.c includes this file, and Native pastes it
 * into every sandboxed runner's source (a dune rule turns it into the
 * string Arena_c.source), so the daemon and its runners draw and fold
 * by the same code.  Needs <stddef.h> and <stdint.h>; both sides build
 * with -ffp-contract=off, so no compiler may fuse the draw's multiply
 * and add into an FMA and change its rounding. */

static inline uint64_t kf_rotl(uint64_t x, int k)
{
  return (x << k) | (x >> (64 - k));
}

/* One xoshiro256** draw as Rng.fill_float makes it: lo + u * span with
 * u the top 53 bits over 2^53. */
static inline double kf_draw(uint64_t s[4], double lo, double span)
{
  uint64_t r = kf_rotl(s[1] * 5, 7) * 9;
  uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = kf_rotl(s[3], 45);
  return lo + (double)(r >> 11) / 9007199254740992.0 * span;
}

/* [n] draws into [p], in order: the values Image.random puts in an
 * array of [n] pixels, leaving [s] where it leaves the generator. */
static inline void kf_fill(double *p, size_t n, uint64_t s[4], double lo, double span)
{
  for (size_t i = 0; i < n; i++) p[i] = kf_draw(s, lo, span);
}

/* The one min/max/sum loop: acc = {min, max, sum} folded over [n]
 * doubles in order.  A NaN is never a min or max but poisons the sum;
 * of two equal extremes (0.0 and -0.0) the first one stays. */
static inline void kf_fold(const double *p, size_t n, double acc[3])
{
  double lo = acc[0], hi = acc[1], sum = acc[2];
  for (size_t i = 0; i < n; i++) {
    double v = p[i];
    if (v < lo) lo = v;
    if (v > hi) hi = v;
    sum += v;
  }
  acc[0] = lo;
  acc[1] = hi;
  acc[2] = sum;
}
