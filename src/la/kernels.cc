// Public kernel entry points: thin threading + dispatch shims. The compute
// lives in kernels_arch.inc, instantiated once per CPU tier (see la/arch.h);
// this TU only partitions output rows across the pool and forwards to the
// active tier's table. The table is loaded once per entry call, so a
// concurrent SetTier never mixes tiers within one GEMM.
#include "la/kernels.h"

#include <algorithm>

#include "la/arch.h"
#include "util/thread_pool.h"

#if defined(__GNUC__) || defined(__clang__)
#define DIAL_RESTRICT __restrict__
#else
#define DIAL_RESTRICT
#endif

namespace dial::la::kernels {

namespace {
constexpr size_t kTransposeTile = 32;
}  // namespace

void GemmNN(size_t m, size_t n, size_t k, const float* a, const float* b,
            float* out, util::ThreadPool* pool) {
  if (m == 0 || n == 0 || k == 0) return;
  const arch::KernelTable& table = arch::Active();
  util::ParallelFor(pool, m, [=, &table](size_t begin, size_t end) {
    table.gemm_nn_range(begin, end, n, k, a, b, out);
  });
}

void GemmTN(size_t m, size_t n, size_t k, const float* a, const float* b,
            float* out, util::ThreadPool* pool) {
  if (m == 0 || n == 0 || k == 0) return;
  const arch::KernelTable& table = arch::Active();
  util::ParallelFor(pool, m, [=, &table](size_t begin, size_t end) {
    table.gemm_tn_range(begin, end, m, n, k, a, b, out);
  });
}

void GemmNT(size_t m, size_t n, size_t k, const float* a, const float* b,
            float* out, util::ThreadPool* pool) {
  if (m == 0 || n == 0 || k == 0) return;
  const arch::KernelTable& table = arch::Active();
  util::ParallelFor(pool, m, [=, &table](size_t begin, size_t end) {
    table.gemm_nt_range(begin, end, n, k, a, b, out);
  });
}

void TransposeBlocked(size_t rows, size_t cols, const float* DIAL_RESTRICT in,
                      float* DIAL_RESTRICT out) {
  for (size_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
    const size_t r1 = std::min(rows, r0 + kTransposeTile);
    for (size_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
      const size_t c1 = std::min(cols, c0 + kTransposeTile);
      for (size_t r = r0; r < r1; ++r) {
        const float* DIAL_RESTRICT irow = in + r * cols;
        for (size_t c = c0; c < c1; ++c) out[c * rows + r] = irow[c];
      }
    }
  }
}

float Dot(const float* a, const float* b, size_t n) {
  return arch::Active().dot(a, b, n);
}

float SquaredDistance(const float* a, const float* b, size_t n) {
  return arch::Active().squared_distance(a, b, n);
}

void DotBatch(const float* q, const float* base, size_t n, size_t d,
              float* out) {
  arch::Active().dot_batch(q, base, n, d, out);
}

void SquaredDistanceBatch(const float* q, const float* base, size_t n,
                          size_t d, float* out) {
  arch::Active().squared_distance_batch(q, base, n, d, out);
}

void NormsSquared(const float* a, size_t n, size_t d, float* out) {
  arch::Active().norms_squared(a, n, d, out);
}

size_t ArgMin(const float* v, size_t n) {
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (v[i] < v[best]) best = i;
  }
  return best;
}

size_t ArgMax(const float* v, size_t n) {
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

void SquaredDistanceFromDots(float q_sq, const float* dots,
                             const float* base_sq, size_t n, float* out) {
  arch::Active().squared_distance_from_dots(q_sq, dots, base_sq, n, out);
}

float AdcDistance(const float* table, size_t ksub, const uint8_t* code,
                  size_t m) {
  return arch::Active().adc_one(table, ksub, code, m);
}

void AdcDistanceScan(const float* table, size_t ksub, const uint8_t* codes,
                     size_t m, size_t n, float* out) {
  arch::Active().adc_scan(table, ksub, codes, m, n, out);
}

}  // namespace dial::la::kernels
