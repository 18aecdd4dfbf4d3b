#ifndef DIAL_LA_KERNELS_H_
#define DIAL_LA_KERNELS_H_

#include <cstddef>
#include <cstdint>

/// \file
/// Raw-pointer compute kernels behind la::Matrix: cache-blocked GEMM in the
/// three transpose layouts autograd needs, a blocked transpose, batched
/// row-distance kernels for the index/selector scan loops, and the PQ ADC
/// scan. Every entry point here dispatches through la/arch.h to a
/// per-CPU-tier instantiation (scalar / AVX2 / AVX-512 / NEON) selected at
/// runtime — see arch.h for the tier policy and the DIAL_FORCE_ARCH override.
///
/// Accumulation contract (all callers AND all dispatch tiers rely on this):
///  - Everything accumulates in float32 with no FMA contraction. Row
///    reductions (Dot, SquaredDistance, NormsSquared) use SIXTEEN independent
///    partial sums over interleaved lanes (lane j sums elements i ≡ j mod
///    16), combined by the fixed tree ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))
///    + ..., with a sequential scalar tail for n % 16 — wide enough that a
///    512-bit register is one accumulator and every narrower tier keeps the
///    same per-lane chains, so all tiers are bit-identical. The SAME routine
///    backs the scalar and batch entry points, so a batched scan is
///    bit-identical to calling the scalar kernel per row.
///  - GEMM accumulates each output element over k in a fixed order: k-blocks
///    ascending, 4 rows of b combined per step. The order never depends on
///    the thread count (threads split output rows, never the k reduction) or
///    the dispatch tier (SIMD widens over output columns, never k), so
///    pooled GEMM is bit-identical to inline GEMM on every tier.
///  - ADC accumulates per code over 4 interleaved subspace partials combined
///    as (s0+s1)+(s2+s3) with a sequential tail for m % 4; the batched scan
///    replays that chain per code.
///  - Reductions ACROSS many rows (k-means inertia, k-means++ totals) are
///    the caller's job and should accumulate in double; per-row / per-pair
///    quantities stay float32.
///
/// Threading: the Gemm* entry points take an optional util::ThreadPool and
/// fan out over contiguous output-row blocks (deterministic partials as
/// above). Null pool, a single worker, or nested calls from a pool worker
/// all degrade to inline execution via util::ParallelFor.

namespace dial::util {
class ThreadPool;
}

namespace dial::la::kernels {

/// Version of the accumulation contract above. Results persisted from these
/// kernels' arithmetic — the pretrained-model cache key (tplm/model_cache.h)
/// — hash it, so bump it whenever any accumulation order changes. v1 was
/// the 4-partial row reduction; v2 is the 16-lane one.
inline constexpr uint32_t kNumericsVersion = 2;

/// out(m,n) += a(m,k) * b(k,n). Row-major, densely packed.
void GemmNN(size_t m, size_t n, size_t k, const float* a, const float* b,
            float* out, util::ThreadPool* pool = nullptr);

/// out(m,n) += a(k,m)^T * b(k,n). `a` is stored (k,m) row-major.
void GemmTN(size_t m, size_t n, size_t k, const float* a, const float* b,
            float* out, util::ThreadPool* pool = nullptr);

/// out(m,n) += a(m,k) * b(n,k)^T. `b` is stored (n,k) row-major.
void GemmNT(size_t m, size_t n, size_t k, const float* a, const float* b,
            float* out, util::ThreadPool* pool = nullptr);

/// out(cols,rows) = in(rows,cols)^T, tiled so both sides stay cache-resident.
void TransposeBlocked(size_t rows, size_t cols, const float* in, float* out);

/// Dot product of two length-n rows (16 partial sums, see contract above).
float Dot(const float* a, const float* b, size_t n);

/// Squared L2 distance between two length-n rows.
float SquaredDistance(const float* a, const float* b, size_t n);

/// out[i] = Dot(q, base + i*d) for i in [0, n). Bit-identical to the scalar
/// kernel per row.
void DotBatch(const float* q, const float* base, size_t n, size_t d,
              float* out);

/// out[i] = SquaredDistance(q, base + i*d) for i in [0, n).
void SquaredDistanceBatch(const float* q, const float* base, size_t n,
                          size_t d, float* out);

/// out[i] = Dot(row_i, row_i) for each of the n rows of `a` (n x d).
void NormsSquared(const float* a, size_t n, size_t d, float* out);

/// Index of the smallest (resp. largest) value in v[0..n); first index wins
/// ties. The standard follow-up to a batch distance scan (nearest centroid,
/// farthest point); n must be > 0.
size_t ArgMin(const float* v, size_t n);
size_t ArgMax(const float* v, size_t n);

/// Precomputed-norms expansion |q - x|² = |q|² - 2 q·x + |x|², evaluated as
/// out[i] = max(0, (q_sq + base_sq[i]) - 2*dots[i]). `dots` holds q·x_i —
/// typically one scores row of a GEMM over the database block, which is how
/// matmul_search turns its tile GEMM into L2 distances. The clamp absorbs
/// the tiny negatives floating-point cancellation can produce. NOT
/// bit-identical to SquaredDistanceBatch — use it where GEMM throughput
/// beats exactness.
void SquaredDistanceFromDots(float q_sq, const float* dots,
                             const float* base_sq, size_t n, float* out);

/// PQ asymmetric-distance lookup: sum over the m subspaces of
/// table[sub * ksub + code[sub]], where `table` is a query's precomputed
/// (m x ksub) distance table. 4 interleaved subspace partials, see contract.
float AdcDistance(const float* table, size_t ksub, const uint8_t* code,
                  size_t m);

/// out[i] = AdcDistance(table, ksub, codes + i*m, m) for i in [0, n).
/// Bit-identical to the per-code kernel; SIMD tiers scan several codes per
/// step with one gather per subspace.
void AdcDistanceScan(const float* table, size_t ksub, const uint8_t* codes,
                     size_t m, size_t n, float* out);

}  // namespace dial::la::kernels

#endif  // DIAL_LA_KERNELS_H_
