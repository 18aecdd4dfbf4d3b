#ifndef DIAL_AUTOGRAD_INFERENCE_H_
#define DIAL_AUTOGRAD_INFERENCE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "la/matrix.h"

/// \file
/// Tape-free forward mode: the inference-engine counterpart of `Tape`.
///
/// A training forward records one `Node` per op — heap-allocated value
/// matrix, stored activations, a backward closure — bookkeeping that a
/// pool-scoring forward never uses. `InferenceContext` replaces all of it
/// with a reusable activation arena: scratch matrices keyed by exact shape,
/// borrowed and returned per forward, so a warmed-up context performs zero
/// heap allocation per call. The `infer` helpers below mirror the *forward*
/// arithmetic of the corresponding ops.cc nodes bit-for-bit (same kernels,
/// same accumulation order, same constants), which is what lets the engine
/// guarantee inference outputs identical to the Tape path (dropout off) —
/// asserted in tests/inference_test.cc.
///
/// Threading: `Acquire`/`Release` are mutex-guarded so batched forwards can
/// borrow scratch from inside `util::ParallelFor` workers; the GEMM helpers
/// take the context's optional pool and stay bit-identical across thread
/// counts (see la/kernels.h). Training forwards stay on the Tape.

namespace dial::util {
class ThreadPool;
}

namespace dial::autograd {

/// Shape-keyed scratch-matrix arena plus the worker pool shared by every
/// forward that runs through it. One context per model instance is the
/// intended granularity: buffers warm up to the model's activation shapes
/// and are reused across calls (and across AL rounds for long-lived owners).
class InferenceContext {
 public:
  explicit InferenceContext(util::ThreadPool* pool = nullptr) : pool_(pool) {}

  InferenceContext(const InferenceContext&) = delete;
  InferenceContext& operator=(const InferenceContext&) = delete;

  /// Unowned worker pool threaded through the engine's GEMMs and batched
  /// fan-outs. Results are bit-identical with or without it.
  void SetThreadPool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* pool() const { return pool_; }

  /// Borrows a scratch matrix of exactly (rows, cols); contents are
  /// unspecified — callers must fully overwrite. Thread-safe.
  la::Matrix* Acquire(size_t rows, size_t cols);

  /// Returns a borrowed matrix to the arena. Thread-safe.
  void Release(la::Matrix* m);

  /// Diagnostics: matrices ever allocated / resident bytes / currently
  /// borrowed. After warm-up `allocated()` stops growing — the zero-heap-
  /// traffic property bench_infer_micro leans on.
  size_t allocated() const;
  size_t arena_bytes() const;
  size_t borrowed() const;

  /// Frees every cached buffer (all borrows must have been returned).
  void Clear();

 private:
  static uint64_t Key(size_t rows, size_t cols) {
    return (static_cast<uint64_t>(rows) << 32) | static_cast<uint64_t>(cols);
  }

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::vector<std::unique_ptr<la::Matrix>>> free_;
  std::unordered_map<const la::Matrix*, std::unique_ptr<la::Matrix>> borrowed_;
  size_t allocated_ = 0;
  size_t bytes_ = 0;
  util::ThreadPool* pool_ = nullptr;  // unowned; null = inline execution
};

/// RAII borrow of one arena matrix; movable so layer forwards can return it.
class Scratch {
 public:
  Scratch(InferenceContext& ctx, size_t rows, size_t cols)
      : ctx_(&ctx), m_(ctx.Acquire(rows, cols)) {}
  ~Scratch() {
    if (m_ != nullptr) ctx_->Release(m_);
  }

  Scratch(Scratch&& other) noexcept : ctx_(other.ctx_), m_(other.m_) {
    other.m_ = nullptr;
  }
  Scratch& operator=(Scratch&& other) noexcept {
    if (this != &other) {
      if (m_ != nullptr) ctx_->Release(m_);
      ctx_ = other.ctx_;
      m_ = other.m_;
      other.m_ = nullptr;
    }
    return *this;
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  la::Matrix& operator*() const { return *m_; }
  la::Matrix* operator->() const { return m_; }
  la::Matrix& mat() const { return *m_; }

 private:
  InferenceContext* ctx_;
  la::Matrix* m_;
};

/// Forward-only mirrors of the ops.cc node arithmetic. Every routine below
/// produces values bit-identical to the corresponding tape op's forward
/// output (the parity contract inference_test pins per layer and end to
/// end). In-place variants are safe because inference never revisits an
/// input activation.
namespace infer {

/// out = a * b (out pre-shaped (a.rows, b.cols); overwritten). Mirrors
/// ops::MatMul's forward: zeroed accumulator + blocked GemmNN.
void MatMul(const la::Matrix& a, const la::Matrix& b, la::Matrix& out,
            util::ThreadPool* pool);

/// out = a * b^T (out pre-shaped (a.rows, b.rows)). Mirrors
/// ops::MatMulTransposeB's forward.
void MatMulTransposeB(const la::Matrix& a, const la::Matrix& b,
                      la::Matrix& out, util::ThreadPool* pool);

/// x = tanh(x) elementwise (ops::Tanh forward).
void TanhInPlace(la::Matrix& x);

/// x = gelu(x) elementwise — BERT's tanh approximation, same constants as
/// ops::Gelu.
void GeluInPlace(la::Matrix& x);

/// Row-wise softmax in place (ops::SoftmaxRows forward).
void SoftmaxRowsInPlace(la::Matrix& x);

/// out = a + b elementwise (ops::Add forward); `out` may alias `a` or `b`.
void AddInto(const la::Matrix& a, const la::Matrix& b, la::Matrix& out);

/// out = per-row layer norm of x, no affine (ops::LayerNormRows forward).
/// `out` may alias `x`.
void LayerNormRows(const la::Matrix& x, la::Matrix& out, float eps = 1e-5f);

/// Row-wise L2 normalization in place with ops::NormalizeRows semantics
/// (norm clamped to eps, multiply by reciprocal) — NOT
/// la::NormalizeRowsInPlace, which skips zero rows.
void NormalizeRowsInPlace(la::Matrix& x, float eps = 1e-8f);

/// out(0, c) = mean over rows of x(:, c) (ops::MeanRows forward); `rows`
/// consecutive rows of x starting at `row_begin`. Writes into out.row(out_row).
void MeanRowsInto(const la::Matrix& x, size_t row_begin, size_t rows,
                  float* out_row);

}  // namespace infer

}  // namespace dial::autograd

#endif  // DIAL_AUTOGRAD_INFERENCE_H_
