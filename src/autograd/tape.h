#ifndef DIAL_AUTOGRAD_TAPE_H_
#define DIAL_AUTOGRAD_TAPE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.h"

/// \file
/// Tape-based reverse-mode automatic differentiation over `la::Matrix`.
///
/// Usage pattern (one tape per training step):
///
///   Tape tape;
///   Var x = tape.Constant(input);
///   Var w = tape.Leaf(&weights);        // gradient accumulates into weights
///   Var loss = BceWithLogits(MatMul(x, w), targets);
///   tape.Backward(loss);                // fills weights.grad
///
/// Nodes are created in topological order by construction, so the backward
/// pass is a single reverse sweep. Ops that feed only `requires_grad=false`
/// inputs skip registering a backward closure entirely, which makes
/// frozen-transformer paths (the DIAL blocker) nearly free to differentiate
/// through.
///
/// Data-parallel training records one tape per example instead (see
/// `ParamGradMode::kDeferred`): each tape's sweep touches only its own nodes,
/// so tapes run concurrently, and applying their queued parameter-gradient
/// writes last-example-first reproduces the shared tape's bits exactly.

namespace dial::autograd {

class Tape;

/// A trainable tensor with persistent gradient and optimizer state. Owned by
/// nn::Module subclasses; referenced (not copied) by tapes.
struct Parameter {
  std::string name;
  la::Matrix value;
  la::Matrix grad;
  // AdamW state, lazily sized by the optimizer.
  la::Matrix adam_m;
  la::Matrix adam_v;

  Parameter() = default;
  Parameter(std::string n, size_t rows, size_t cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols, 0.0f) {}

  void ZeroGrad() {
    if (grad.rows() != value.rows() || grad.cols() != value.cols()) {
      grad = la::Matrix(value.rows(), value.cols(), 0.0f);
    } else {
      grad.Zero();
    }
  }
};

/// One entry in the tape. Public because op implementations live in ops.cc;
/// client code only touches `Var`.
struct Node {
  Tape* tape = nullptr;
  // Owned value, or an alias of an external Parameter's value.
  la::Matrix owned_value;
  const la::Matrix* value_ptr = nullptr;
  la::Matrix grad;  // empty until first accumulation
  bool requires_grad = false;
  std::function<void()> backward;  // may be empty

  const la::Matrix& value() const { return *value_ptr; }
  size_t rows() const { return value_ptr->rows(); }
  size_t cols() const { return value_ptr->cols(); }

  /// Allocates a zero gradient on first use.
  la::Matrix& EnsureGrad() {
    if (grad.rows() != rows() || grad.cols() != cols()) {
      grad = la::Matrix(rows(), cols(), 0.0f);
    }
    return grad;
  }
  bool HasGrad() const { return grad.size() == value_ptr->size() && grad.size() > 0; }
};

/// Lightweight handle to a tape node.
class Var {
 public:
  Var() : node_(nullptr) {}
  explicit Var(Node* node) : node_(node) {}

  bool valid() const { return node_ != nullptr; }
  const la::Matrix& value() const { return node_->value(); }
  const la::Matrix& grad() const { return node_->grad; }
  bool requires_grad() const { return node_->requires_grad; }
  size_t rows() const { return node_->rows(); }
  size_t cols() const { return node_->cols(); }
  Node* node() const { return node_; }
  Tape* tape() const { return node_->tape; }

  /// The single scalar held by a 1x1 var.
  float scalar() const;

 private:
  Node* node_;
};

/// When a tape's reverse sweep writes `Parameter::grad`. Those writes (the
/// `Leaf` accumulation and the `EmbeddingGather` scatter) are the only state
/// a sweep shares with other tapes.
enum class ParamGradMode {
  /// Written during Backward(), in sweep order.
  kImmediate,
  /// Queued in sweep order (see TakeParamGradWrites). Backward() then
  /// writes nothing outside the tape, so tapes over the same parameters
  /// may sweep concurrently.
  kDeferred,
};

/// One queued write into `param->grad`: `grad` is added to the whole
/// gradient, or, when `rows` is non-empty, row i of `grad` to row rows[i]
/// (an embedding scatter). Owns its data, so it outlives its tape.
struct ParamGradWrite {
  Parameter* param = nullptr;
  la::Matrix grad;
  std::vector<int> rows;

  void Apply() const;
};

/// Records a computation graph and runs its reverse sweep.
class Tape {
 public:
  explicit Tape(ParamGradMode mode = ParamGradMode::kImmediate) : mode_(mode) {}
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// A constant input (no gradient ever flows into it).
  Var Constant(la::Matrix value);

  /// A leaf bound to an external Parameter; Backward() accumulates its
  /// gradient into `param->grad` (which must already be shaped like
  /// `param->value`), or queues that write in deferred mode.
  Var Leaf(Parameter* param);

  /// Internal: creates a derived node. `requires_grad` should be the OR of
  /// the inputs'. The caller fills `backward` only when requires_grad.
  Node* NewNode(la::Matrix value, bool requires_grad);

  /// Runs the reverse sweep from `loss` (must be 1x1). May be called once.
  void Backward(Var loss);

  /// Runs the reverse sweep from `root` with `seed` added to its gradient
  /// (same shape as `root`), as if `root` fed a larger graph whose sweep
  /// reached it with that gradient. May be called once.
  void Backward(Var root, const la::Matrix& seed);

  /// The one way a backward closure writes a Parameter::grad: adds `grad`
  /// (row i of it to row (*rows)[i] when `rows` is given) now, or in
  /// deferred mode queues the write, moving `grad` out — a node's gradient
  /// is final once its own backward runs.
  void AddParamGrad(Parameter* param, la::Matrix& grad,
                    const std::vector<int>* rows = nullptr);

  /// Deferred mode: hands over the writes queued so far, in sweep order.
  /// Apply them in that order; the tape itself is no longer needed.
  std::vector<ParamGradWrite> TakeParamGradWrites();

  size_t num_nodes() const { return nodes_.size(); }

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
  ParamGradMode mode_;
  std::vector<ParamGradWrite> param_grad_writes_;
  bool backward_ran_ = false;
};

}  // namespace dial::autograd

#endif  // DIAL_AUTOGRAD_TAPE_H_
