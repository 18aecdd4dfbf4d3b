#include "autograd/tape.h"

namespace dial::autograd {

float Var::scalar() const {
  DIAL_CHECK_EQ(node_->rows(), 1u);
  DIAL_CHECK_EQ(node_->cols(), 1u);
  return node_->value()(0, 0);
}

Var Tape::Constant(la::Matrix value) {
  Node* n = NewNode(std::move(value), /*requires_grad=*/false);
  return Var(n);
}

Var Tape::Leaf(Parameter* param) {
  DIAL_CHECK(param != nullptr);
  auto node = std::make_unique<Node>();
  node->tape = this;
  node->value_ptr = &param->value;
  node->requires_grad = true;
  Node* raw = node.get();
  node->backward = [this, raw, param]() {
    if (raw->HasGrad()) AddParamGrad(param, raw->grad);
  };
  nodes_.push_back(std::move(node));
  return Var(raw);
}

Node* Tape::NewNode(la::Matrix value, bool requires_grad) {
  auto node = std::make_unique<Node>();
  node->tape = this;
  node->owned_value = std::move(value);
  node->value_ptr = &node->owned_value;
  node->requires_grad = requires_grad;
  Node* raw = node.get();
  nodes_.push_back(std::move(node));
  return raw;
}

void Tape::Backward(Var loss) {
  DIAL_CHECK(loss.valid());
  DIAL_CHECK_EQ(loss.rows(), 1u);
  DIAL_CHECK_EQ(loss.cols(), 1u);
  Backward(loss, la::Matrix(1, 1, 1.0f));
}

void Tape::Backward(Var root, const la::Matrix& seed) {
  DIAL_CHECK(!backward_ran_) << "Backward may run once per tape";
  backward_ran_ = true;
  DIAL_CHECK(root.valid());
  DIAL_CHECK(root.tape() == this);
  DIAL_CHECK_EQ(seed.rows(), root.rows());
  DIAL_CHECK_EQ(seed.cols(), root.cols());
  // Accumulate rather than assign: a root seeded with a consumer's gradient
  // then holds exactly the bits that consumer's backward would have added.
  la::AddInPlace(root.node()->EnsureGrad(), seed);
  for (size_t i = nodes_.size(); i-- > 0;) {
    Node* n = nodes_[i].get();
    if (!n->requires_grad || !n->backward || !n->HasGrad()) continue;
    n->backward();
  }
}

namespace {

/// The arithmetic of every Parameter::grad write, immediate or deferred.
void AddInto(Parameter* param, const la::Matrix& grad, const std::vector<int>& rows) {
  if (rows.empty()) {
    la::AddInPlace(param->grad, grad);
    return;
  }
  DIAL_CHECK_EQ(grad.rows(), rows.size());
  DIAL_CHECK_EQ(grad.cols(), param->grad.cols());
  const size_t d = grad.cols();
  for (size_t i = 0; i < rows.size(); ++i) {
    float* dst = param->grad.row(rows[i]);
    const float* src = grad.row(i);
    for (size_t c = 0; c < d; ++c) dst[c] += src[c];
  }
}

}  // namespace

void ParamGradWrite::Apply() const { AddInto(param, grad, rows); }

void Tape::AddParamGrad(Parameter* param, la::Matrix& grad,
                        const std::vector<int>* rows) {
  static const std::vector<int> kWhole;
  if (rows != nullptr && rows->empty()) return;  // a scatter of no rows
  const std::vector<int>& target_rows = rows != nullptr ? *rows : kWhole;
  if (mode_ == ParamGradMode::kImmediate) {
    AddInto(param, grad, target_rows);
  } else {
    param_grad_writes_.push_back({param, std::move(grad), target_rows});
  }
}

std::vector<ParamGradWrite> Tape::TakeParamGradWrites() {
  return std::move(param_grad_writes_);
}

}  // namespace dial::autograd
