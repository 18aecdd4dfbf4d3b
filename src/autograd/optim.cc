#include "autograd/optim.h"

#include <cmath>

namespace dial::autograd {

AdamW::AdamW(std::vector<ParamGroup> groups) : AdamW(std::move(groups), Options()) {}

AdamW::AdamW(std::vector<ParamGroup> groups, Options options)
    : groups_(std::move(groups)), options_(options) {
  for (auto& group : groups_) {
    for (Parameter* p : group.params) {
      DIAL_CHECK(p != nullptr);
      p->ZeroGrad();
      p->adam_m = la::Matrix(p->value.rows(), p->value.cols(), 0.0f);
      p->adam_v = la::Matrix(p->value.rows(), p->value.cols(), 0.0f);
    }
  }
}

void AdamW::Step(float lr_scale) {
  ++t_;
  // Optional global gradient clipping across all groups.
  float clip_scale = 1.0f;
  if (options_.clip_norm > 0.0f) {
    double total_sq = 0.0;
    for (const auto& group : groups_) {
      for (const Parameter* p : group.params) {
        const float n = la::FrobeniusNorm(p->grad);
        total_sq += static_cast<double>(n) * n;
      }
    }
    const float total = static_cast<float>(std::sqrt(total_sq));
    if (total > options_.clip_norm) clip_scale = options_.clip_norm / total;
  }
  const float bc1 = 1.0f - std::pow(options_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(options_.beta2, static_cast<float>(t_));
  for (auto& group : groups_) {
    const float lr = group.lr * lr_scale;
    for (Parameter* p : group.params) {
      float* w = p->value.data();
      float* g = p->grad.data();
      float* m = p->adam_m.data();
      float* v = p->adam_v.data();
      const size_t n = p->value.size();
      for (size_t i = 0; i < n; ++i) {
        const float gi = g[i] * clip_scale;
        m[i] = options_.beta1 * m[i] + (1.0f - options_.beta1) * gi;
        v[i] = options_.beta2 * v[i] + (1.0f - options_.beta2) * gi * gi;
        const float mhat = m[i] / bc1;
        const float vhat = v[i] / bc2;
        w[i] -= lr * (mhat / (std::sqrt(vhat) + options_.eps) +
                      options_.weight_decay * w[i]);
      }
    }
  }
}

void AdamW::ZeroGrad() {
  for (auto& group : groups_) {
    for (Parameter* p : group.params) p->ZeroGrad();
  }
}

void Sgd::Step() {
  for (Parameter* p : params_) {
    la::Axpy(p->value, -lr_, p->grad);
  }
}

void Sgd::ZeroGrad() {
  for (Parameter* p : params_) p->ZeroGrad();
}

}  // namespace dial::autograd
