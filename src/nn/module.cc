#include "nn/module.h"

#include <algorithm>
#include <cmath>

namespace dial::nn {

std::vector<autograd::Parameter*> Module::Parameters() {
  std::vector<autograd::Parameter*> out;
  for (auto& p : params_) out.push_back(p.get());
  for (Module* child : children_) {
    auto sub = child->Parameters();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

size_t Module::NumWeights() {
  size_t total = 0;
  for (autograd::Parameter* p : Parameters()) total += p->value.size();
  return total;
}

void Module::Save(util::BinaryWriter& writer) {
  auto params = Parameters();
  writer.WriteU64(params.size());
  for (autograd::Parameter* p : params) {
    writer.WriteString(p->name);
    writer.WriteU64(p->value.rows());
    writer.WriteU64(p->value.cols());
    writer.WriteFloats(p->value.data(), p->value.size());
  }
}

util::Status Module::Load(util::BinaryReader& reader) {
  DIAL_RETURN_IF_ERROR(reader.status());
  auto params = Parameters();
  const uint64_t count = reader.ReadU64();
  DIAL_RETURN_IF_ERROR(reader.status());
  if (count != params.size()) {
    return util::Status::Corruption("parameter count mismatch for module " + name_);
  }
  for (autograd::Parameter* p : params) {
    const std::string name = reader.ReadString();
    const uint64_t rows = reader.ReadU64();
    const uint64_t cols = reader.ReadU64();
    std::vector<float> data = reader.ReadFloatVector();
    DIAL_RETURN_IF_ERROR(reader.status());
    if (name != p->name) {
      return util::Status::Corruption("parameter name mismatch: expected " + p->name +
                                      " got " + name);
    }
    if (rows != p->value.rows() || cols != p->value.cols() ||
        data.size() != p->value.size()) {
      return util::Status::Corruption("parameter shape mismatch for " + name);
    }
    std::copy(data.begin(), data.end(), p->value.data());
  }
  return util::Status::OK();
}

void Module::CopyWeightsFrom(Module& other) {
  auto mine = Parameters();
  auto theirs = other.Parameters();
  DIAL_CHECK_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    DIAL_CHECK_EQ(mine[i]->value.rows(), theirs[i]->value.rows());
    DIAL_CHECK_EQ(mine[i]->value.cols(), theirs[i]->value.cols());
    mine[i]->value = theirs[i]->value;
  }
}

autograd::Parameter* Module::AddParameter(const std::string& name, size_t rows,
                                          size_t cols) {
  params_.push_back(
      std::make_unique<autograd::Parameter>(name_ + "." + name, rows, cols));
  return params_.back().get();
}

void Module::AddChild(Module* child) {
  DIAL_CHECK(child != nullptr);
  children_.push_back(child);
}

void XavierInit(autograd::Parameter* p, util::Rng& rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(p->value.rows() + p->value.cols()));
  p->value.RandUniform(rng, limit);
}

void NormalInit(autograd::Parameter* p, util::Rng& rng, float stddev) {
  p->value.RandNormal(rng, stddev);
}

}  // namespace dial::nn
