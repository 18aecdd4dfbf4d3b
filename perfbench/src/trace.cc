#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t Tracer::Record(std::string name, int64_t start_ns, int64_t end_ns,
                       int64_t parent, int64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

size_t Tracer::SpansOutsideParent() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t outside = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<size_t>(span.parent)];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) ++outside;
  }
  return outside;
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t from = std::max(start, cursor);
      const int64_t to = std::min(end, span.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    out[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns - covered) / 1e3);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"request\":%lld}\n",
                 span.name.c_str(), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
