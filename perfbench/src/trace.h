#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// In-memory span recorder for the traced runs. Spans are recorded by the
/// benchmark around its calls into each layer's public entry points (the
/// program itself carries no instrumentation), kept in memory while the
/// run is timed, and written out once at the end.

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the span that caused this one; -1 for a root.
  int64_t parent = -1;
  /// Spans of one request share this id; -1 when not request-scoped.
  int64_t request = -1;
};

class Tracer {
 public:
  /// Thread-safe; returns the span's index (the handle children use as
  /// their parent).
  int64_t Record(std::string name, int64_t start_ns, int64_t end_ns,
                 int64_t parent, int64_t request);

  /// Self time of every span (its duration minus the part of it that its
  /// children cover), in microseconds, grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;

  /// Spans that start before or end after the span that caused them.
  size_t SpansOutsideParent() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
