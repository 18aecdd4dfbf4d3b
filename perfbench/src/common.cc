#include "common.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size());
  size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank - 1e-9);
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid), values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return 0.5 * (upper + *std::max_element(values.begin(), values.begin() + static_cast<long>(mid)));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench
