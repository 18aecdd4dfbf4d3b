// perfbench — the repository benchmark's binary. run.py builds it,
// prepares the build's artifacts once (`perfbench prepare`), then runs one
// workload per process (`perfbench run --workload=...`). The last line of
// a run's standard output is its result as one JSON object.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "la/arch.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "workloads.h"

namespace {

using perfbench::Result;

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      return dial::util::Trim(line.substr(line.find(':') + 1));
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void PrintResult(const Result& result) {
  for (const auto& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  for (const auto& m : result.metrics) {
    std::printf("  %-48s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.check_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  if (!result.outputs.empty()) json += ", \"outputs\": \"" + JsonEscape(result.outputs) + "\"";
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += dial::util::StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                                  JsonEscape(m.name).c_str(), m.value,
                                  JsonEscape(m.unit).c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench prepare|run [--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  dial::util::FlagSet flags;
  std::string* workload = flags.AddString("workload", "", "al_smoke|serve_match|serve_mixed");
  int64_t* seed = flags.AddInt("seed", 1, "workload seed");
  double* seconds = flags.AddDouble("seconds", 10.0, "measurement budget");
  bool* trace = flags.AddBool("trace", false, "traced run (per-layer metrics)");
  std::string* artifacts = flags.AddString("artifacts", "", "this build's artifact dir");
  flags.Parse(argc - 1, argv + 1);

  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("machine: cpu \"%s\", nproc %ld, la tier %s, build %s\n", CpuModel().c_str(),
              ::sysconf(_SC_NPROCESSORS_ONLN),
              dial::la::arch::TierName(dial::la::arch::ActiveTier()), PERFBENCH_BUILD_TYPE);

  if (command == "prepare") {
    return perfbench::Prepare(*artifacts) ? 0 : 1;
  }
  if (command != "run") {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  }

  perfbench::RunOptions options;
  options.workload = *workload;
  options.seed = static_cast<uint64_t>(*seed);
  options.seconds = *seconds;
  options.trace = *trace;
  options.artifacts = *artifacts;

  Result result;
  if (options.workload == "al_smoke") {
    result = perfbench::RunAlSmoke(options);
  } else if (options.workload == "serve_match" || options.workload == "serve_mixed") {
    result = perfbench::RunServe(options, options.workload == "serve_mixed");
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  PrintResult(result);
  return 0;
}
