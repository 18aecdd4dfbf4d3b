#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

/// \file
/// The benchmark's workloads. Each runs in its own process (see run.py), on
/// the shipped defaults of `dial_cli run` / `dial_serve`, against artifacts
/// (pretrained model cache, saved serving bundle) private to the build.

namespace perfbench {

/// al_smoke: the AL run `dial_cli run` makes with its defaults (smoke scale),
/// repeated for the budget; pretrained model from the build's own cache.
Result RunAlSmoke(const RunOptions& options);

/// The saved serving bundle inside a build's artifact directory.
inline std::string BundlePath(const std::string& artifacts) {
  return artifacts + "/serve_smoke.bundle";
}

/// serve_match (mixed = false) and serve_mixed (mixed = true): open-loop
/// traffic over the unix socket to an in-process serve::Server.
Result RunServe(const RunOptions& options, bool mixed);

/// One-time preparation of the build's artifacts: pretrains (or reuses) the
/// TPLM for al_smoke and trains + saves the serving bundle at
/// BundlePath(artifacts). Returns false on failure.
bool Prepare(const std::string& artifacts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
