#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "private_dir.h"
#include "status_matchers.h"

/// End-to-end determinism pins for the AL loop. Two layers:
///
///  1. A golden file (tests/golden/al_golden.txt) pins the *exact* outputs
///     of a tiny fixed-seed 2-round run — the full labeled set in insertion
///     order (seed sample + every selected pair) and the per-round candidate
///     counts / recall / F1 — for the flat (exact) and ivfpq (quantized,
///     warm-refresh) backends. Any unintended behaviour change anywhere in
///     the embed → train → index → refresh → select chain shows up here as
///     a diff, not as a silent metric drift. Regenerate deliberately with
///     DIAL_REGEN_GOLDEN=1 ./al_golden_test.
///
///  2. Checkpoint-resume equivalence: interrupting the same run after round
///     0 and resuming must reproduce the straight-through run exactly —
///     metrics and final labeled set — with index refresh both on and off
///     (on exercises the IbcIndexCache warm-state serialization).

namespace dial::core {
namespace {

Experiment& SharedExperiment() {
  static Experiment* exp = [] {
    ExperimentConfig config = DefaultExperimentConfig(data::Scale::kSmoke);
    config.cache_dir = test_internal::PrivateDir();
    return new Experiment(PrepareExperiment("walmart_amazon", config));
  }();
  return *exp;
}

AlConfig GoldenConfig(IndexBackend backend, bool refresh) {
  AlConfig config = DefaultAlConfig(data::Scale::kSmoke, /*seed=*/77);
  config.rounds = 2;
  config.index_backend = backend;
  config.index_refresh = refresh;
  return config;
}

std::string TempPath(const std::string& name) {
  return test_internal::PrivateDir() + "/" + name;
}

/// Runs the loop with checkpointing and returns (result, final checkpoint).
std::pair<AlResult, AlCheckpoint> RunWithCheckpoint(const AlConfig& config,
                                                    const std::string& path) {
  Experiment& exp = SharedExperiment();
  ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  loop.SetCheckpointPath(path);
  AlResult result = loop.Run();
  AlCheckpoint ckpt;
  DIAL_EXPECT_OK(LoadAlCheckpoint(path, &ckpt));
  return {std::move(result), std::move(ckpt)};
}

/// The golden snapshot of one configuration, serialized line-by-line. The
/// float formatting (%.9f) is part of the format: runs are bit-deterministic
/// on the supported platform, so string equality is the strongest pin.
std::string Snapshot(const std::string& name, const AlResult& result,
                     const AlCheckpoint& ckpt) {
  std::ostringstream out;
  char buf[160];
  out << "config " << name << "\n";
  out << "labels";
  for (const auto& e : ckpt.positives) {
    std::snprintf(buf, sizeof(buf), " +%u:%u%s", e.pair.r, e.pair.s,
                  e.pseudo ? "p" : "");
    out << buf;
  }
  for (const auto& e : ckpt.negatives) {
    std::snprintf(buf, sizeof(buf), " -%u:%u%s", e.pair.r, e.pair.s,
                  e.pseudo ? "p" : "");
    out << buf;
  }
  out << "\n";
  for (const auto& r : result.rounds) {
    std::snprintf(buf, sizeof(buf),
                  "round %zu cand=%zu recall=%.9f test_f1=%.9f "
                  "allpairs_f1=%.9f warm=%zu",
                  r.round, r.cand_size, r.cand_recall, r.test_prf.f1,
                  r.allpairs_prf.f1, r.index_warm_members);
    out << buf << "\n";
  }
  return out.str();
}

std::string GoldenPath() { return std::string(DIAL_GOLDEN_DIR) + "/al_golden.txt"; }

TEST(AlGolden, TwoRoundRunMatchesGoldenFile) {
  std::string snapshot;
  {
    const auto [result, ckpt] = RunWithCheckpoint(
        GoldenConfig(IndexBackend::kFlat, /*refresh=*/true),
        TempPath("golden_flat.ckpt"));
    snapshot += Snapshot("flat_refresh", result, ckpt);
  }
  {
    const auto [result, ckpt] = RunWithCheckpoint(
        GoldenConfig(IndexBackend::kIvfPq, /*refresh=*/true),
        TempPath("golden_ivfpq.ckpt"));
    // Round 2 must actually have taken the warm path for every member.
    ASSERT_EQ(result.rounds.size(), 2u);
    EXPECT_EQ(result.rounds[0].index_warm_members, 0u);
    EXPECT_GT(result.rounds[1].index_warm_members, 0u);
    snapshot += Snapshot("ivfpq_refresh", result, ckpt);
  }

  const std::string path = GoldenPath();
  if (std::getenv("DIAL_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << snapshot;
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with DIAL_REGEN_GOLDEN=1 to create)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(snapshot, want.str())
      << "end-to-end AL outputs changed; if intended, regenerate with "
         "DIAL_REGEN_GOLDEN=1 ./al_golden_test";
}

void ExpectSameRun(const AlResult& a, const AlResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].labels_in_t, b.rounds[i].labels_in_t) << i;
    EXPECT_EQ(a.rounds[i].cand_size, b.rounds[i].cand_size) << i;
    EXPECT_DOUBLE_EQ(a.rounds[i].cand_recall, b.rounds[i].cand_recall) << i;
    EXPECT_DOUBLE_EQ(a.rounds[i].test_prf.f1, b.rounds[i].test_prf.f1) << i;
    EXPECT_DOUBLE_EQ(a.rounds[i].allpairs_prf.f1, b.rounds[i].allpairs_prf.f1)
        << i;
  }
  EXPECT_EQ(a.labels_used, b.labels_used);
}

void ExpectSameLabels(const AlCheckpoint& a, const AlCheckpoint& b) {
  ASSERT_EQ(a.positives.size(), b.positives.size());
  ASSERT_EQ(a.negatives.size(), b.negatives.size());
  for (size_t i = 0; i < a.positives.size(); ++i) {
    EXPECT_EQ(a.positives[i].pair.Key(), b.positives[i].pair.Key()) << i;
    EXPECT_EQ(a.positives[i].pseudo, b.positives[i].pseudo) << i;
  }
  for (size_t i = 0; i < a.negatives.size(); ++i) {
    EXPECT_EQ(a.negatives[i].pair.Key(), b.negatives[i].pair.Key()) << i;
    EXPECT_EQ(a.negatives[i].pseudo, b.negatives[i].pseudo) << i;
  }
}

class ResumeEquivalence : public testing::TestWithParam<bool> {};

TEST_P(ResumeEquivalence, ResumeReproducesStraightRunExactly) {
  const bool refresh = GetParam();
  Experiment& exp = SharedExperiment();
  const AlConfig config = GoldenConfig(IndexBackend::kIvfPq, refresh);
  const std::string tag = refresh ? "on" : "off";

  // Straight 2-round reference (checkpointed so the labeled set is visible).
  const auto [expected, expected_ckpt] =
      RunWithCheckpoint(config, TempPath("resume_ref_" + tag + ".ckpt"));

  // Interrupted after round 0: a 1-round run under the budget-extension
  // fingerprint, then resume to the full 2 rounds. With refresh on, round 1
  // of the resumed run warm-starts from the checkpoint's serialized index
  // structure rather than live in-memory state — the equality below is what
  // certifies that round-trip.
  const std::string path = TempPath("resume_half_" + tag + ".ckpt");
  AlConfig short_config = config;
  short_config.rounds = 1;
  ActiveLearningLoop short_loop(&exp.bundle, &exp.vocab, exp.pretrained.get(),
                                short_config);
  short_loop.SetCheckpointPath(path);
  short_loop.Run();

  ActiveLearningLoop resumed(&exp.bundle, &exp.vocab, exp.pretrained.get(),
                             config);
  DIAL_ASSERT_OK(resumed.RestoreCheckpoint(path));
  resumed.SetCheckpointPath(path);
  const AlResult result = resumed.Run();
  AlCheckpoint result_ckpt;
  DIAL_ASSERT_OK(LoadAlCheckpoint(path, &result_ckpt));

  ExpectSameRun(expected, result);
  ExpectSameLabels(expected_ckpt, result_ckpt);
  if (refresh) {
    // The warm path must genuinely engage on the resumed round.
    ASSERT_EQ(result.rounds.size(), 2u);
    EXPECT_GT(result.rounds[1].index_warm_members, 0u);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(RefreshOnOff, ResumeEquivalence, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "refresh_on" : "refresh_off";
                         });

}  // namespace
}  // namespace dial::core
