#include <gtest/gtest.h>

#include "baselines/rules.h"
#include "core/experiment.h"
#include "private_dir.h"

namespace dial::core {
namespace {

/// One shared smoke experiment per test process (pretraining is the
/// expensive part).
Experiment& SharedExperiment() {
  static Experiment* exp = [] {
    ExperimentConfig config = DefaultExperimentConfig(data::Scale::kSmoke);
    config.cache_dir = test_internal::PrivateDir();
    return new Experiment(PrepareExperiment("walmart_amazon", config));
  }();
  return *exp;
}

AlConfig SmokeAl(uint64_t seed) {
  AlConfig config = DefaultAlConfig(data::Scale::kSmoke, seed);
  config.rounds = 2;
  return config;
}

TEST(Integration, PrepareExperimentProducesConsistentPieces) {
  Experiment& exp = SharedExperiment();
  EXPECT_FALSE(exp.bundle.dups.empty());
  EXPECT_GT(exp.vocab.size(), 100u);
  EXPECT_EQ(exp.pretrained->config().transformer.vocab_size, exp.vocab.size());
}

TEST(Integration, DialLoopRunsAndReportsMetrics) {
  Experiment& exp = SharedExperiment();
  ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), SmokeAl(7));
  const AlResult result = loop.Run();
  ASSERT_EQ(result.rounds.size(), 2u);
  for (const RoundMetrics& m : result.rounds) {
    EXPECT_GT(m.cand_size, 0u);
    EXPECT_GE(m.cand_recall, 0.0);
    EXPECT_LE(m.cand_recall, 1.0);
    EXPECT_GT(m.labels_in_t, 0u);
    EXPECT_GE(m.t_train_matcher, 0.0);
  }
  EXPECT_GT(result.labels_used, 0u);
  EXPECT_GT(result.block_match_seconds, 0.0);
  // The learned blocker must beat random chance decisively on candidates.
  EXPECT_GT(result.final_cand_recall, 0.2);
}

TEST(Integration, LabelBudgetRespected) {
  Experiment& exp = SharedExperiment();
  AlConfig config = SmokeAl(8);
  config.rounds = 2;
  config.budget_per_round = 10;
  ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  const AlResult result = loop.Run();
  EXPECT_LE(result.labels_used, 20u);
}

TEST(Integration, DeterministicGivenSeed) {
  Experiment& exp = SharedExperiment();
  AlConfig config = SmokeAl(9);
  config.rounds = 1;
  ActiveLearningLoop a(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  ActiveLearningLoop b(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  const AlResult ra = a.Run();
  const AlResult rb = b.Run();
  EXPECT_EQ(ra.rounds[0].cand_recall, rb.rounds[0].cand_recall);
  EXPECT_EQ(ra.rounds[0].test_prf.f1, rb.rounds[0].test_prf.f1);
  EXPECT_EQ(ra.rounds[0].allpairs_prf.f1, rb.rounds[0].allpairs_prf.f1);
}

class BlockingStrategies : public testing::TestWithParam<BlockingStrategy> {};

TEST_P(BlockingStrategies, EveryStrategyCompletes) {
  Experiment& exp = SharedExperiment();
  AlConfig config = SmokeAl(10);
  config.rounds = 1;
  config.blocking = GetParam();
  ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  if (GetParam() == BlockingStrategy::kFixedExternal) {
    loop.SetExternalCandidates(baselines::RulesCandidates(exp.bundle));
  }
  const AlResult result = loop.Run();
  EXPECT_EQ(result.rounds.size(), 1u);
  EXPECT_GT(result.rounds[0].cand_size, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    All, BlockingStrategies,
    testing::Values(BlockingStrategy::kDial, BlockingStrategy::kPairedFixed,
                    BlockingStrategy::kPairedAdapt, BlockingStrategy::kSentenceBert,
                    BlockingStrategy::kFixedExternal));

class SelectorsE2E : public testing::TestWithParam<SelectorKind> {};

TEST_P(SelectorsE2E, EverySelectorCompletes) {
  Experiment& exp = SharedExperiment();
  AlConfig config = SmokeAl(11);
  config.rounds = 1;
  config.selector = GetParam();
  config.qbc_committee_size = 2;
  ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  const AlResult result = loop.Run();
  EXPECT_GT(result.labels_used, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    All, SelectorsE2E,
    testing::Values(SelectorKind::kRandom, SelectorKind::kGreedy,
                    SelectorKind::kUncertainty, SelectorKind::kQbc,
                    SelectorKind::kPartition2, SelectorKind::kPartition4,
                    SelectorKind::kBadge, SelectorKind::kCoreset,
                    SelectorKind::kBald, SelectorKind::kDiverseBatch));

TEST(Integration, RulesBlockerRecallIsStatic) {
  Experiment& exp = SharedExperiment();
  AlConfig config = SmokeAl(12);
  config.rounds = 2;
  config.blocking = BlockingStrategy::kFixedExternal;
  ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  loop.SetExternalCandidates(baselines::RulesCandidates(exp.bundle));
  const AlResult result = loop.Run();
  EXPECT_EQ(result.rounds[0].cand_recall, result.rounds[1].cand_recall);
}

TEST(Integration, PairedFixedRecallIsStatic) {
  Experiment& exp = SharedExperiment();
  AlConfig config = SmokeAl(13);
  config.rounds = 2;
  config.blocking = BlockingStrategy::kPairedFixed;
  ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  const AlResult result = loop.Run();
  EXPECT_EQ(result.rounds[0].cand_recall, result.rounds[1].cand_recall);
}

TEST(Integration, CandidateSizeOverride) {
  Experiment& exp = SharedExperiment();
  AlConfig config = SmokeAl(14);
  config.rounds = 1;
  config.cand_size_override = 50;
  ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  const AlResult result = loop.Run();
  EXPECT_LE(result.rounds[0].cand_size, 50u);
}

TEST(Integration, MultilingualPipelineRuns) {
  ExperimentConfig config = DefaultExperimentConfig(data::Scale::kSmoke);
  config.cache_dir = test_internal::PrivateDir();
  Experiment exp = PrepareExperiment("multilingual", config);
  AlConfig al = SmokeAl(15);
  al.rounds = 1;
  al.matcher.freeze_transformer = true;  // Sec. 4.5 setting
  ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), al);
  const AlResult result = loop.Run();
  EXPECT_GT(result.rounds[0].cand_size, 0u);
}

}  // namespace
}  // namespace dial::core
