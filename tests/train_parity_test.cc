// Data-parallel matcher training is bit-identical to the sequential
// algorithm. A Matcher spreads the examples of each mini-batch over its
// worker pool, one tape per example, and replays their parameter-gradient
// writes last-example-first. Two checks:
//  - pooled ≡ inline: trained from the same start on a 4-thread pool and
//    inline, the two matchers save the same bytes (shipped defaults, so
//    augmentation, random negatives and class balancing are all on);
//  - against an oracle: the whole mini-batch on one shared tape with one
//    rng stream, rebuilt here from the matcher's saved initial weights,
//    trains to exactly the weights the pooled matcher reaches.
// In the smoke label, so the thread sanitizer runs the per-example tapes on
// every push.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/optim.h"
#include "core/encodings.h"
#include "core/matcher.h"
#include "data/registry.h"
#include "nn/layers.h"
#include "private_dir.h"
#include "tplm/tplm.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace dial::core {
namespace {

constexpr uint32_t kMagic = 0x7a9e0002u;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Writes `save(writer)` under the private dir and returns the file's bytes.
template <typename SaveFn>
std::string SavedBytes(const std::string& name, SaveFn save) {
  const std::string path = test_internal::PrivateDir() + "/" + name;
  util::BinaryWriter writer(path, kMagic, /*version=*/1);
  save(writer);
  EXPECT_TRUE(writer.Finish().ok());
  return ReadFile(path);
}

class MatcherTrainParity : public testing::Test {
 protected:
  MatcherTrainParity()
      : bundle_(data::MakeDataset("dblp_acm", data::Scale::kSmoke, 2)),
        vocab_(TrainVocab(bundle_)),
        config_(Config(vocab_.size())),
        start_("p", config_, 3) {  // random init: parity must not lean on weights
    util::Rng rng(4);
    labeled_ = data::SampleSeedSet(bundle_, 6, rng).AllPairs();
    matcher_config_.epochs = 2;
    matcher_config_.early_stop_loss = 0.0;
  }

  static text::SubwordVocab TrainVocab(const data::DatasetBundle& bundle) {
    text::SubwordVocab::Options options;
    options.max_vocab = 512;
    return text::SubwordVocab::Train(bundle.CorpusLines(), options);
  }

  static tplm::TplmConfig Config(size_t vocab) {
    tplm::TplmConfig config;
    config.transformer.vocab_size = vocab;
    config.transformer.dim = 16;
    config.transformer.num_layers = 2;
    config.transformer.num_heads = 2;
    config.transformer.ffn_dim = 32;
    return config;
  }

  std::unique_ptr<Matcher> StartMatcher() {
    auto matcher = std::make_unique<Matcher>(config_, matcher_config_, /*weight_seed=*/5);
    matcher->ResetFromPretrained(start_);
    return matcher;
  }

  data::DatasetBundle bundle_;
  text::SubwordVocab vocab_;
  tplm::TplmConfig config_;
  tplm::TplmModel start_;
  std::vector<data::LabeledPair> labeled_;
  MatcherConfig matcher_config_;
};

TEST_F(MatcherTrainParity, PooledTrainingSavesInlineBytes) {
  const auto train = [&](util::ThreadPool* pool, const std::string& name) {
    PairEncodingCache cache(&bundle_, &vocab_, config_.max_pair_len);
    auto matcher = StartMatcher();
    matcher->SetThreadPool(pool);
    matcher->Train(cache, labeled_);
    return SavedBytes(name, [&](util::BinaryWriter& w) { matcher->SaveWeights(w); });
  };
  const std::string inline_bytes = train(nullptr, "inline.bin");
  ASSERT_FALSE(inline_bytes.empty());
  util::ThreadPool pool(4);
  const std::string pooled_bytes = train(&pool, "pooled.bin");
  ASSERT_EQ(pooled_bytes.size(), inline_bytes.size());
  EXPECT_TRUE(pooled_bytes == inline_bytes)
      << "weights trained on a 4-thread pool differ from inline training";
}

TEST_F(MatcherTrainParity, PooledTrainingMatchesOneSharedTapeOracle) {
  // No augmentation, random negatives or balancing: the oracle then needs
  // only the shuffle, the dropout draws and the optimizer.
  matcher_config_.augment_prob = 0.0;
  matcher_config_.random_negative_fraction = 0.0;
  matcher_config_.balance_classes = false;
  PairEncodingCache cache(&bundle_, &vocab_, config_.max_pair_len);
  auto matcher = StartMatcher();
  const std::string start_bytes =
      SavedBytes("start.bin", [&](util::BinaryWriter& w) { matcher->SaveWeights(w); });

  // The oracle: the matcher's modules rebuilt from its initial weights.
  util::Rng unused(0);
  tplm::TplmModel model("matcher_tplm", config_, /*seed=*/0);
  nn::Linear dense("matcher_head.dense", model.pair_feature_dim(),
                   config_.transformer.dim, unused);
  nn::Linear out("matcher_head.out", config_.transformer.dim, 1, unused);
  {
    util::BinaryReader reader(test_internal::PrivateDir() + "/start.bin", kMagic,
                              /*expected_version=*/1);
    ASSERT_TRUE(reader.status().ok());
    ASSERT_TRUE(model.Load(reader).ok());
    ASSERT_TRUE(dense.Load(reader).ok());
    ASSERT_TRUE(out.Load(reader).ok());
  }
  std::vector<autograd::Parameter*> head = dense.Parameters();
  for (autograd::Parameter* p : out.Parameters()) head.push_back(p);
  autograd::AdamW optimizer({{head, matcher_config_.lr_head},
                             {model.Parameters(), matcher_config_.lr_transformer}});
  const size_t batch_size = matcher_config_.batch_size;
  const size_t steps_per_epoch = (labeled_.size() + batch_size - 1) / batch_size;
  autograd::LinearSchedule schedule(
      static_cast<int64_t>(steps_per_epoch * matcher_config_.epochs));
  util::Rng rng(matcher_config_.seed);
  std::vector<size_t> order(labeled_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const float p = matcher_config_.dropout;
  for (size_t epoch = 0; epoch < matcher_config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t begin = 0; begin < order.size(); begin += batch_size) {
      autograd::Tape tape;
      nn::ForwardContext ctx{&tape, &rng, /*training=*/true};
      std::vector<autograd::Var> logits;
      std::vector<float> targets;
      for (size_t i = begin; i < std::min(order.size(), begin + batch_size); ++i) {
        const auto& lp = labeled_[order[i]];
        autograd::Var h = model.EncodePairFeatures(ctx, cache.Get(lp.pair));
        h = autograd::Dropout(h, p, rng, true);
        h = autograd::Tanh(dense.Forward(ctx, h));
        h = autograd::Dropout(h, p, rng, true);
        logits.push_back(out.Forward(ctx, h));
        targets.push_back(lp.is_duplicate ? 1.0f : 0.0f);
      }
      autograd::Var loss =
          autograd::BceWithLogits(autograd::ConcatRows(logits), targets);
      optimizer.ZeroGrad();
      tape.Backward(loss);
      optimizer.Step(schedule.Multiplier(optimizer.steps_taken()));
    }
  }
  const std::string want = SavedBytes("oracle.bin", [&](util::BinaryWriter& w) {
    model.Save(w);
    dense.Save(w);
    out.Save(w);
  });

  util::ThreadPool pool(4);
  matcher->SetThreadPool(&pool);
  matcher->Train(cache, labeled_);
  const std::string got =
      SavedBytes("pooled.bin", [&](util::BinaryWriter& w) { matcher->SaveWeights(w); });
  ASSERT_TRUE(got != start_bytes) << "training left the weights unchanged";
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want)
      << "pooled per-example training differs from one shared tape";
}

}  // namespace
}  // namespace dial::core
