// Parity and determinism contract of the tape-free batched inference engine
// (autograd::InferenceContext + the InferForward paths):
//  - per-layer and end-to-end bit-identity with the Tape forward (dropout
//    off): Linear, LayerNorm, Embedding, TransformerLayer, encoder, matcher
//    probabilities, SBERT embeddings, committee transforms and vote entropy,
//    TPLM eval loss. The end-to-end references rebuild the Tape forward
//    here in the test from the models' own weights and Forward methods, so
//    the engine is checked against an independent oracle;
//  - batched == one-at-a-time across ragged length buckets (packing never
//    changes a sequence's result);
//  - bit-identity across 0/2/8 worker threads;
//  - arena reuse: repeat calls allocate nothing new.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "autograd/inference.h"
#include "core/committee.h"
#include "core/encodings.h"
#include "core/matcher.h"
#include "core/sbert.h"
#include "core/selectors.h"
#include "data/dataset.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "private_dir.h"
#include "tplm/tplm.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace dial {
namespace {

void ExpectBitEqual(const la::Matrix& a, const la::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

tplm::TplmConfig SmallConfig(size_t vocab = 96) {
  tplm::TplmConfig config;
  config.transformer.vocab_size = vocab;
  config.transformer.dim = 16;
  config.transformer.num_layers = 2;
  config.transformer.num_heads = 2;
  config.transformer.ffn_dim = 32;
  return config;
}

/// [CLS, body..., SEP], all segment 0.
text::EncodedSequence SingleSeq(size_t body, uint64_t seed, size_t vocab) {
  util::Rng rng(seed);
  text::EncodedSequence seq;
  seq.ids.push_back(text::SpecialIds::kCls);
  for (size_t i = 0; i < body; ++i) {
    seq.ids.push_back(static_cast<int>(
        text::SpecialIds::kCount +
        rng.UniformInt(vocab - text::SpecialIds::kCount)));
  }
  seq.ids.push_back(text::SpecialIds::kSep);
  seq.segments.assign(seq.ids.size(), 0);
  return seq;
}

/// [CLS, a..., SEP | b..., SEP] with segments 0...0 1...1.
text::EncodedSequence PairSeq(size_t body0, size_t body1, uint64_t seed,
                              size_t vocab) {
  util::Rng rng(seed);
  auto piece = [&] {
    return static_cast<int>(text::SpecialIds::kCount +
                            rng.UniformInt(vocab - text::SpecialIds::kCount));
  };
  text::EncodedSequence seq;
  seq.ids.push_back(text::SpecialIds::kCls);
  for (size_t i = 0; i < body0; ++i) seq.ids.push_back(piece());
  seq.ids.push_back(text::SpecialIds::kSep);
  const size_t split = seq.ids.size();
  for (size_t i = 0; i < body1; ++i) seq.ids.push_back(piece());
  seq.ids.push_back(text::SpecialIds::kSep);
  seq.segments.assign(split, 0);
  seq.segments.resize(seq.ids.size(), 1);
  return seq;
}

la::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix m(rows, cols);
  m.RandNormal(rng, 1.0f);
  return m;
}

// ---------------------------------------------------------------- per layer

TEST(InferenceLayers, LinearMatchesTape) {
  util::Rng rng(7);
  nn::Linear linear("lin", 12, 8, rng);
  const la::Matrix x = RandomMatrix(5, 12, 21);

  autograd::Tape tape;
  util::Rng tape_rng(1);
  nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
  const la::Matrix expected = linear.Forward(tctx, tape.Constant(x)).value();

  autograd::InferenceContext ctx;
  autograd::Scratch got = linear.InferForward(ctx, x);
  ExpectBitEqual(expected, *got);
}

TEST(InferenceLayers, LayerNormMatchesTape) {
  util::Rng rng(7);
  nn::LayerNorm ln("ln", 10);
  // Non-trivial affine parameters.
  auto params = ln.Parameters();
  params[0]->value.RandNormal(rng, 0.5f);
  params[1]->value.RandNormal(rng, 0.5f);
  const la::Matrix x = RandomMatrix(6, 10, 22);

  autograd::Tape tape;
  util::Rng tape_rng(1);
  nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
  const la::Matrix expected = ln.Forward(tctx, tape.Constant(x)).value();

  la::Matrix got(6, 10);
  ln.InferForward(x, got);
  ExpectBitEqual(expected, got);
}

TEST(InferenceLayers, EmbeddingGatherMatchesTape) {
  util::Rng rng(7);
  nn::Embedding emb("emb", 20, 8, rng);
  const std::vector<int> ids = {3, 0, 19, 3, 7};

  autograd::Tape tape;
  util::Rng tape_rng(1);
  nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
  const la::Matrix expected = emb.Forward(tctx, ids).value();

  autograd::InferenceContext ctx;
  autograd::Scratch got = emb.InferGather(ctx, ids);
  ExpectBitEqual(expected, *got);
}

TEST(InferenceLayers, TransformerLayerMatchesTapePerSequence) {
  // dim 16 / heads 2 exercises the head-split wo fast path (head_dim 8, a
  // multiple of the GEMM 4-step k-grouping); dim 12 / heads 2 (head_dim 6)
  // exercises the materialized-merge fallback.
  const size_t dims[][2] = {{16, 2}, {12, 2}};
  for (const auto& shape : dims) {
    nn::TransformerConfig config;
    config.dim = shape[0];
    config.num_heads = shape[1];
    config.ffn_dim = 2 * config.dim;
    util::Rng rng(11);
    nn::TransformerLayer layer("layer", config, rng);

    // Three same-length sequences packed into one batched call vs three
    // independent tape forwards.
    const size_t len = 7;
    const size_t batch = 3;
    la::Matrix packed(batch * len, config.dim);
    std::vector<la::Matrix> expected;
    for (size_t b = 0; b < batch; ++b) {
      const la::Matrix x = RandomMatrix(len, config.dim, 100 + b);
      std::copy(x.data(), x.data() + x.size(), packed.row(b * len));
      autograd::Tape tape;
      util::Rng tape_rng(1);
      nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
      expected.push_back(layer.Forward(tctx, tape.Constant(x)).value());
    }
    autograd::InferenceContext ctx;
    layer.InferForward(ctx, batch, len, packed);
    for (size_t b = 0; b < batch; ++b) {
      for (size_t t = 0; t < len; ++t) {
        for (size_t c = 0; c < config.dim; ++c) {
          ASSERT_EQ(expected[b](t, c), packed(b * len + t, c))
              << "dim " << config.dim << " seq " << b << " token " << t
              << " col " << c;
        }
      }
    }
  }
}

TEST(InferenceLayers, TransformerLayerClsOnlyMatchesFullForward) {
  nn::TransformerConfig config;
  config.dim = 16;
  config.num_heads = 2;
  config.ffn_dim = 32;
  util::Rng rng(13);
  nn::TransformerLayer layer("layer", config, rng);
  const size_t len = 9;
  const size_t batch = 4;
  la::Matrix packed = RandomMatrix(batch * len, config.dim, 321);
  la::Matrix full = packed;
  autograd::InferenceContext ctx;
  layer.InferForward(ctx, batch, len, full);
  la::Matrix cls(batch, config.dim);
  layer.InferForwardCls(ctx, batch, len, packed, cls);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < config.dim; ++c) {
      ASSERT_EQ(full(b * len, c), cls(b, c)) << "seq " << b << " col " << c;
    }
  }
}

TEST(InferenceLayers, EncoderMatchesTapeWithEmbedOut) {
  const size_t vocab = 64;
  tplm::TplmConfig config = SmallConfig(vocab);
  tplm::TplmModel model("m", config, 5);
  const text::EncodedSequence seq = SingleSeq(9, 77, vocab);
  const size_t len = seq.ids.size();
  const size_t d = config.transformer.dim;

  autograd::Tape tape;
  util::Rng tape_rng(1);
  nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
  autograd::Var embed_var;
  const la::Matrix expected_hidden =
      model.encoder().Forward(tctx, seq.ids, seq.segments, &embed_var).value();
  const la::Matrix expected_embed = embed_var.value();

  autograd::InferenceContext ctx;
  la::Matrix hidden(len, d);
  la::Matrix embed(len, d);
  model.encoder().InferForward(ctx, seq.ids, seq.segments, 1, len, hidden,
                               &embed);
  ExpectBitEqual(expected_hidden, hidden);
  ExpectBitEqual(expected_embed, embed);
}

// --------------------------------------------------- batched TPLM entry points

std::vector<text::EncodedSequence> RaggedSingles(size_t vocab) {
  std::vector<text::EncodedSequence> seqs;
  const size_t bodies[] = {4, 9, 4, 12, 9, 4, 7};
  for (size_t i = 0; i < sizeof(bodies) / sizeof(bodies[0]); ++i) {
    seqs.push_back(SingleSeq(bodies[i], 300 + i, vocab));
  }
  return seqs;
}

std::vector<text::EncodedSequence> RaggedPairs(size_t vocab) {
  std::vector<text::EncodedSequence> seqs;
  const size_t bodies[][2] = {{3, 5}, {6, 2}, {3, 5}, {8, 8}, {1, 1}, {6, 2}};
  for (size_t i = 0; i < sizeof(bodies) / sizeof(bodies[0]); ++i) {
    seqs.push_back(PairSeq(bodies[i][0], bodies[i][1], 500 + i, vocab));
  }
  return seqs;
}

std::vector<const text::EncodedSequence*> Pointers(
    const std::vector<text::EncodedSequence>& seqs) {
  std::vector<const text::EncodedSequence*> out;
  for (const auto& s : seqs) out.push_back(&s);
  return out;
}

TEST(InferenceEngine, EncodeSingleBatchMatchesTapeAcrossRaggedBuckets) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const auto seqs = RaggedSingles(vocab);

  autograd::InferenceContext ctx;
  const la::Matrix batched = model.EncodeSingleBatch(ctx, Pointers(seqs));
  ASSERT_EQ(batched.rows(), seqs.size());
  for (size_t i = 0; i < seqs.size(); ++i) {
    autograd::Tape tape;
    util::Rng tape_rng(1);
    nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
    const la::Matrix expected = model.EncodeSingle(tctx, seqs[i]).value();
    for (size_t c = 0; c < batched.cols(); ++c) {
      ASSERT_EQ(expected(0, c), batched(i, c)) << "seq " << i << " dim " << c;
    }
  }
}

TEST(InferenceEngine, EncodeSingleBatchFirstLastMixMatchesTape) {
  const size_t vocab = 64;
  tplm::TplmConfig config = SmallConfig(vocab);
  config.single_mode_last_weight = 0.4f;
  tplm::TplmModel model("m", config, 5);
  const auto seqs = RaggedSingles(vocab);

  autograd::InferenceContext ctx;
  const la::Matrix batched = model.EncodeSingleBatch(ctx, Pointers(seqs));
  for (size_t i = 0; i < seqs.size(); ++i) {
    autograd::Tape tape;
    util::Rng tape_rng(1);
    nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
    const la::Matrix expected = model.EncodeSingle(tctx, seqs[i]).value();
    for (size_t c = 0; c < batched.cols(); ++c) {
      ASSERT_EQ(expected(0, c), batched(i, c)) << "seq " << i << " dim " << c;
    }
  }
}

TEST(InferenceEngine, PairFeaturesBatchMatchesTapeAcrossRaggedBuckets) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const auto seqs = RaggedPairs(vocab);

  autograd::InferenceContext ctx;
  const la::Matrix batched = model.EncodePairFeaturesBatch(ctx, Pointers(seqs));
  ASSERT_EQ(batched.cols(), model.pair_feature_dim());
  for (size_t i = 0; i < seqs.size(); ++i) {
    autograd::Tape tape;
    util::Rng tape_rng(1);
    nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
    const la::Matrix expected = model.EncodePairFeatures(tctx, seqs[i]).value();
    for (size_t c = 0; c < batched.cols(); ++c) {
      ASSERT_EQ(expected(0, c), batched(i, c)) << "seq " << i << " col " << c;
    }
  }
}

TEST(InferenceEngine, BatchedEqualsOneAtATime) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const auto singles = RaggedSingles(vocab);
  const auto pairs = RaggedPairs(vocab);

  autograd::InferenceContext ctx;
  const la::Matrix batched_s = model.EncodeSingleBatch(ctx, Pointers(singles));
  const la::Matrix batched_p = model.EncodePairFeaturesBatch(ctx, Pointers(pairs));
  for (size_t i = 0; i < singles.size(); ++i) {
    const la::Matrix one = model.EncodeSingleBatch(ctx, {&singles[i]});
    for (size_t c = 0; c < batched_s.cols(); ++c) {
      ASSERT_EQ(one(0, c), batched_s(i, c));
    }
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    const la::Matrix one = model.EncodePairFeaturesBatch(ctx, {&pairs[i]});
    for (size_t c = 0; c < batched_p.cols(); ++c) {
      ASSERT_EQ(one(0, c), batched_p(i, c));
    }
  }
}

TEST(InferenceEngine, BitIdenticalAcrossThreadCounts) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const auto singles = RaggedSingles(vocab);
  const auto pairs = RaggedPairs(vocab);

  autograd::InferenceContext inline_ctx;
  const la::Matrix base_s = model.EncodeSingleBatch(inline_ctx, Pointers(singles));
  const la::Matrix base_p =
      model.EncodePairFeaturesBatch(inline_ctx, Pointers(pairs));
  for (const size_t threads : {size_t{2}, size_t{8}}) {
    util::ThreadPool pool(threads);
    autograd::InferenceContext ctx(&pool);
    ExpectBitEqual(base_s, model.EncodeSingleBatch(ctx, Pointers(singles)));
    ExpectBitEqual(base_p, model.EncodePairFeaturesBatch(ctx, Pointers(pairs)));
  }
}

TEST(InferenceEngine, ArenaStopsAllocatingAfterWarmup) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const auto seqs = RaggedSingles(vocab);

  autograd::InferenceContext ctx;
  model.EncodeSingleBatch(ctx, Pointers(seqs));
  EXPECT_EQ(ctx.borrowed(), 0u);
  const size_t warm = ctx.allocated();
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 3; ++i) model.EncodeSingleBatch(ctx, Pointers(seqs));
  EXPECT_EQ(ctx.allocated(), warm) << "steady-state forwards must not allocate";
  EXPECT_EQ(ctx.borrowed(), 0u);
}

TEST(InferenceEngine, EvalMlmLossMatchesTapeForward) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const text::EncodedSequence seq = SingleSeq(14, 909, vocab);

  util::Rng mask_rng_tape(42);
  autograd::Tape tape;
  util::Rng tape_rng(1);
  nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
  autograd::Var loss =
      model.MlmLoss(tctx, seq, mask_rng_tape, /*mask_prob=*/0.4f);
  ASSERT_TRUE(loss.valid()) << "seed must mask at least one piece";

  util::Rng mask_rng_infer(42);
  autograd::InferenceContext ctx;
  const double eval =
      model.EvalMlmLoss(ctx, seq, mask_rng_infer, /*mask_prob=*/0.4f);
  EXPECT_EQ(loss.scalar(), static_cast<float>(eval));
}

// -------------------------------------------------------- end-to-end consumers

data::DatasetBundle TinyBundle() {
  data::DatasetBundle bundle;
  bundle.name = "tiny";
  bundle.r_table = data::Table({"t"});
  bundle.s_table = data::Table({"t"});
  const char* r_texts[] = {"alpha beta gamma", "delta four five",
                           "omega prime seven", "kappa lambda mu"};
  const char* s_texts[] = {"alpha beta gamma", "delta four six",
                           "omega prime seven", "nu xi omicron"};
  for (int i = 0; i < 4; ++i) {
    data::Record r;
    r.entity_id = i;
    r.values = {r_texts[i]};
    bundle.r_table.Add(r);
    data::Record s;
    s.entity_id = i;
    s.values = {s_texts[i]};
    bundle.s_table.Add(s);
  }
  bundle.dups = {{0, 0}, {2, 2}};
  for (const auto& p : bundle.dups) bundle.dup_keys.insert(p.Key());
  return bundle;
}

class EndToEndFixture : public testing::Test {
 protected:
  void SetUp() override {
    bundle_ = TinyBundle();
    text::SubwordVocab::Options vo;
    vo.max_vocab = 256;
    vo.min_word_freq = 1;
    vocab_ = std::make_unique<text::SubwordVocab>(
        text::SubwordVocab::Train(bundle_.CorpusLines(), vo));
    config_ = SmallConfig(vocab_->size());
    pretrained_ = std::make_unique<tplm::TplmModel>("p", config_, 3);
  }

  std::vector<data::PairId> AllPairs() const {
    std::vector<data::PairId> out;
    for (uint32_t r = 0; r < 4; ++r) {
      for (uint32_t s = 0; s < 4; ++s) out.push_back({r, s});
    }
    return out;
  }

  data::DatasetBundle bundle_;
  std::unique_ptr<text::SubwordVocab> vocab_;
  tplm::TplmConfig config_;
  std::unique_ptr<tplm::TplmModel> pretrained_;
};

/// Unit-normalized single-mode embeddings, one Tape per sequence — the
/// reference for every engine single-mode embedding.
la::Matrix TapeEmbedSingle(tplm::TplmModel& model,
                           const std::vector<const text::EncodedSequence*>& seqs) {
  const size_t d = model.config().transformer.dim;
  la::Matrix out(seqs.size(), d);
  util::Rng rng(1);
  for (size_t i = 0; i < seqs.size(); ++i) {
    autograd::Tape tape;
    nn::ForwardContext ctx{&tape, &rng, /*training=*/false};
    const la::Matrix emb = model.EncodeSingle(ctx, *seqs[i]).value();
    std::copy(emb.row(0), emb.row(0) + d, out.row(i));
  }
  la::NormalizeRowsInPlace(out);
  return out;
}

/// Independent Tape oracle for a Matcher: its saved weights loaded into a
/// test-side TplmModel plus the two head layers, run one pair per Tape with
/// dropout off — the training forward, not the engine under test.
class TapeMatcher {
 public:
  TapeMatcher(core::Matcher& matcher, const tplm::TplmConfig& config)
      : model_("matcher_tplm", config, /*seed=*/0),
        dense_("matcher_head.dense", model_.pair_feature_dim(),
               config.transformer.dim, rng_),
        out_("matcher_head.out", config.transformer.dim, 1, rng_) {
    const std::string path = test_internal::PrivateDir() + "/matcher.bin";
    constexpr uint32_t kMagic = 0x7a9e0001u;
    util::BinaryWriter writer(path, kMagic, /*version=*/1);
    matcher.SaveWeights(writer);
    DIAL_CHECK_OK(writer.Finish());
    util::BinaryReader reader(path, kMagic, /*expected_version=*/1);
    DIAL_CHECK_OK(reader.status());
    DIAL_CHECK_OK(model_.Load(reader));
    DIAL_CHECK_OK(dense_.Load(reader));
    DIAL_CHECK_OK(out_.Load(reader));
  }

  /// P(duplicate) for one pair; `h` receives the (1, dim) penultimate
  /// activation.
  float Prob(const text::EncodedSequence& seq, la::Matrix* h) {
    autograd::Tape tape;
    nn::ForwardContext ctx{&tape, &rng_, /*training=*/false};
    autograd::Var cls = model_.EncodePairFeatures(ctx, seq);
    autograd::Var hidden = autograd::Tanh(dense_.Forward(ctx, cls));
    autograd::Var logit = out_.Forward(ctx, hidden);
    *h = hidden.value();
    return 1.0f / (1.0f + std::exp(-logit.value()(0, 0)));
  }

  tplm::TplmModel& model() { return model_; }

 private:
  util::Rng rng_{1};
  tplm::TplmModel model_;
  nn::Linear dense_;
  nn::Linear out_;
};

TEST_F(EndToEndFixture, MatcherOutputsMatchTapePath) {
  core::PairEncodingCache cache(&bundle_, vocab_.get(), config_.max_pair_len);
  core::MatcherConfig mc;
  core::Matcher matcher(config_, mc, 5);
  matcher.ResetFromPretrained(*pretrained_);
  const auto query = AllPairs();

  const auto probs_engine = matcher.PredictProbs(cache, query);
  const la::Matrix badge_engine = matcher.BadgeEmbeddings(cache, query);
  const la::Matrix reps_engine = matcher.PairRepresentations(cache, query);

  ASSERT_EQ(probs_engine.size(), query.size());
  TapeMatcher oracle(matcher, config_);
  const size_t d = config_.transformer.dim;
  la::Matrix badge_tape(query.size(), d + 1);
  la::Matrix reps_tape(query.size(), d);
  for (size_t i = 0; i < query.size(); ++i) {
    la::Matrix h;
    const float p = oracle.Prob(cache.Get(query[i]), &h);
    ASSERT_EQ(probs_engine[i], p) << "pair " << i;
    // BADGE: d/dlogit of BCE with the most likely label, times [h ; 1].
    const float g = p - (p > 0.5f ? 1.0f : 0.0f);
    for (size_t c = 0; c < d; ++c) {
      badge_tape(i, c) = g * h(0, c);
      reps_tape(i, c) = h(0, c);
    }
    badge_tape(i, d) = g;
  }
  ExpectBitEqual(badge_tape, badge_engine);
  ExpectBitEqual(reps_tape, reps_engine);
}

TEST_F(EndToEndFixture, MatcherSingleModeEmbeddingsMatchTapePath) {
  core::RecordEncodings encodings(bundle_, *vocab_, config_.max_single_len);
  std::vector<const text::EncodedSequence*> seqs;
  for (size_t i = 0; i < encodings.r_size(); ++i) seqs.push_back(&encodings.R(i));
  for (size_t i = 0; i < encodings.s_size(); ++i) seqs.push_back(&encodings.S(i));

  core::MatcherConfig mc;
  core::Matcher matcher(config_, mc, 5);
  matcher.ResetFromPretrained(*pretrained_);
  const la::Matrix engine = matcher.EmbedSingleMode(seqs);
  TapeMatcher oracle(matcher, config_);
  ExpectBitEqual(TapeEmbedSingle(oracle.model(), seqs), engine);
}

TEST_F(EndToEndFixture, SbertEmbeddingsMatchTapePath) {
  core::RecordEncodings encodings(bundle_, *vocab_, config_.max_single_len);
  core::SbertConfig sc;
  core::SentenceBertBlocker blocker(config_, sc, 9);
  blocker.ResetFromPretrained(*pretrained_, 0x1234);
  std::vector<const text::EncodedSequence*> r_seqs, s_seqs;
  for (size_t i = 0; i < encodings.r_size(); ++i) r_seqs.push_back(&encodings.R(i));
  for (size_t i = 0; i < encodings.s_size(); ++i) s_seqs.push_back(&encodings.S(i));
  ExpectBitEqual(TapeEmbedSingle(blocker.model(), r_seqs),
                 blocker.EmbedR(encodings));
  ExpectBitEqual(TapeEmbedSingle(blocker.model(), s_seqs),
                 blocker.EmbedS(encodings));
}

TEST(InferenceEngine, CommitteeTransformMatchesTapePath) {
  for (const bool normalize : {true, false}) {
    core::BlockerConfig config;
    config.committee_size = 3;
    config.normalize_output = normalize;
    core::BlockerCommittee committee(16, config);
    const la::Matrix embeddings = RandomMatrix(10, 16, 31);
    for (size_t k = 0; k < committee.size(); ++k) {
      autograd::Tape tape;
      util::Rng tape_rng(1);
      nn::ForwardContext ctx{&tape, &tape_rng, /*training=*/false};
      const la::Matrix tape_out =
          committee.member(k).Forward(ctx, tape.Constant(embeddings)).value();
      ExpectBitEqual(tape_out, committee.Encode(k, embeddings));
    }
  }
}

TEST_F(EndToEndFixture, CommitteeVoteEntropyMatchesTapePath) {
  // QBC-style vote entropy over a 3-matcher committee: the selector-visible
  // quantity must be identical on the engine and on the Tape oracle.
  core::PairEncodingCache cache(&bundle_, vocab_.get(), config_.max_pair_len);
  const auto query = AllPairs();
  std::vector<std::vector<float>> engine_probs;
  std::vector<std::vector<float>> tape_probs;
  for (uint64_t m = 0; m < 3; ++m) {
    core::MatcherConfig mc;
    mc.seed = 1000 + m;
    core::Matcher matcher(config_, mc, 50 + m);
    matcher.ResetFromPretrained(*pretrained_);
    engine_probs.push_back(matcher.PredictProbs(cache, query));
    TapeMatcher oracle(matcher, config_);
    std::vector<float> probs;
    la::Matrix h;
    for (const auto& pair : query) probs.push_back(oracle.Prob(cache.Get(pair), &h));
    tape_probs.push_back(std::move(probs));
  }
  for (size_t i = 0; i < query.size(); ++i) {
    double mean_engine = 0.0;
    double mean_tape = 0.0;
    for (size_t m = 0; m < 3; ++m) {
      mean_engine += engine_probs[m][i];
      mean_tape += tape_probs[m][i];
    }
    ASSERT_EQ(core::BinaryEntropy(mean_engine / 3.0),
              core::BinaryEntropy(mean_tape / 3.0))
        << "pair " << i;
  }
}

// ---------------------------------------------------------------------------
// Concurrent inference: the serving contract. N threads, each with its own
// context, forward through one shared const model at once; every thread must
// see the exact single-threaded bits. Runs under TSan via the smoke label.
// ---------------------------------------------------------------------------

TEST(InferenceEngine, ConcurrentContextsBitIdentical) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const auto singles = RaggedSingles(vocab);
  const auto pairs = RaggedPairs(vocab);

  autograd::InferenceContext ref_ctx;
  const la::Matrix base_s = model.EncodeSingleBatch(ref_ctx, Pointers(singles));
  const la::Matrix base_p = model.EncodePairFeaturesBatch(ref_ctx, Pointers(pairs));

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      autograd::InferenceContext ctx;
      for (int round = 0; round < 3; ++round) {
        const la::Matrix s = model.EncodeSingleBatch(ctx, Pointers(singles));
        const la::Matrix p = model.EncodePairFeaturesBatch(ctx, Pointers(pairs));
        for (size_t r = 0; r < s.rows(); ++r) {
          for (size_t c = 0; c < s.cols(); ++c) {
            if (s(r, c) != base_s(r, c)) ++mismatches;
          }
        }
        for (size_t r = 0; r < p.rows(); ++r) {
          for (size_t c = 0; c < p.cols(); ++c) {
            if (p(r, c) != base_p(r, c)) ++mismatches;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(InferenceEngine, SharedContextConcurrentAcquireRelease) {
  // Acquire/Release are documented thread-safe; hammer one shared arena
  // from several threads (mixed shapes so free-list buckets contend) and
  // check the bookkeeping balances.
  autograd::InferenceContext ctx;
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ctx, t] {
      for (int i = 0; i < kRounds; ++i) {
        const size_t rows = 1 + static_cast<size_t>((t + i) % 5);
        const size_t cols = 8 + static_cast<size_t>(i % 3) * 8;
        la::Matrix* a = ctx.Acquire(rows, cols);
        la::Matrix* b = ctx.Acquire(cols, rows);
        (*a)(0, 0) = static_cast<float>(t);  // touch the storage
        (*b)(0, 0) = static_cast<float>(i);
        ctx.Release(b);
        ctx.Release(a);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ctx.borrowed(), 0u);
  EXPECT_GT(ctx.allocated(), 0u);
  ctx.Clear();  // all borrows returned: must not fire the balance check
}

}  // namespace
}  // namespace dial
