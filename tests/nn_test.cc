#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/optim.h"
#include "autograd/ops.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "private_dir.h"
#include "util/serialize.h"

namespace dial::nn {
namespace {

using autograd::Tape;
using autograd::Var;

TEST(Linear, ForwardShapeAndValue) {
  util::Rng rng(1);
  Linear linear("lin", 3, 2, rng);
  // Overwrite weights with a known matrix.
  auto params = linear.Parameters();
  params[0]->value = la::Matrix({{1, 0}, {0, 1}, {1, 1}});
  params[1]->value = la::Matrix({{10, 20}});
  Tape tape;
  util::Rng fwd_rng(2);
  ForwardContext ctx{&tape, &fwd_rng, false};
  Var x = tape.Constant(la::Matrix({{1, 2, 3}}));
  Var y = linear.Forward(ctx, x);
  EXPECT_FLOAT_EQ(y.value()(0, 0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y.value()(0, 1), 2 + 3 + 20);
}

TEST(Linear, GradientsFlowToParameters) {
  util::Rng rng(3);
  Linear linear("lin", 4, 3, rng);
  auto params = linear.Parameters();
  for (auto* p : params) p->ZeroGrad();
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  Var x = tape.Constant(la::Matrix(2, 4, 0.5f));
  Var loss = autograd::MeanAll(autograd::Square(linear.Forward(ctx, x)));
  tape.Backward(loss);
  EXPECT_GT(la::FrobeniusNorm(params[0]->grad), 0.0f);
  EXPECT_GT(la::FrobeniusNorm(params[1]->grad), 0.0f);
}

TEST(LayerNorm, NormalizesThenAffines) {
  util::Rng rng(4);
  LayerNorm norm("ln", 4);
  auto params = norm.Parameters();
  params[0]->value.Fill(2.0f);  // gain
  params[1]->value.Fill(1.0f);  // bias
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  Var x = tape.Constant(la::Matrix({{1, 2, 3, 4}}));
  Var y = norm.Forward(ctx, x);
  float mean = 0;
  for (size_t c = 0; c < 4; ++c) mean += y.value()(0, c);
  EXPECT_NEAR(mean / 4, 1.0f, 1e-4f);  // bias shifts the normalized mean
}

TEST(Embedding, GathersRows) {
  util::Rng rng(5);
  Embedding emb("emb", 10, 3, rng);
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  Var y = emb.Forward(ctx, {7, 7, 2});
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(y.value()(0, c), y.value()(1, c));
  }
}

TEST(Module, ParameterCollectionIsStable) {
  util::Rng rng(6);
  PairClassifierHead head("head", 8, 0.1f, rng);
  const auto p1 = head.Parameters();
  const auto p2 = head.Parameters();
  ASSERT_EQ(p1.size(), p2.size());
  EXPECT_EQ(p1.size(), 4u);  // dense W/b + out W/b
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);
}

TEST(Module, NumWeightsCountsEverything) {
  util::Rng rng(7);
  Linear linear("lin", 3, 2, rng);
  EXPECT_EQ(linear.NumWeights(), 3u * 2u + 2u);
}

TEST(Module, SaveLoadRoundTrip) {
  const std::string path = test_internal::PrivateDir() + "/dial_nn_roundtrip.bin";
  util::Rng rng(8);
  TransformerConfig config;
  config.vocab_size = 50;
  config.dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.max_positions = 16;
  TransformerEncoder original("enc", config, rng);
  {
    util::BinaryWriter writer(path, 0x7777u, 1);
    original.Save(writer);
    ASSERT_TRUE(writer.Finish().ok());
  }
  util::Rng rng2(999);  // different init
  TransformerEncoder restored("enc", config, rng2);
  util::BinaryReader reader(path, 0x7777u, 1);
  ASSERT_TRUE(restored.Load(reader).ok());
  const auto a = original.Parameters();
  const auto b = restored.Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i]->value.storage(), b[i]->value.storage()) << a[i]->name;
  }
}

TEST(Module, LoadRejectsShapeMismatch) {
  const std::string path = test_internal::PrivateDir() + "/dial_nn_mismatch.bin";
  util::Rng rng(9);
  Linear small("lin", 2, 2, rng);
  {
    util::BinaryWriter writer(path, 0x7777u, 1);
    small.Save(writer);
    ASSERT_TRUE(writer.Finish().ok());
  }
  Linear big("lin", 3, 3, rng);
  util::BinaryReader reader(path, 0x7777u, 1);
  EXPECT_FALSE(big.Load(reader).ok());
}

TEST(Module, CopyWeightsFrom) {
  util::Rng rng(10);
  Linear a("lin", 3, 3, rng);
  Linear b("lin", 3, 3, rng);
  b.CopyWeightsFrom(a);
  const auto pa = a.Parameters();
  const auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->value.storage(), pb[i]->value.storage());
  }
}

TEST(SentencePairHead, UsesAbsoluteDifference) {
  util::Rng rng(11);
  SentencePairHead head("sp", 4, rng);
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  Var u = tape.Constant(la::Matrix(1, 4, 1.0f));
  Var v1 = tape.Constant(la::Matrix(1, 4, 1.0f));
  Var logit_same = head.Forward(ctx, u, v1);
  EXPECT_EQ(logit_same.rows(), 1u);
  EXPECT_EQ(logit_same.cols(), 1u);
}

TEST(Transformer, ForwardShape) {
  util::Rng rng(12);
  TransformerConfig config;
  config.vocab_size = 30;
  config.dim = 8;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.max_positions = 10;
  TransformerEncoder encoder("enc", config, rng);
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  Var out = encoder.Forward(ctx, {1, 2, 3, 4}, {0, 0, 1, 1});
  EXPECT_EQ(out.rows(), 4u);
  EXPECT_EQ(out.cols(), 8u);
}

TEST(Transformer, DeterministicInference) {
  util::Rng rng(13);
  TransformerConfig config;
  config.vocab_size = 30;
  config.dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.max_positions = 10;
  TransformerEncoder encoder("enc", config, rng);
  auto run = [&]() {
    Tape tape;
    util::Rng fwd(1);
    ForwardContext ctx{&tape, &fwd, false};
    return encoder.Forward(ctx, {5, 6, 7}, {0, 0, 0}).value();
  };
  const la::Matrix a = run();
  const la::Matrix b = run();
  EXPECT_EQ(a.storage(), b.storage());
}

TEST(Transformer, EmbedOutDiffersFromFinal) {
  util::Rng rng(14);
  TransformerConfig config;
  config.vocab_size = 30;
  config.dim = 8;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.max_positions = 10;
  TransformerEncoder encoder("enc", config, rng);
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  Var first;
  Var last = encoder.Forward(ctx, {5, 6, 7}, {0, 0, 0}, &first);
  ASSERT_TRUE(first.valid());
  EXPECT_NE(first.value().storage(), last.value().storage());
}

TEST(TransformerDeathTest, SequenceTooLongAborts) {
  util::Rng rng(15);
  TransformerConfig config;
  config.vocab_size = 30;
  config.dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.max_positions = 2;
  TransformerEncoder encoder("enc", config, rng);
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  EXPECT_DEATH(encoder.Forward(ctx, {1, 2, 3}, {0, 0, 0}), "Check failed");
}

TEST(Transformer, CanOverfitTinyClassificationTask) {
  // End-to-end trainability: separate two token patterns with a linear probe
  // on the CLS position.
  util::Rng rng(16);
  TransformerConfig config;
  config.vocab_size = 20;
  config.dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.max_positions = 6;
  config.dropout = 0.0f;
  TransformerEncoder encoder("enc", config, rng);
  Linear probe("probe", 8, 1, rng);

  std::vector<std::pair<std::vector<int>, float>> examples = {
      {{2, 10, 11}, 1.0f}, {{2, 12, 13}, 0.0f}, {{2, 10, 13}, 1.0f},
      {{2, 12, 11}, 0.0f},
  };
  std::vector<autograd::Parameter*> params = encoder.Parameters();
  for (auto* p : probe.Parameters()) params.push_back(p);
  autograd::AdamW optimizer({{params, 5e-3f}});
  float loss_value = 1e9f;
  for (int step = 0; step < 150; ++step) {
    Tape tape;
    ForwardContext ctx{&tape, &rng, true};
    std::vector<Var> logits;
    std::vector<float> targets;
    for (const auto& [ids, label] : examples) {
      Var h = encoder.Forward(ctx, ids, std::vector<int>(ids.size(), 0));
      logits.push_back(probe.Forward(ctx, autograd::SliceRows(h, 0, 1)));
      targets.push_back(label);
    }
    Var loss = autograd::BceWithLogits(autograd::ConcatRows(logits), targets);
    optimizer.ZeroGrad();
    tape.Backward(loss);
    optimizer.Step();
    loss_value = loss.scalar();
  }
  EXPECT_LT(loss_value, 0.1f);
}

TEST(TransformerConfig, FingerprintSensitivity) {
  TransformerConfig a;
  TransformerConfig b = a;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.dim *= 2;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  TransformerConfig c = a;
  c.num_layers += 1;
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
}

}  // namespace
}  // namespace dial::nn
