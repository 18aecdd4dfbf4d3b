#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "autograd/optim.h"
#include "autograd/tape.h"
#include "nn/layers.h"
#include "tplm/tplm.h"
#include "util/thread_pool.h"

namespace dial::autograd {
namespace {

using GraphFn = std::function<Var(Tape&, const std::vector<Var>&)>;

/// Builds leaves for `params`, runs `graph` to a scalar loss, backprops once
/// for analytic gradients, then numerically verifies them.
void RunGradCheck(std::vector<Parameter*> params, const GraphFn& graph,
                  float tolerance = 2e-2f) {
  auto forward = [&]() {
    Tape tape;
    std::vector<Var> leaves;
    for (Parameter* p : params) leaves.push_back(tape.Leaf(p));
    return graph(tape, leaves).scalar();
  };
  for (Parameter* p : params) p->ZeroGrad();
  {
    Tape tape;
    std::vector<Var> leaves;
    for (Parameter* p : params) leaves.push_back(tape.Leaf(p));
    Var loss = graph(tape, leaves);
    tape.Backward(loss);
  }
  const GradCheckResult result = CheckGradients(params, forward, 1e-2f, tolerance);
  EXPECT_TRUE(result.ok) << "max rel error " << result.max_rel_error << ", max abs "
                         << result.max_abs_error;
}

Parameter MakeParam(const std::string& name, size_t rows, size_t cols,
                    uint64_t seed, float scale = 1.0f) {
  Parameter p(name, rows, cols);
  util::Rng rng(seed);
  p.value.RandNormal(rng, scale);
  return p;
}

// ------------------------------------------------------------------- basics

TEST(Tape, ConstantHasNoGrad) {
  Tape tape;
  Var c = tape.Constant(la::Matrix({{1, 2}}));
  EXPECT_FALSE(c.requires_grad());
}

TEST(Tape, LeafAccumulatesIntoParameter) {
  Parameter p("p", 1, 1);
  p.value(0, 0) = 3.0f;
  p.ZeroGrad();
  Tape tape;
  Var leaf = tape.Leaf(&p);
  Var loss = Square(leaf);
  tape.Backward(loss);
  EXPECT_FLOAT_EQ(p.grad(0, 0), 6.0f);  // d/dx x^2 = 2x
}

TEST(TapeDeathTest, BackwardTwiceAborts) {
  Parameter p("p", 1, 1);
  p.ZeroGrad();
  Tape tape;
  Var loss = Square(tape.Leaf(&p));
  tape.Backward(loss);
  EXPECT_DEATH(tape.Backward(loss), "once per tape");
}

TEST(TapeDeathTest, BackwardNeedsScalar) {
  Parameter p = MakeParam("p", 2, 2, 1);
  p.ZeroGrad();
  Tape tape;
  Var v = Tanh(tape.Leaf(&p));
  EXPECT_DEATH(tape.Backward(v), "Check failed");
}

TEST(Ops, ForwardValuesElementwise) {
  Tape tape;
  Var x = tape.Constant(la::Matrix({{-1.0f, 0.0f, 2.0f}}));
  EXPECT_FLOAT_EQ(Relu(x).value()(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(x).value()(0, 2), 2.0f);
  EXPECT_NEAR(Sigmoid(x).value()(0, 1), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(x).value()(0, 2), std::tanh(2.0f), 1e-6f);
  EXPECT_FLOAT_EQ(Abs(x).value()(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(Square(x).value()(0, 2), 4.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Tape tape;
  Var x = tape.Constant(la::Matrix({{1, 2, 3}, {-5, 0, 5}}));
  Var y = SoftmaxRows(x);
  for (size_t r = 0; r < 2; ++r) {
    float sum = 0;
    for (size_t c = 0; c < 3; ++c) sum += y.value()(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, LogSumExpStableForLargeInputs) {
  Tape tape;
  Var x = tape.Constant(la::Matrix({{1000.0f, 1000.0f}}));
  EXPECT_NEAR(LogSumExpRows(x).value()(0, 0), 1000.0f + std::log(2.0f), 1e-3f);
}

TEST(Ops, MeanRowsValue) {
  Tape tape;
  Var x = tape.Constant(la::Matrix({{1, 2}, {3, 4}}));
  Var y = MeanRows(x);
  EXPECT_FLOAT_EQ(y.value()(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.value()(0, 1), 3.0f);
}

TEST(Ops, LayerNormRowsNormalizes) {
  Tape tape;
  Var x = tape.Constant(la::Matrix({{1, 2, 3, 4}}));
  Var y = LayerNormRows(x);
  float mean = 0, var = 0;
  for (size_t c = 0; c < 4; ++c) mean += y.value()(0, c);
  mean /= 4;
  for (size_t c = 0; c < 4; ++c) {
    var += (y.value()(0, c) - mean) * (y.value()(0, c) - mean);
  }
  EXPECT_NEAR(mean, 0.0f, 1e-5f);
  EXPECT_NEAR(var / 4, 1.0f, 1e-3f);
}

TEST(Ops, DropoutInferencePassThrough) {
  util::Rng rng(3);
  Tape tape;
  Var x = tape.Constant(la::Matrix({{1, 2, 3}}));
  Var y = Dropout(x, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(y.node(), x.node());  // identity — same node
}

TEST(Ops, DropoutTrainingMasksAndScales) {
  util::Rng rng(3);
  Tape tape;
  la::Matrix ones(1, 1000, 1.0f);
  Var x = tape.Constant(ones);
  Var y = Dropout(x, 0.5f, rng, /*training=*/true);
  size_t zeros = 0;
  double sum = 0;
  for (size_t c = 0; c < 1000; ++c) {
    const float v = y.value()(0, c);
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6f);
    zeros += v == 0.0f;
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.5, 0.07);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);  // inverted dropout keeps expectation
}

TEST(Ops, PairwiseSquaredDistanceValues) {
  Tape tape;
  Var a = tape.Constant(la::Matrix({{0, 0}, {1, 1}}));
  Var b = tape.Constant(la::Matrix({{0, 0}, {3, 4}}));
  Var d = PairwiseSquaredDistance(a, b);
  EXPECT_FLOAT_EQ(d.value()(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(d.value()(0, 1), 25.0f);
  EXPECT_FLOAT_EQ(d.value()(1, 1), 13.0f);
}

TEST(Ops, BceWithLogitsMatchesManual) {
  Tape tape;
  Var logits = tape.Constant(la::Matrix({{0.0f}, {2.0f}}));
  Var loss = BceWithLogits(logits, {1.0f, 0.0f});
  const float expected =
      0.5f * (std::log(2.0f) + std::log(1.0f + std::exp(2.0f)));
  EXPECT_NEAR(loss.scalar(), expected, 1e-5f);
}

TEST(Ops, SoftmaxCrossEntropyIgnoresNegativeTargets) {
  Tape tape;
  Var logits = tape.Constant(la::Matrix({{10, 0, 0}, {5, 5, 5}}));
  // Second row ignored; first row nearly perfectly classified.
  Var loss = SoftmaxCrossEntropy(logits, {0, -1});
  EXPECT_LT(loss.scalar(), 1e-3f);
}

// ----------------------------------------------------------- gradient checks

TEST(GradCheck, AddSubMul) {
  Parameter a = MakeParam("a", 2, 3, 10);
  Parameter b = MakeParam("b", 2, 3, 11);
  RunGradCheck({&a, &b}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Mul(Add(v[0], v[1]), Sub(v[0], v[1])));
  });
}

TEST(GradCheck, AddN) {
  Parameter a = MakeParam("a", 2, 2, 12);
  Parameter b = MakeParam("b", 2, 2, 13);
  Parameter c = MakeParam("c", 2, 2, 14);
  RunGradCheck({&a, &b, &c}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(AddN({v[0], v[1], v[2]})));
  });
}

TEST(GradCheck, ScalarOps) {
  Parameter a = MakeParam("a", 3, 2, 15);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(AddScalar(ScalarMul(v[0], -2.5f), 1.0f));
  });
}

TEST(GradCheck, AddBroadcastScalar) {
  Parameter a = MakeParam("a", 2, 2, 16);
  Parameter s = MakeParam("s", 1, 1, 17);
  RunGradCheck({&a, &s}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(AddBroadcastScalar(v[0], v[1])));
  });
}

TEST(GradCheck, Activations) {
  Parameter a = MakeParam("a", 2, 4, 18);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Add(Tanh(v[0]), Sigmoid(v[0])));
  });
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Gelu(v[0]));
  });
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Exp(ScalarMul(v[0], 0.3f)));
  });
}

TEST(GradCheck, LogOfPositive) {
  Parameter a = MakeParam("a", 2, 3, 19, 0.3f);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Log(AddScalar(Square(v[0]), 1.0f)));
  });
}

TEST(GradCheck, MatMulChain) {
  Parameter a = MakeParam("a", 3, 4, 20, 0.5f);
  Parameter b = MakeParam("b", 4, 2, 21, 0.5f);
  RunGradCheck({&a, &b}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(MatMul(v[0], v[1])));
  });
}

TEST(GradCheck, MatMulTransposeB) {
  Parameter a = MakeParam("a", 3, 4, 22, 0.5f);
  Parameter b = MakeParam("b", 5, 4, 23, 0.5f);
  RunGradCheck({&a, &b}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(MatMulTransposeB(v[0], v[1])));
  });
}

TEST(GradCheck, TransposeOp) {
  Parameter a = MakeParam("a", 2, 5, 24);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(Transpose(v[0])));
  });
}

TEST(GradCheck, Broadcasts) {
  Parameter x = MakeParam("x", 4, 3, 25);
  Parameter b = MakeParam("b", 1, 3, 26);
  RunGradCheck({&x, &b}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(AddRowBroadcast(v[0], v[1])));
  });
  RunGradCheck({&x, &b}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(MulRowBroadcast(v[0], v[1])));
  });
}

TEST(GradCheck, TileRows) {
  Parameter a = MakeParam("a", 1, 4, 27);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(TileRows(v[0], 5)));
  });
}

TEST(GradCheck, SlicesAndConcat) {
  Parameter a = MakeParam("a", 3, 6, 28);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    Var left = SliceCols(v[0], 0, 3);
    Var right = SliceCols(v[0], 3, 6);
    return MeanAll(Square(ConcatCols({right, left})));
  });
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    Var top = SliceRows(v[0], 0, 1);
    Var bottom = SliceRows(v[0], 1, 3);
    return MeanAll(Square(ConcatRows({bottom, top})));
  });
}

TEST(GradCheck, Reductions) {
  Parameter a = MakeParam("a", 3, 4, 29);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(RowSum(v[0])));
  });
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return SumAll(Square(MeanRows(v[0])));
  });
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(LogSumExpRows(v[0]));
  });
}

TEST(GradCheck, SoftmaxRowsGradient) {
  Parameter a = MakeParam("a", 2, 5, 30);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(SoftmaxRows(v[0])));
  });
}

TEST(GradCheck, LayerNormGradient) {
  Parameter a = MakeParam("a", 3, 6, 31);
  RunGradCheck(
      {&a},
      [](Tape&, const std::vector<Var>& v) {
        return MeanAll(Square(LayerNormRows(v[0])));
      },
      5e-2f);
}

TEST(GradCheck, EmbeddingGather) {
  Parameter table = MakeParam("table", 6, 4, 32);
  RunGradCheck({&table}, [&table](Tape& t, const std::vector<Var>&) {
    Var gathered = EmbeddingGather(t, &table, {0, 2, 2, 5});
    return MeanAll(Square(gathered));
  });
}

TEST(GradCheck, Distances) {
  Parameter a = MakeParam("a", 3, 4, 33, 0.5f);
  Parameter b = MakeParam("b", 3, 4, 34, 0.5f);
  RunGradCheck({&a, &b}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(RowwiseSquaredDistance(v[0], v[1]));
  });
  Parameter c = MakeParam("c", 5, 4, 35, 0.5f);
  RunGradCheck({&a, &c}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(PairwiseSquaredDistance(v[0], v[1]));
  });
}

TEST(GradCheck, BceWithLogits) {
  Parameter logits = MakeParam("z", 6, 1, 36);
  RunGradCheck({&logits}, [](Tape&, const std::vector<Var>& v) {
    return BceWithLogits(v[0], {1, 0, 1, 1, 0, 0});
  });
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Parameter logits = MakeParam("z", 4, 5, 37);
  RunGradCheck({&logits}, [](Tape&, const std::vector<Var>& v) {
    return SoftmaxCrossEntropy(v[0], {0, 3, -1, 4});
  });
}

TEST(GradCheck, TwoLayerMlpComposite) {
  Parameter w1 = MakeParam("w1", 3, 4, 38, 0.5f);
  Parameter b1 = MakeParam("b1", 1, 4, 39, 0.1f);
  Parameter w2 = MakeParam("w2", 4, 1, 40, 0.5f);
  Parameter x = MakeParam("x", 5, 3, 41);
  RunGradCheck({&w1, &b1, &w2, &x}, [](Tape&, const std::vector<Var>& v) {
    Var h = Gelu(AddRowBroadcast(MatMul(v[3], v[0]), v[1]));
    Var logits = MatMul(h, v[2]);
    return BceWithLogits(logits, {1, 0, 1, 0, 1});
  });
}

TEST(GradCheck, ContrastiveLossComposite) {
  // The exact graph shape used by the blocker's Eq. 8 implementation.
  Parameter pr = MakeParam("pr", 3, 4, 42, 0.5f);
  Parameter ps = MakeParam("ps", 3, 4, 43, 0.5f);
  Parameter nr = MakeParam("nr", 5, 4, 44, 0.5f);
  Parameter ns = MakeParam("ns", 5, 4, 45, 0.5f);
  RunGradCheck({&pr, &ps, &nr, &ns}, [](Tape&, const std::vector<Var>& v) {
    Var d_pos = RowwiseSquaredDistance(v[0], v[1]);
    Var d_sr = PairwiseSquaredDistance(v[1], v[2]);
    Var d_rs = PairwiseSquaredDistance(v[0], v[3]);
    Var d_rr = RowwiseSquaredDistance(v[2], v[3]);
    Var shared = TileRows(Transpose(ScalarMul(d_rr, -1.0f)), 3);
    Var terms = ConcatCols({ScalarMul(d_pos, -1.0f), ScalarMul(d_sr, -1.0f),
                            ScalarMul(d_rs, -1.0f), shared});
    return MeanAll(Add(LogSumExpRows(terms), d_pos));
  });
}

// --------------------------------------------------------------- optimizers

TEST(Optim, SgdReducesQuadratic) {
  Parameter p("p", 1, 3);
  p.value = la::Matrix({{1.0f, -2.0f, 3.0f}});
  Sgd sgd({&p}, 0.1f);
  for (int step = 0; step < 100; ++step) {
    sgd.ZeroGrad();
    Tape tape;
    Var loss = MeanAll(Square(tape.Leaf(&p)));
    tape.Backward(loss);
    sgd.Step();
  }
  EXPECT_LT(la::FrobeniusNorm(p.value), 1e-2f);
}

TEST(Optim, AdamWReducesQuadratic) {
  Parameter p("p", 2, 2);
  p.value = la::Matrix({{1.0f, -1.0f}, {0.5f, 2.0f}});
  AdamW::Options options;
  options.weight_decay = 0.0f;
  AdamW adam({{{&p}, 0.05f}}, options);
  float first_loss = 0, last_loss = 0;
  for (int step = 0; step < 200; ++step) {
    adam.ZeroGrad();
    Tape tape;
    Var loss = MeanAll(Square(tape.Leaf(&p)));
    tape.Backward(loss);
    if (step == 0) first_loss = loss.scalar();
    last_loss = loss.scalar();
    adam.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.01f);
}

TEST(Optim, WeightDecayShrinksWeights) {
  Parameter p("p", 1, 1);
  p.value(0, 0) = 1.0f;
  AdamW::Options options;
  options.weight_decay = 0.1f;
  AdamW adam({{{&p}, 0.01f}}, options);
  for (int step = 0; step < 10; ++step) {
    adam.ZeroGrad();  // zero gradient: only decay acts
    adam.Step();
  }
  EXPECT_LT(p.value(0, 0), 1.0f);
  EXPECT_GT(p.value(0, 0), 0.9f);
}

TEST(Optim, GradientClippingBoundsUpdateDirection) {
  Parameter p("p", 1, 1);
  p.value(0, 0) = 0.0f;
  AdamW::Options options;
  options.clip_norm = 1.0f;
  options.weight_decay = 0.0f;
  AdamW clipped({{{&p}, 1e-3f}}, options);
  p.ZeroGrad();
  p.grad(0, 0) = 1e6f;  // exploding gradient
  clipped.Step();
  // Clipping keeps the Adam moment estimates finite and the step bounded.
  EXPECT_TRUE(std::isfinite(p.value(0, 0)));
  EXPECT_LT(std::fabs(p.value(0, 0)), 0.1f);
}

TEST(Optim, LinearScheduleEndpoints) {
  LinearSchedule schedule(10);
  EXPECT_FLOAT_EQ(schedule.Multiplier(0), 1.0f);
  EXPECT_NEAR(schedule.Multiplier(5), 0.5f, 1e-6f);
  EXPECT_FLOAT_EQ(schedule.Multiplier(10), 0.0f);
  EXPECT_FLOAT_EQ(schedule.Multiplier(15), 0.0f);
}

TEST(Optim, ParamGroupsUseOwnRates) {
  Parameter fast("fast", 1, 1), slow("slow", 1, 1);
  fast.value(0, 0) = slow.value(0, 0) = 1.0f;
  AdamW::Options options;
  options.weight_decay = 0.0f;
  AdamW adam({{{&fast}, 0.1f}, {{&slow}, 0.001f}}, options);
  adam.ZeroGrad();
  {
    Tape tape;
    Var loss = Add(MeanAll(Square(tape.Leaf(&fast))), MeanAll(Square(tape.Leaf(&slow))));
    tape.Backward(loss);
  }
  adam.Step();
  EXPECT_LT(fast.value(0, 0), slow.value(0, 0));
}

// ------------------------------------------------- per-example tapes

/// [CLS, a..., SEP | b..., SEP] with segments 0...0 1...1; bodies share
/// pieces, so the token table is hit on the same rows several times.
text::EncodedSequence PairTokens(size_t body0, size_t body1, uint64_t seed,
                                 size_t vocab) {
  util::Rng rng(seed);
  const auto piece = [&] {
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

std::vector<la::Matrix> Grads(const std::vector<Parameter*>& params) {
  std::vector<la::Matrix> grads;
  for (const Parameter* p : params) grads.push_back(p->grad);
  return grads;
}

// The matcher's training step on one shared tape vs one deferred tape per
// example (forward and sweep seeded with the row's BCE gradient, in a pool
// task that then drops the tape; writes applied last example first): every
// Parameter::grad must match byte for byte. The token table is written three
// times per example (the encoder gather and both alignment gathers of
// EncodePairFeatures); every Linear/LayerNorm leaf once per use.
TEST(PerExampleTapes, DeferredWritesReplayToSharedTapeGradients) {
  const size_t vocab = 40;
  tplm::TplmConfig config;
  config.transformer.vocab_size = vocab;
  config.transformer.dim = 8;
  config.transformer.num_layers = 2;
  config.transformer.num_heads = 2;
  config.transformer.ffn_dim = 16;
  tplm::TplmModel model("m", config, 11);
  util::Rng init(12);
  nn::Linear head("head", model.pair_feature_dim(), 1, init);
  std::vector<Parameter*> params = model.Parameters();
  for (Parameter* p : head.Parameters()) params.push_back(p);

  // training=false: no dropout, so the rng is never drawn from.
  const auto logit = [&](Tape& tape, const text::EncodedSequence& seq) {
    util::Rng unused(0);
    nn::ForwardContext ctx{&tape, &unused, /*training=*/false};
    return head.Forward(ctx, model.EncodePairFeatures(ctx, seq));
  };

  for (const size_t m : {1, 3, 8}) {
    std::vector<text::EncodedSequence> seqs;
    std::vector<float> targets;
    for (size_t i = 0; i < m; ++i) {
      seqs.push_back(PairTokens(2 + i % 4, 3 + i % 3, 100 + i, vocab));
      targets.push_back(i % 2 == 0 ? 1.0f : 0.0f);
    }

    for (Parameter* p : params) p->ZeroGrad();
    {
      Tape tape;
      std::vector<Var> logits;
      for (const auto& seq : seqs) logits.push_back(logit(tape, seq));
      tape.Backward(BceWithLogits(ConcatRows(logits), targets));
    }
    const std::vector<la::Matrix> want = Grads(params);

    for (const size_t threads : {0, 2, 4}) {
      SCOPED_TRACE(testing::Message() << "batch " << m << ", threads " << threads);
      for (Parameter* p : params) p->ZeroGrad();
      util::ThreadPool pool(threads);
      std::vector<std::vector<ParamGradWrite>> writes(m);
      util::ParallelFor(&pool, m, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          Tape tape(ParamGradMode::kDeferred);
          const Var root = logit(tape, seqs[i]);
          const float seed = BceWithLogitsRowGrad(1.0f, m, root.scalar(), targets[i]);
          tape.Backward(root, la::Matrix(1, 1, seed));
          writes[i] = tape.TakeParamGradWrites();
        }
      });
      // Nothing reaches a parameter before the writes are applied.
      for (const Parameter* p : params) {
        for (size_t k = 0; k < p->grad.size(); ++k) {
          ASSERT_EQ(p->grad.data()[k], 0.0f) << p->name;
        }
      }
      for (size_t i = m; i-- > 0;) {
        for (const ParamGradWrite& w : writes[i]) w.Apply();
      }

      const std::vector<la::Matrix> got = Grads(params);
      for (size_t j = 0; j < params.size(); ++j) {
        ASSERT_EQ(got[j].size(), want[j].size());
        EXPECT_EQ(std::memcmp(got[j].data(), want[j].data(),
                              want[j].size() * sizeof(float)),
                  0)
            << params[j]->name;
      }
    }
  }
}

TEST(Tape, SeededBackwardScalesLikeAChainedConsumer) {
  Parameter p = MakeParam("p", 2, 3, 21);
  p.ZeroGrad();
  {
    Tape tape;
    tape.Backward(SumAll(ScalarMul(Tanh(tape.Leaf(&p)), 3.0f)));
  }
  const la::Matrix want = p.grad;
  p.ZeroGrad();
  Tape tape;
  Var root = Tanh(tape.Leaf(&p));
  tape.Backward(root, la::Matrix(2, 3, 3.0f));
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(p.grad.data()[k], want.data()[k]) << k;
  }
}

}  // namespace
}  // namespace dial::autograd
