#include "nn/transformer.h"

#include <algorithm>
#include <cmath>

#include "la/kernels.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace dial::nn {

using autograd::Var;

uint64_t TransformerConfig::Fingerprint() const {
  const std::string text = util::StrFormat(
      "v=%zu,p=%zu,s=%zu,d=%zu,l=%zu,h=%zu,f=%zu,do=%.4f,pi=%.3f,pool=fl", vocab_size,
      max_positions, num_segments, dim, num_layers, num_heads, ffn_dim, dropout,
      position_init_scale);
  return util::Fnv1a(text);
}

TransformerLayer::TransformerLayer(std::string name, const TransformerConfig& config,
                                   util::Rng& rng)
    : Module(name),
      config_(config),
      wq_(name + ".wq", config.dim, config.dim, rng),
      wk_(name + ".wk", config.dim, config.dim, rng),
      wv_(name + ".wv", config.dim, config.dim, rng),
      wo_(name + ".wo", config.dim, config.dim, rng),
      ffn_in_(name + ".ffn_in", config.dim, config.ffn_dim, rng),
      ffn_out_(name + ".ffn_out", config.ffn_dim, config.dim, rng),
      ln_attn_(name + ".ln_attn", config.dim),
      ln_ffn_(name + ".ln_ffn", config.dim) {
  DIAL_CHECK_EQ(config.dim % config.num_heads, 0u);
  AddChild(&wq_);
  AddChild(&wk_);
  AddChild(&wv_);
  AddChild(&wo_);
  AddChild(&ffn_in_);
  AddChild(&ffn_out_);
  AddChild(&ln_attn_);
  AddChild(&ln_ffn_);
}

Var TransformerLayer::SelfAttention(ForwardContext& ctx, Var x) {
  const size_t head_dim = config_.dim / config_.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  Var q = wq_.Forward(ctx, x);
  Var k = wk_.Forward(ctx, x);
  Var v = wv_.Forward(ctx, x);
  std::vector<Var> head_outputs;
  head_outputs.reserve(config_.num_heads);
  for (size_t h = 0; h < config_.num_heads; ++h) {
    const size_t begin = h * head_dim;
    const size_t end = begin + head_dim;
    Var qh = autograd::SliceCols(q, begin, end);
    Var kh = autograd::SliceCols(k, begin, end);
    Var vh = autograd::SliceCols(v, begin, end);
    Var scores = autograd::ScalarMul(autograd::MatMulTransposeB(qh, kh), scale);
    Var attn = autograd::SoftmaxRows(scores);
    attn = autograd::Dropout(attn, config_.dropout, *ctx.rng, ctx.training);
    head_outputs.push_back(autograd::MatMul(attn, vh));
  }
  Var merged = autograd::ConcatCols(head_outputs);
  return wo_.Forward(ctx, merged);
}

namespace {

/// Copies columns [c0, c0 + cols) of `src` into the dense (rows, cols) `dst`.
void SliceColsInto(const la::Matrix& src, size_t c0, size_t cols,
                   la::Matrix& dst) {
  for (size_t r = 0; r < src.rows(); ++r) {
    const float* s = src.row(r) + c0;
    std::copy(s, s + cols, dst.row(r));
  }
}

}  // namespace

void TransformerLayer::InferForward(autograd::InferenceContext& ctx, size_t batch,
                                    size_t len, la::Matrix& x) const {
  namespace infer = autograd::infer;
  using autograd::Scratch;
  const size_t d = config_.dim;
  DIAL_CHECK_EQ(x.rows(), batch * len);
  DIAL_CHECK_EQ(x.cols(), d);
  const size_t rows = batch * len;
  const size_t heads = config_.num_heads;
  const size_t head_dim = d / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

  // Head-split packed projections: one (rows, d) x (d, head_dim) GEMM per
  // head per projection, writing per-head contiguous activations so the
  // attention GEMMs below read them in place (no per-sequence slice copies).
  // Column-sliced GEMMs accumulate exactly like the full-width GEMM (the k
  // reduction never depends on which output columns are computed), so this
  // stays bit-identical to the Tape path's full q/k/v projections.
  std::vector<Scratch> qh, kh, vh, head_out;
  {
    Scratch wslice(ctx, d, head_dim);
    Scratch bslice(ctx, 1, head_dim);
    const Linear* projections[3] = {&wq_, &wk_, &wv_};
    std::vector<Scratch>* outputs[3] = {&qh, &kh, &vh};
    for (int p = 0; p < 3; ++p) {
      for (size_t h = 0; h < heads; ++h) {
        const size_t c0 = h * head_dim;
        SliceColsInto(projections[p]->weight_values(), c0, head_dim, *wslice);
        std::copy(projections[p]->bias_values().row(0) + c0,
                  projections[p]->bias_values().row(0) + c0 + head_dim,
                  bslice->row(0));
        outputs[p]->emplace_back(ctx, rows, head_dim);
        la::Matrix& out = *outputs[p]->back();
        out.Zero();
        la::kernels::GemmNN(rows, head_dim, d, x.data(), wslice->data(),
                            out.data(), ctx.pool());
        la::AddRowBroadcast(out, *bslice);
      }
    }
    for (size_t h = 0; h < heads; ++h) head_out.emplace_back(ctx, rows, head_dim);
  }

  // Attention mixes tokens within one sequence only, so sequences fan out
  // over the pool; each worker borrows its own scratch from the arena.
  util::ParallelFor(ctx.pool(), batch, [&](size_t begin, size_t end) {
    Scratch scores(ctx, len, len);
    for (size_t b = begin; b < end; ++b) {
      const size_t r0 = b * len;
      for (size_t h = 0; h < heads; ++h) {
        scores->Zero();
        la::kernels::GemmNT(len, len, head_dim, qh[h]->row(r0), kh[h]->row(r0),
                            scores->data());
        la::Scale(*scores, scale);
        infer::SoftmaxRowsInPlace(*scores);
        float* out = head_out[h]->row(r0);
        std::fill(out, out + len * head_dim, 0.0f);
        la::kernels::GemmNN(len, head_dim, len, scores->data(), vh[h]->row(r0),
                            out);
      }
    }
  });

  // Output projection, head-split: wo(merged) == sum over heads of
  // head_out_h x Wo[rows c0..c0+head_dim) — and because head_dim is a
  // multiple of the GEMM kernel's 4-step k-grouping, accumulating the heads
  // in ascending order reproduces the full GEMM's per-element float-add
  // sequence exactly. Falls back to materializing `merged` otherwise.
  Scratch attn(ctx, rows, d);
  if (head_dim % 4 == 0) {
    attn->Zero();
    for (size_t h = 0; h < heads; ++h) {
      la::kernels::GemmNN(rows, d, head_dim, head_out[h]->data(),
                          wo_.weight_values().row(h * head_dim), attn->data(),
                          ctx.pool());
    }
    la::AddRowBroadcast(*attn, wo_.bias_values());
  } else {
    Scratch merged(ctx, rows, d);
    for (size_t h = 0; h < heads; ++h) {
      const size_t c0 = h * head_dim;
      for (size_t r = 0; r < rows; ++r) {
        const float* src = head_out[h]->row(r);
        std::copy(src, src + head_dim, merged->row(r) + c0);
      }
    }
    attn = wo_.InferForward(ctx, *merged);
  }

  // Residual + post-LN; dropout is a no-op at inference.
  Scratch sum(ctx, rows, d);
  infer::AddInto(x, *attn, *sum);
  ln_attn_.InferForward(*sum, x);

  Scratch ffn_hidden = ffn_in_.InferForward(ctx, x);
  infer::GeluInPlace(*ffn_hidden);
  Scratch ffn = ffn_out_.InferForward(ctx, *ffn_hidden);
  infer::AddInto(x, *ffn, *sum);
  ln_ffn_.InferForward(*sum, x);
}

void TransformerLayer::InferForwardCls(autograd::InferenceContext& ctx,
                                       size_t batch, size_t len,
                                       const la::Matrix& x,
                                       la::Matrix& cls) const {
  namespace infer = autograd::infer;
  using autograd::Scratch;
  const size_t d = config_.dim;
  DIAL_CHECK_EQ(x.rows(), batch * len);
  DIAL_CHECK_EQ(x.cols(), d);
  DIAL_CHECK_EQ(cls.rows(), batch);
  DIAL_CHECK_EQ(cls.cols(), d);
  const size_t head_dim = d / config_.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

  // CLS input rows, packed (batch, d): only these rows need q / FFN / LN.
  Scratch x0(ctx, batch, d);
  for (size_t b = 0; b < batch; ++b) {
    std::copy(x.row(b * len), x.row(b * len) + d, x0->row(b));
  }
  Scratch q = wq_.InferForward(ctx, *x0);  // (batch, d)
  Scratch k = wk_.InferForward(ctx, x);    // keys/values still span all tokens
  Scratch v = wv_.InferForward(ctx, x);
  Scratch merged(ctx, batch, d);

  util::ParallelFor(ctx.pool(), batch, [&](size_t begin, size_t end) {
    Scratch kh(ctx, len, head_dim);
    Scratch vh(ctx, len, head_dim);
    Scratch scores(ctx, 1, len);
    Scratch head_out(ctx, 1, head_dim);
    for (size_t b = begin; b < end; ++b) {
      const size_t r0 = b * len;
      for (size_t h = 0; h < config_.num_heads; ++h) {
        const size_t c0 = h * head_dim;
        for (size_t t = 0; t < len; ++t) {
          const float* kr = k->row(r0 + t) + c0;
          const float* vr = v->row(r0 + t) + c0;
          std::copy(kr, kr + head_dim, kh->row(t));
          std::copy(vr, vr + head_dim, vh->row(t));
        }
        // One query row: the same GemmNT/GemmNN accumulation as the full
        // (len, len) score matrix restricted to row 0.
        scores->Zero();
        la::kernels::GemmNT(1, len, head_dim, q->row(b) + c0, kh->data(),
                            scores->data());
        la::Scale(*scores, scale);
        infer::SoftmaxRowsInPlace(*scores);
        head_out->Zero();
        la::kernels::GemmNN(1, head_dim, len, scores->data(), vh->data(),
                            head_out->data());
        std::copy(head_out->row(0), head_out->row(0) + head_dim,
                  merged->row(b) + c0);
      }
    }
  });

  Scratch attn = wo_.InferForward(ctx, *merged);
  Scratch sum(ctx, batch, d);
  infer::AddInto(*x0, *attn, *sum);
  ln_attn_.InferForward(*sum, cls);

  Scratch ffn_hidden = ffn_in_.InferForward(ctx, cls);
  infer::GeluInPlace(*ffn_hidden);
  Scratch ffn = ffn_out_.InferForward(ctx, *ffn_hidden);
  infer::AddInto(cls, *ffn, *sum);
  ln_ffn_.InferForward(*sum, cls);
}

Var TransformerLayer::Forward(ForwardContext& ctx, Var x) {
  Var attn = SelfAttention(ctx, x);
  attn = autograd::Dropout(attn, config_.dropout, *ctx.rng, ctx.training);
  x = ln_attn_.Forward(ctx, autograd::Add(x, attn));
  Var ffn = ffn_out_.Forward(ctx, autograd::Gelu(ffn_in_.Forward(ctx, x)));
  ffn = autograd::Dropout(ffn, config_.dropout, *ctx.rng, ctx.training);
  return ln_ffn_.Forward(ctx, autograd::Add(x, ffn));
}

TransformerEncoder::TransformerEncoder(std::string name, TransformerConfig config,
                                       util::Rng& rng)
    : Module(name),
      config_(config),
      tokens_(name + ".tokens", config.vocab_size, config.dim, rng),
      positions_(name + ".positions", config.max_positions, config.dim, rng),
      segments_(name + ".segments", config.num_segments, config.dim, rng),
      ln_embed_(name + ".ln_embed", config.dim) {
  AddChild(&tokens_);
  AddChild(&positions_);
  AddChild(&segments_);
  AddChild(&ln_embed_);
  // Keep positional signal subordinate to lexical content (see config).
  la::Scale(positions_.table()->value, config.position_init_scale);
  for (size_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerLayer>(
        name + util::StrFormat(".layer%zu", i), config_, rng));
    AddChild(layers_.back().get());
  }
}

Var TransformerEncoder::Forward(ForwardContext& ctx, const std::vector<int>& ids,
                                const std::vector<int>& segment_ids,
                                Var* embed_out) {
  DIAL_CHECK_EQ(ids.size(), segment_ids.size());
  DIAL_CHECK_GT(ids.size(), 0u);
  DIAL_CHECK_LE(ids.size(), config_.max_positions);
  std::vector<int> pos_ids(ids.size());
  for (size_t i = 0; i < pos_ids.size(); ++i) pos_ids[i] = static_cast<int>(i);
  Var x = autograd::Add(
      autograd::Add(tokens_.Forward(ctx, ids), positions_.Forward(ctx, pos_ids)),
      segments_.Forward(ctx, segment_ids));
  x = ln_embed_.Forward(ctx, x);
  if (embed_out != nullptr) *embed_out = x;
  x = autograd::Dropout(x, config_.dropout, *ctx.rng, ctx.training);
  for (auto& layer : layers_) x = layer->Forward(ctx, x);
  return x;
}

size_t TransformerEncoder::TrainingDropoutDraws(size_t n) const {
  if (config_.dropout <= 0.0f) return 0;
  const size_t d = config_.dim;
  const size_t per_layer = config_.num_heads * n * n + 2 * n * d;
  return n * d + config_.num_layers * per_layer;
}

void TransformerEncoder::InferForward(autograd::InferenceContext& ctx,
                                      const std::vector<int>& ids,
                                      const std::vector<int>& segment_ids,
                                      size_t batch, size_t len, la::Matrix& hidden,
                                      la::Matrix* embed_out,
                                      const InferOptions& options) const {
  namespace infer = autograd::infer;
  DIAL_CHECK_GT(batch, 0u);
  DIAL_CHECK_GT(len, 0u);
  DIAL_CHECK_LE(len, config_.max_positions);
  DIAL_CHECK_EQ(ids.size(), batch * len);
  DIAL_CHECK_EQ(segment_ids.size(), ids.size());
  const size_t d = config_.dim;
  DIAL_CHECK_EQ(hidden.rows(), batch * len);
  DIAL_CHECK_EQ(hidden.cols(), d);

  // Fused token + position + segment gather-add ((tok + pos) + seg, matching
  // the Tape path's Add(Add(...), ...) association), then the embedding LN.
  const la::Matrix& tok = tokens_.table()->value;
  const la::Matrix& pos = positions_.table()->value;
  const la::Matrix& seg = segments_.table()->value;
  autograd::Scratch sum(ctx, batch * len, d);
  for (size_t i = 0; i < batch * len; ++i) {
    DIAL_CHECK_GE(ids[i], 0);
    DIAL_CHECK_LT(static_cast<size_t>(ids[i]), tok.rows());
    DIAL_CHECK_GE(segment_ids[i], 0);
    DIAL_CHECK_LT(static_cast<size_t>(segment_ids[i]), seg.rows());
    const float* tr = tok.row(ids[i]);
    const float* pr = pos.row(i % len);
    const float* sr = seg.row(segment_ids[i]);
    float* out = sum->row(i);
    for (size_t c = 0; c < d; ++c) out[c] = (tr[c] + pr[c]) + sr[c];
  }
  ln_embed_.InferForward(*sum, hidden);
  if (embed_out != nullptr) {
    DIAL_CHECK_EQ(embed_out->rows(), batch * len);
    DIAL_CHECK_EQ(embed_out->cols(), d);
    std::copy(hidden.data(), hidden.data() + hidden.size(), embed_out->data());
  }
  if (options.embed_only || layers_.empty()) return;
  // Dropout is identity at inference; the layers update `hidden` in place.
  const size_t full_layers =
      options.cls_only_last ? layers_.size() - 1 : layers_.size();
  for (size_t i = 0; i < full_layers; ++i) {
    layers_[i]->InferForward(ctx, batch, len, hidden);
  }
  if (options.cls_only_last) {
    // Final layer: only each sequence's CLS row is ever read downstream.
    autograd::Scratch cls(ctx, batch, d);
    layers_.back()->InferForwardCls(ctx, batch, len, hidden, *cls);
    for (size_t b = 0; b < batch; ++b) {
      std::copy(cls->row(b), cls->row(b) + d, hidden.row(b * len));
    }
  }
}

}  // namespace dial::nn
