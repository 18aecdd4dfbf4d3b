#include "core/matcher.h"

#include <algorithm>
#include <cmath>

#include "autograd/optim.h"
#include "autograd/ops.h"
#include "util/thread_pool.h"

namespace dial::core {

using autograd::Var;

namespace {

/// One example of a training mini-batch, recorded on a tape of its own.
struct TrainExample {
  const text::EncodedSequence* seq = nullptr;
  text::EncodedSequence augmented;
  util::Rng rng;      // rng_ where this example's forward starts drawing
  util::Rng rng_end;  // rng_ where that forward must leave it
  float logit = 0.0f;
  std::vector<autograd::ParamGradWrite> writes;  // its sweep's, in order
};

}  // namespace

Matcher::Matcher(const tplm::TplmConfig& config, const MatcherConfig& matcher_config,
                 uint64_t weight_seed)
    : config_(matcher_config), rng_(matcher_config.seed) {
  model_ = std::make_unique<tplm::TplmModel>("matcher_tplm", config, weight_seed);
  util::Rng head_rng(weight_seed ^ 0x9e3779b97f4a7c15ULL);
  const size_t d = config.transformer.dim;
  head_dense_ = std::make_unique<nn::Linear>("matcher_head.dense",
                                             model_->pair_feature_dim(), d, head_rng);
  head_out_ = std::make_unique<nn::Linear>("matcher_head.out", d, 1, head_rng);
}

void Matcher::ResetFromPretrained(tplm::TplmModel& pretrained) {
  model_->CopyWeightsFrom(pretrained);
  util::Rng head_rng(config_.seed ^ 0xabcdefULL);
  const size_t d = model_->config().transformer.dim;
  head_dense_ = std::make_unique<nn::Linear>("matcher_head.dense",
                                             model_->pair_feature_dim(), d, head_rng);
  head_out_ = std::make_unique<nn::Linear>("matcher_head.out", d, 1, head_rng);
}

double Matcher::Train(PairEncodingCache& pairs,
                      const std::vector<data::LabeledPair>& labeled_input,
                      const std::vector<data::PairId>& presumed_negatives) {
  DIAL_CHECK(!labeled_input.empty());
  std::vector<data::LabeledPair> labeled = labeled_input;
  for (const data::PairId& pair : presumed_negatives) {
    labeled.push_back({pair, false});
  }
  if (config_.random_negative_fraction > 0) {
    // Presumed-negative random pairs for calibration (see MatcherConfig).
    std::unordered_set<uint64_t> known;
    for (const auto& lp : labeled_input) known.insert(lp.pair.Key());
    const auto* bundle = pairs.bundle();
    const auto want = static_cast<size_t>(config_.random_negative_fraction *
                                          static_cast<double>(labeled_input.size()));
    size_t added = 0;
    for (size_t tries = 0; tries < want * 10 && added < want; ++tries) {
      const data::PairId pair{
          static_cast<uint32_t>(rng_.UniformInt(bundle->r_table.size())),
          static_cast<uint32_t>(rng_.UniformInt(bundle->s_table.size()))};
      if (!known.insert(pair.Key()).second) continue;
      labeled.push_back({pair, false});
      ++added;
    }
  }
  if (config_.balance_classes) {
    size_t pos = 0;
    for (const auto& lp : labeled) pos += lp.is_duplicate ? 1 : 0;
    const size_t neg = labeled.size() - pos;
    if (pos > 0 && neg > 0) {
      const bool minority_is_pos = pos < neg;
      const size_t minority = minority_is_pos ? pos : neg;
      const size_t majority = labeled.size() - minority;
      // Duplicate minority examples until majority <= ratio * minority.
      const auto target_minority = static_cast<size_t>(
          static_cast<double>(majority) / std::max(1.0, config_.max_class_ratio));
      std::vector<data::LabeledPair> extra;
      size_t need = target_minority > minority ? target_minority - minority : 0;
      while (need > 0) {
        for (const auto& lp : labeled_input) {
          if (need == 0) break;
          if (lp.is_duplicate == minority_is_pos) {
            extra.push_back(lp);
            --need;
          }
        }
      }
      labeled.insert(labeled.end(), extra.begin(), extra.end());
    }
  }
  std::vector<autograd::ParamGroup> groups;
  std::vector<autograd::Parameter*> head_params = head_dense_->Parameters();
  for (autograd::Parameter* p : head_out_->Parameters()) head_params.push_back(p);
  groups.push_back({head_params, config_.lr_head});
  if (!config_.freeze_transformer) {
    groups.push_back({model_->Parameters(), config_.lr_transformer});
  }
  autograd::AdamW optimizer(std::move(groups));
  const size_t steps_per_epoch =
      (labeled.size() + config_.batch_size - 1) / config_.batch_size;
  autograd::LinearSchedule schedule(
      static_cast<int64_t>(steps_per_epoch * config_.epochs));

  std::vector<size_t> order(labeled.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // One example of an m-example batch: forward and sweep on a deferred tape
  // of its own, which dies here; only the logit and the queued
  // parameter-gradient writes remain. Touches no shared state.
  const auto train_example = [this](TrainExample& ex, float target, size_t m) {
    autograd::Tape tape(autograd::ParamGradMode::kDeferred);
    nn::ForwardContext ctx{&tape, &ex.rng, /*training=*/true};
    const Var logit = TrainForward(ctx, *ex.seq);
    DIAL_CHECK(ex.rng == ex.rng_end)
        << "dropout draws of a " << ex.seq->ids.size()
        << "-token forward differ from TrainForwardDropoutDraws";
    ex.logit = logit.scalar();
    // This row's share of the batch-mean BCE gradient (loss gradient 1).
    const float seed = autograd::BceWithLogitsRowGrad(1.0f, m, ex.logit, target);
    tape.Backward(logit, la::Matrix(1, 1, seed));
    ex.writes = tape.TakeParamGradWrites();
  };

  double last_epoch_loss = 0.0;
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t begin = 0; begin < order.size(); begin += config_.batch_size) {
      const size_t m = std::min(order.size(), begin + config_.batch_size) - begin;
      // Serially: the encodings (the cache encodes lazily), the augmentation
      // draws, and the slice of rng_ each forward's dropout will consume.
      std::vector<TrainExample> batch(m);
      std::vector<float> targets(m);
      for (size_t i = 0; i < m; ++i) {
        const auto& lp = labeled[order[begin + i]];
        TrainExample& ex = batch[i];
        ex.seq = &pairs.Get(lp.pair);
        if (config_.augment_prob > 0 && rng_.Bernoulli(config_.augment_prob)) {
          ex.augmented = AugmentPair(*ex.seq);
          ex.seq = &ex.augmented;
        }
        ex.rng = rng_;
        rng_.Discard(TrainForwardDropoutDraws(ex.seq->ids.size()));
        ex.rng_end = rng_;
        targets[i] = lp.is_duplicate ? 1.0f : 0.0f;
      }
      // In parallel: each example's forward and sweep on a tape of its own,
      // which dies in its task; only its parameter-gradient writes remain.
      util::ParallelFor(pool_, m, [&](size_t first, size_t last) {
        for (size_t i = first; i < last; ++i) train_example(batch[i], targets[i], m);
      });
      // Serially: the batch loss, then the writes, last example first as one
      // shared tape's sweep makes them, so every sum rounds as it always did.
      la::Matrix logits(m, 1);
      for (size_t i = 0; i < m; ++i) logits(i, 0) = batch[i].logit;
      autograd::Tape loss_tape;
      const float loss =
          autograd::BceWithLogits(loss_tape.Constant(std::move(logits)), targets).scalar();
      optimizer.ZeroGrad();
      for (size_t i = m; i-- > 0;) {
        for (const autograd::ParamGradWrite& write : batch[i].writes) write.Apply();
      }
      optimizer.Step(schedule.Multiplier(optimizer.steps_taken()));
      epoch_loss += loss;
      ++batches;
    }
    last_epoch_loss = batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
    if (config_.early_stop_loss > 0 && last_epoch_loss < config_.early_stop_loss) {
      break;
    }
  }
  return last_epoch_loss;
}

Var Matcher::TrainForward(nn::ForwardContext& ctx, const text::EncodedSequence& seq) {
  Var cls = model_->EncodePairFeatures(ctx, seq);
  Var h = autograd::Dropout(cls, config_.dropout, *ctx.rng, true);
  h = autograd::Tanh(head_dense_->Forward(ctx, h));
  h = autograd::Dropout(h, config_.dropout, *ctx.rng, true);
  return head_out_->Forward(ctx, h);
}

size_t Matcher::TrainForwardDropoutDraws(size_t n) const {
  const size_t head =
      config_.dropout > 0.0f ? model_->pair_feature_dim() + model_->dim() : 0;
  return model_->PairFeatureDropoutDraws(n) + head;
}

text::EncodedSequence Matcher::AugmentPair(const text::EncodedSequence& seq) {
  text::EncodedSequence out;
  out.ids.reserve(seq.ids.size());
  out.segments.reserve(seq.segments.size());
  for (size_t i = 0; i < seq.ids.size(); ++i) {
    const bool special = seq.ids[i] < text::SpecialIds::kCount;
    if (!special && rng_.Bernoulli(config_.augment_drop_prob)) continue;
    out.ids.push_back(seq.ids[i]);
    out.segments.push_back(seq.segments[i]);
  }
  // Swap adjacent non-special pieces within the same segment.
  for (size_t i = 0; i + 1 < out.ids.size(); ++i) {
    if (out.ids[i] < text::SpecialIds::kCount ||
        out.ids[i + 1] < text::SpecialIds::kCount ||
        out.segments[i] != out.segments[i + 1]) {
      continue;
    }
    if (rng_.Bernoulli(config_.augment_swap_prob)) {
      std::swap(out.ids[i], out.ids[i + 1]);
    }
  }
  return out;
}

std::vector<const text::EncodedSequence*> Matcher::GatherPairSeqs(
    PairEncodingCache& pairs, const std::vector<data::PairId>& query) {
  std::vector<const text::EncodedSequence*> seqs;
  seqs.reserve(query.size());
  // Serial gather: the cache lazily encodes on miss. References stay valid
  // (node-based map) while the engine runs over them.
  for (const data::PairId& pair : query) seqs.push_back(&pairs.Get(pair));
  return seqs;
}

void Matcher::InferHeadBatchWith(autograd::InferenceContext& ctx,
                                 const std::vector<const text::EncodedSequence*>& seqs,
                                 la::Matrix* h_out, std::vector<float>* probs) const {
  const la::Matrix features = model_->EncodePairFeaturesBatch(ctx, seqs);
  autograd::Scratch h = head_dense_->InferForward(ctx, features);
  autograd::infer::TanhInPlace(*h);
  if (probs != nullptr) {
    autograd::Scratch logits = head_out_->InferForward(ctx, *h);
    probs->resize(seqs.size());
    for (size_t i = 0; i < seqs.size(); ++i) {
      (*probs)[i] = 1.0f / (1.0f + std::exp(-(*logits)(i, 0)));
    }
  }
  if (h_out != nullptr) *h_out = *h;
}

void Matcher::InferHeadBatch(const std::vector<const text::EncodedSequence*>& seqs,
                             la::Matrix* h_out, std::vector<float>* probs) {
  InferHeadBatchWith(infer_ctx_, seqs, h_out, probs);
}

std::vector<float> Matcher::PredictProbsWith(
    autograd::InferenceContext& ctx,
    const std::vector<const text::EncodedSequence*>& seqs) const {
  std::vector<float> probs(seqs.size());
  if (seqs.empty()) return probs;
  InferHeadBatchWith(ctx, seqs, nullptr, &probs);
  return probs;
}

la::Matrix Matcher::EmbedSingleModeWith(
    autograd::InferenceContext& ctx,
    const std::vector<const text::EncodedSequence*>& seqs) const {
  la::Matrix out = model_->EncodeSingleBatch(ctx, seqs);
  // Unit-normalized embeddings: L2 retrieval over them equals scaled-cosine
  // retrieval, which is markedly better for mean-pooled record embeddings
  // (record-length effects cancel).
  la::NormalizeRowsInPlace(out);
  return out;
}

void Matcher::SaveWeights(util::BinaryWriter& writer) {
  model_->Save(writer);
  head_dense_->Save(writer);
  head_out_->Save(writer);
}

util::Status Matcher::LoadWeights(util::BinaryReader& reader) {
  DIAL_RETURN_IF_ERROR(model_->Load(reader));
  DIAL_RETURN_IF_ERROR(head_dense_->Load(reader));
  return head_out_->Load(reader);
}

std::vector<float> Matcher::PredictProbs(PairEncodingCache& pairs,
                                         const std::vector<data::PairId>& query) {
  std::vector<float> probs(query.size());
  if (query.empty()) return probs;
  InferHeadBatch(GatherPairSeqs(pairs, query), nullptr, &probs);
  return probs;
}

la::Matrix Matcher::BadgeEmbeddings(PairEncodingCache& pairs,
                                    const std::vector<data::PairId>& query) {
  const size_t d = model_->config().transformer.dim;
  la::Matrix out(query.size(), d + 1);
  la::Matrix h;
  std::vector<float> probs;
  InferHeadBatch(GatherPairSeqs(pairs, query), &h, &probs);
  for (size_t i = 0; i < query.size(); ++i) {
    const float p = probs[i];
    const float y_hat = p > 0.5f ? 1.0f : 0.0f;
    // d/dlogit of BCE with the hallucinated label.
    const float g = p - y_hat;
    float* row = out.row(i);
    for (size_t c = 0; c < d; ++c) row[c] = g * h(i, c);
    row[d] = g;  // bias column
  }
  return out;
}

la::Matrix Matcher::PairRepresentations(PairEncodingCache& pairs,
                                        const std::vector<data::PairId>& query) {
  la::Matrix h;
  InferHeadBatch(GatherPairSeqs(pairs, query), &h, nullptr);
  return h;
}

la::Matrix Matcher::EmbedSingleMode(
    const std::vector<const text::EncodedSequence*>& seqs) {
  return EmbedSingleModeWith(infer_ctx_, seqs);
}

}  // namespace dial::core
