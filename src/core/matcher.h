#ifndef DIAL_CORE_MATCHER_H_
#define DIAL_CORE_MATCHER_H_

#include <memory>
#include <vector>

#include "autograd/inference.h"
#include "core/encodings.h"
#include "nn/layers.h"
#include "tplm/tplm.h"
#include "util/serialize.h"

/// \file
/// The DIAL matcher (Sec. 3.1): the TPLM in paired mode plus the
/// classification head of Eq. 5, trained with binary cross entropy (Eq. 6)
/// on the labeled pairs T. Exposes single-mode embeddings (the frozen E(x)
/// the blocker builds on) and BADGE gradient embeddings.

namespace dial::core {

struct MatcherConfig {
  size_t epochs = 12;
  size_t batch_size = 8;
  /// Learning rates for the two parameter groups (paper: 3e-5 / 1e-3 for a
  /// 768-d RoBERTa; scaled up for this repo's small randomly-pretrained
  /// transformer, same 1:10-ish ratio).
  float lr_transformer = 2e-4f;
  float lr_head = 1e-3f;
  float dropout = 0.1f;
  /// When true the transformer body is not updated (multilingual setting,
  /// Sec. 4.5: "freezing the TPLM parameters leads to slightly better F1").
  bool freeze_transformer = false;
  /// Oversamples the minority class so each epoch sees a roughly balanced
  /// stream — needed at this repo's small model scale to keep the matcher
  /// from collapsing to the majority class as AL accumulates negatives.
  bool balance_classes = true;
  /// Majority:minority ratio after oversampling (1.0 = fully balanced).
  /// Values > 1 trade recall for precision.
  double max_class_ratio = 1.0;
  /// Probability of training on a piece-perturbed copy of a pair instead of
  /// the original (drop/swap of non-special pieces). Diversifies the
  /// oversampled minority class; 0 disables.
  double augment_prob = 0.5;
  double augment_drop_prob = 0.1;
  double augment_swap_prob = 0.05;
  /// Fraction (of |T|) of presumed-negative random R×S pairs mixed into each
  /// training run for calibration. At benchmark duplicate rates (<= 1e-3) a
  /// random pair is a non-duplicate with near certainty, so no labels are
  /// consumed. Without these the matcher — trained only on blocked hard
  /// negatives — misfires on the moderately-similar pairs that dominate the
  /// candidate set. 0 disables.
  double random_negative_fraction = 0.3;
  /// Stop training once the epoch-mean loss drops below this (0 disables).
  /// Prevents the boundary from over-tightening around the (oversampled)
  /// positives when AL floods T with near-duplicate negatives.
  double early_stop_loss = 0.18;
  uint64_t seed = 101;
};

class Matcher {
 public:
  Matcher(const tplm::TplmConfig& config, const MatcherConfig& matcher_config,
          uint64_t weight_seed);

  /// Resets the transformer to `pretrained`'s weights and re-randomizes the
  /// head (the paper does not warm-start between AL rounds).
  void ResetFromPretrained(tplm::TplmModel& pretrained);

  /// Trains on the labeled pairs (Eq. 6). `presumed_negatives` are unlabeled
  /// pairs treated as negatives for calibration (e.g. the tail of the
  /// previous round's candidate set — similar-looking pairs that are almost
  /// never duplicates). Returns mean loss of the final epoch.
  double Train(PairEncodingCache& pairs, const std::vector<data::LabeledPair>& labeled,
               const std::vector<data::PairId>& presumed_negatives = {});

  /// P(duplicate) for each pair.
  std::vector<float> PredictProbs(PairEncodingCache& pairs,
                                  const std::vector<data::PairId>& query);

  /// Tape-free batched probabilities through an *external* context — the
  /// serving entry point: many worker threads can score through one const
  /// Matcher concurrently, each with its own InferenceContext. Bit-identical
  /// to PredictProbs over the same encodings (the engine's batched ≡
  /// one-at-a-time contract).
  std::vector<float> PredictProbsWith(
      autograd::InferenceContext& ctx,
      const std::vector<const text::EncodedSequence*>& seqs) const;

  /// External-context counterpart of EmbedSingleMode (see PredictProbsWith).
  la::Matrix EmbedSingleModeWith(
      autograd::InferenceContext& ctx,
      const std::vector<const text::EncodedSequence*>& seqs) const;

  /// Writes the transformer + head weights (nn::Module wire format).
  void SaveWeights(util::BinaryWriter& writer);
  /// Restores weights written by SaveWeights; non-OK on name/shape mismatch
  /// or truncation, and no partial state is observable through the engine
  /// path on failure (callers discard the matcher).
  util::Status LoadWeights(util::BinaryReader& reader);

  /// BADGE gradient embeddings (Sec. 2.3.4): g = (p - ŷ) · [h ; 1] where h
  /// is the penultimate activation and ŷ the most likely label. One row per
  /// pair; dimension = dim + 1.
  la::Matrix BadgeEmbeddings(PairEncodingCache& pairs,
                             const std::vector<data::PairId>& query);

  /// Penultimate head activations h per pair (the representation the
  /// Core-Set and diverse-mini-batch selectors cover; Sener & Savarese use
  /// the same layer). One row per pair; dimension = dim.
  la::Matrix PairRepresentations(PairEncodingCache& pairs,
                                 const std::vector<data::PairId>& query);

  /// Frozen single-mode embeddings E(x) (Eq. 3) for a batch of pre-encoded
  /// sequences; one row per sequence. No gradients are recorded.
  la::Matrix EmbedSingleMode(const std::vector<const text::EncodedSequence*>& seqs);

  tplm::TplmModel& model() { return *model_; }
  const MatcherConfig& config() const { return config_; }

  /// Attaches an unowned worker pool: every tape this matcher records
  /// (training steps) and the inference engine thread their GEMMs/fan-outs
  /// through it. Bit-identical to inline execution; nullptr (default)
  /// detaches.
  void SetThreadPool(util::ThreadPool* pool) {
    pool_ = pool;
    infer_ctx_.SetThreadPool(pool);
  }

 private:
  /// Gathers the cached pair encodings for `query` (in order).
  std::vector<const text::EncodedSequence*> GatherPairSeqs(
      PairEncodingCache& pairs, const std::vector<data::PairId>& query);

  /// Engine path shared by the prob/badge/representation entry points:
  /// batched pair features -> penultimate activations `h` (m, d) and, when
  /// `probs` is non-null, sigmoid probabilities. Const + external context so
  /// serving workers can run it concurrently (weights are read-only here).
  void InferHeadBatchWith(autograd::InferenceContext& ctx,
                          const std::vector<const text::EncodedSequence*>& seqs,
                          la::Matrix* h_out, std::vector<float>* probs) const;
  void InferHeadBatch(const std::vector<const text::EncodedSequence*>& seqs,
                      la::Matrix* h_out, std::vector<float>* probs);

  /// Piece-level perturbation of a pair encoding (train-time augmentation).
  text::EncodedSequence AugmentPair(const text::EncodedSequence& seq);

  MatcherConfig config_;
  std::unique_ptr<tplm::TplmModel> model_;
  std::unique_ptr<nn::Linear> head_dense_;
  std::unique_ptr<nn::Linear> head_out_;
  util::Rng rng_;
  util::ThreadPool* pool_ = nullptr;  // unowned; null = inline GEMMs
  autograd::InferenceContext infer_ctx_;  // tape-free activation arena
};

}  // namespace dial::core

#endif  // DIAL_CORE_MATCHER_H_
