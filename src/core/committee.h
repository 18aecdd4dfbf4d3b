#ifndef DIAL_CORE_COMMITTEE_H_
#define DIAL_CORE_COMMITTEE_H_

#include <memory>
#include <string>
#include <vector>

#include "autograd/inference.h"
#include "data/dataset.h"
#include "nn/layers.h"
#include "util/serialize.h"

/// \file
/// The DIAL blocker (Sec. 3.2): a committee of N lightweight embedding heads
/// over the frozen matcher-trained transformer's single-mode embeddings.
/// Member k applies a fixed random 0/1 mask M_k (keep prob p — the random-
/// forest-inspired feature subsampling) followed by a learned affine map and
/// tanh (Eq. 7). Members train independently on labeled duplicates versus
/// negatives with one of three objectives (contrastive Eq. 8 by default) —
/// the Table 4/5 ablation axes are both config switches here.

namespace dial::core {

enum class BlockerObjective {
  kContrastive,     // Eq. 8 (default)
  kTriplet,         // Sec. 4.6.2, margin loss, no hard negative mining
  kClassification,  // SentenceBERT-style BCE
};

enum class NegativeSource {
  kRandom,   // random record pairs (Sec. 3.2.2, the paper's key choice)
  kLabeled,  // the hard negatives T_n collected by AL (Table 4 ablation)
};

BlockerObjective ParseObjective(const std::string& text);
std::string ObjectiveName(BlockerObjective objective);
std::string NegativeSourceName(NegativeSource source);

struct BlockerConfig {
  size_t committee_size = 3;
  /// Keep probability p of the random mask M_k (paper default 0.5).
  double mask_keep_prob = 0.8;
  /// The committee trains 10x the matcher's epochs in the paper (200 vs 20);
  /// same ratio here at smaller absolute counts.
  size_t epochs = 80;
  size_t batch_size = 8;
  float lr = 1e-3f;
  BlockerObjective objective = BlockerObjective::kContrastive;
  NegativeSource negatives = NegativeSource::kRandom;
  float triplet_margin = 1.0f;
  /// L2-normalize member outputs (training and retrieval see the same
  /// metric): squared L2 on normalized vectors == scaled cosine, the
  /// alternative similarity Sec. 3.2.3 sanctions.
  bool normalize_output = true;
  /// Temperature on squared distances inside the contrastive softmax; on
  /// normalized outputs distances live in [0,4], so a >1 temperature
  /// sharpens the objective.
  float distance_scale = 4.0f;
  uint64_t seed = 202;
};

/// One committee member: E_k(x) = tanh(U_k(M_k ⊙ E(x), 1)), optionally
/// L2-normalized.
class CommitteeMember : public nn::Module {
 public:
  CommitteeMember(std::string name, size_t dim, double mask_keep_prob,
                  bool normalize_output, util::Rng& rng);

  /// Differentiable transform of a batch of frozen embeddings (m, d) -> (m, d).
  autograd::Var Forward(nn::ForwardContext& ctx, autograd::Var embeddings);

  /// Inference-only batch transform through the tape-free engine;
  /// bit-identical to Forward's value with dropout off.
  la::Matrix Transform(const la::Matrix& embeddings);

  /// Transform through an *external* context: const, so serving workers can
  /// encode through one shared member concurrently, each with its own
  /// InferenceContext. Bit-identical to Transform.
  la::Matrix TransformWith(autograd::InferenceContext& ctx,
                           const la::Matrix& embeddings) const;

  /// Persists the member's full state: the fixed random mask (not an
  /// autograd Parameter, so Module::Save misses it) followed by the learned
  /// affine weights.
  void SaveState(util::BinaryWriter& writer);
  util::Status LoadState(util::BinaryReader& reader);

  const la::Matrix& mask() const { return mask_; }

  /// Unowned pool threaded through this member's tapes (see Matcher).
  void SetThreadPool(util::ThreadPool* pool) {
    pool_ = pool;
    infer_ctx_.SetThreadPool(pool);
  }
  util::ThreadPool* thread_pool() const { return pool_; }

 private:
  la::Matrix mask_;  // (1, d) of {0,1}
  nn::Linear linear_;
  bool normalize_output_;
  util::ThreadPool* pool_ = nullptr;  // unowned; null = inline GEMMs
  autograd::InferenceContext infer_ctx_;  // tape-free activation arena
};

/// The full blocker: N members + their training loop.
class BlockerCommittee {
 public:
  BlockerCommittee(size_t dim, const BlockerConfig& config);

  size_t size() const { return members_.size(); }
  CommitteeMember& member(size_t k) { return *members_[k]; }
  const CommitteeMember& member(size_t k) const { return *members_[k]; }
  const BlockerConfig& config() const { return config_; }
  size_t dim() const { return dim_; }

  /// Persists every member's state (masks + learned weights) in order. The
  /// serving loader reconstructs a committee with the same (dim, config)
  /// shape and overwrites its members from this. Classification heads are
  /// training-only state and are not saved.
  void SaveWeights(util::BinaryWriter& writer);
  util::Status LoadWeights(util::BinaryReader& reader);

  /// Trains every member on the frozen record embeddings. `emb_r`/`emb_s`
  /// hold E(x) for every record of R/S (row = record id). `dups` are T_p;
  /// `labeled_negatives` are T_n (used only under NegativeSource::kLabeled).
  /// Returns the mean final-epoch loss across members.
  double Train(const la::Matrix& emb_r, const la::Matrix& emb_s,
               const std::vector<data::PairId>& dups,
               const std::vector<data::PairId>& labeled_negatives);

  /// Member k's embeddings of a record-embedding matrix.
  la::Matrix Encode(size_t k, const la::Matrix& embeddings) {
    return members_[k]->Transform(embeddings);
  }

  /// Attaches an unowned pool to every member (training + Encode GEMMs).
  /// Nested use (e.g. IndexByCommittee already fanning members over the same
  /// pool) degrades to inline execution inside the workers, so this is
  /// always safe to set.
  void SetThreadPool(util::ThreadPool* pool) {
    for (auto& member : members_) member->SetThreadPool(pool);
  }

 private:
  double TrainMember(size_t k, const la::Matrix& emb_r, const la::Matrix& emb_s,
                     const std::vector<data::PairId>& dups,
                     const std::vector<data::PairId>& labeled_negatives,
                     util::Rng& rng);

  BlockerConfig config_;
  size_t dim_;
  std::vector<std::unique_ptr<CommitteeMember>> members_;
  /// Per-member classification heads (only for kClassification).
  std::vector<std::unique_ptr<nn::SentencePairHead>> heads_;
};

}  // namespace dial::core

#endif  // DIAL_CORE_COMMITTEE_H_
