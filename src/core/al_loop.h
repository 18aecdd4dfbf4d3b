#ifndef DIAL_CORE_AL_LOOP_H_
#define DIAL_CORE_AL_LOOP_H_

#include <memory>
#include <string>
#include <vector>

#include "core/committee.h"
#include "core/ibc.h"
#include "core/matcher.h"
#include "core/metrics.h"
#include "core/sbert.h"
#include "core/selectors.h"
#include "util/status.h"

/// \file
/// Algorithm 1: the integrated matcher-blocker active-learning loop, plus
/// the paper's baseline blocking strategies so every method runs under the
/// identical protocol (Sec. 4.2/4.3).

namespace dial::core {

enum class BlockingStrategy {
  kDial,           // learned committee + IBC (the paper's contribution)
  kPairedFixed,    // kNN over the *pretrained* TPLM's embeddings, fixed
  kPairedAdapt,    // kNN over the matcher-finetuned TPLM's embeddings
  kSentenceBert,   // kNN over a single-mode-finetuned TPLM (DITTO blocking)
  kFixedExternal,  // candidates supplied by the caller (Rules baseline)
};

BlockingStrategy ParseBlocking(const std::string& text);
std::string BlockingName(BlockingStrategy strategy);

struct AlConfig {
  size_t rounds = 10;
  size_t budget_per_round = 128;
  size_t seed_per_class = 64;
  /// |cand| = cand_multiplier * |S| unless cand_size_override > 0.
  double cand_multiplier = 3.0;
  size_t cand_size_override = 0;
  size_t k_neighbors = 3;
  MatcherConfig matcher;
  BlockerConfig blocker;
  SbertConfig sbert;
  IndexBackend index_backend = IndexBackend::kFlat;
  SelectorKind selector = SelectorKind::kUncertainty;
  BlockingStrategy blocking = BlockingStrategy::kDial;
  /// Bootstrap matcher committee size for the QBC selector.
  size_t qbc_committee_size = 3;
  /// Presumed-negative calibration pairs sampled each round from the tail of
  /// the candidate ranking (similar-looking, almost never duplicates) and
  /// fed to the next round's matcher training. 0 disables.
  size_t calibration_pairs = 32;
  /// Compute the all-pairs metric every round (Fig. 7) vs only at the end.
  bool allpairs_each_round = true;
  /// Worker threads for the blocking step (IBC member fan-out and batch
  /// index search). 0 = inline execution, today's default. Retrieval results
  /// are bit-identical for every value, so this is excluded from the
  /// checkpoint fingerprint: a run checkpointed at one thread count resumes
  /// exactly under another.
  size_t num_threads = 0;
  /// Warm-start the blocker indexes across rounds: rounds >= 2 Refresh the
  /// previous round's indexes (reusing trained centroids/codebooks/planes)
  /// instead of reconstructing them. `false` is the ablation/fallback path
  /// (reconstruct every round, the paper's protocol). Changes retrieval on
  /// the approximate backends, so — unlike num_threads — it IS part of the
  /// checkpoint fingerprint, as are the refresh knobs below.
  bool index_refresh = true;
  index::RefreshOptions refresh;
  uint64_t seed = 7;
};

/// Per-round measurements (feeds every figure/table harness).
struct RoundMetrics {
  size_t round = 0;
  size_t labels_in_t = 0;  // |T| when the round's models were trained
  size_t positives_in_t = 0;
  size_t negatives_in_t = 0;
  size_t cand_size = 0;
  double cand_recall = 0.0;
  Prf test_prf;
  Prf allpairs_prf;
  // Table 9 breakdown (seconds).
  double t_train_matcher = 0.0;
  double t_train_committee = 0.0;  // includes single-mode embedding
  double t_index_retrieve = 0.0;
  double t_select = 0.0;  // includes t_predict
  /// Within t_select: matcher PredictProbs over the candidate set — the
  /// model-forward share of selection (the tape-vs-engine bench axis).
  double t_predict = 0.0;
  /// Within t_train_committee (kDial) / t_index_retrieve (kPairedAdapt):
  /// single-mode embedding of all of R and S.
  double t_embed = 0.0;
  /// Within t_index_retrieve: per-member index build/refresh cost, summed
  /// across members (the build-vs-refresh axis of BENCH_refresh.json).
  double t_index_build = 0.0;
  /// Members that took the warm Refresh path this round (0 on round 1, on
  /// refresh=off runs, and for the strategies that keep no index).
  size_t index_warm_members = 0;
};

struct AlResult {
  std::vector<RoundMetrics> rounds;
  Prf final_test;
  Prf final_allpairs;
  double final_cand_recall = 0.0;
  /// Table 2 "RT": wall seconds to produce all duplicate pairs with the
  /// final models — blocking (embed + index + retrieve) plus matching
  /// (probability inference on cand). Excludes training.
  double block_match_seconds = 0.0;
  size_t labels_used = 0;
};

struct AlCheckpoint;  // core/checkpoint.h

/// The final round's trained models, released by the loop for serving. The
/// models are detached from the loop's thread pool before hand-off, so they
/// outlive the loop safely (a server attaches its own pool/contexts).
struct TrainedModels {
  std::unique_ptr<Matcher> matcher;
  /// Null for every blocking strategy except kDial.
  std::unique_ptr<BlockerCommittee> committee;
};

class ActiveLearningLoop {
 public:
  ActiveLearningLoop(const data::DatasetBundle* bundle,
                     const text::SubwordVocab* vocab, tplm::TplmModel* pretrained,
                     AlConfig config);
  ~ActiveLearningLoop();

  /// Supplies the fixed candidate set for BlockingStrategy::kFixedExternal.
  void SetExternalCandidates(std::vector<Candidate> candidates);

  /// Writes a checkpoint to `path` after every completed round (empty
  /// disables — the default). See core/checkpoint.h.
  void SetCheckpointPath(std::string path);

  /// Restores the cross-round AL state from a checkpoint written by a loop
  /// with the same dataset and configuration; the next Run() continues from
  /// the saved round and reproduces the uninterrupted run exactly. Non-OK on
  /// missing/corrupt files or dataset/config mismatch.
  util::Status RestoreCheckpoint(const std::string& path);

  AlResult Run();

  /// Transfers ownership of the final round's trained matcher (and, for
  /// kDial, committee) out of the loop — the loader split that lets a
  /// ServingBundle reuse a finished training run without retraining. Valid
  /// once, after Run(); the loop keeps no model state afterwards.
  TrainedModels ReleaseTrainedModels();

 private:
  /// Produces this round's candidate set; fills the timing fields.
  std::vector<Candidate> BuildCandidates(size_t round, Matcher& matcher,
                                         RoundMetrics& metrics);

  la::Matrix EmbedAllR(Matcher& matcher);
  la::Matrix EmbedAllS(Matcher& matcher);

  const data::DatasetBundle* bundle_;
  const text::SubwordVocab* vocab_;
  tplm::TplmModel* pretrained_;
  AlConfig config_;
  /// Owned workers behind AlConfig::num_threads (null when 0).
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<Candidate> external_candidates_;
  std::string checkpoint_path_;
  std::unique_ptr<AlCheckpoint> restore_;  // pending restored state

  // Round-scoped state (owned here so BuildCandidates can reach it).
  std::unique_ptr<RecordEncodings> encodings_;
  std::unique_ptr<PairEncodingCache> pair_cache_;
  std::unique_ptr<SentenceBertBlocker> sbert_;
  std::unique_ptr<BlockerCommittee> committee_;  // kept for RT measurement
  std::unique_ptr<Matcher> final_matcher_;       // retained by Run() for release
  /// Cross-round blocker indexes (the warm-start refresh path); persisted in
  /// checkpoints so a resumed run refreshes from the identical structure.
  IbcIndexCache index_cache_;
  std::vector<Candidate> fixed_candidates_;      // PairedFixed cache
  std::vector<data::PairId> calibration_;        // presumed negatives
  data::LabeledSet labeled_;
};

}  // namespace dial::core

#endif  // DIAL_CORE_AL_LOOP_H_
