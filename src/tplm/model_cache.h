#ifndef DIAL_TPLM_MODEL_CACHE_H_
#define DIAL_TPLM_MODEL_CACHE_H_

#include <string>
#include <vector>

#include "tplm/tplm.h"
#include "util/status.h"

/// \file
/// Disk cache for pretrained TPLM weights. Pretraining is deterministic given
/// (kernel numerics, config, corpus, options, seed), so the cache key is a
/// fingerprint of all of them; benches and tests that share a dataset reuse
/// one pretrained model instead of re-running MLM.

namespace dial::tplm {

class ModelCache {
 public:
  /// `dir` is created if missing. An empty dir disables caching entirely.
  explicit ModelCache(std::string dir);

  /// Default directory: $DIAL_CACHE_DIR or /tmp/dial_model_cache.
  static ModelCache Default();

  /// Loads cached weights into `model` if present; otherwise runs
  /// `PretrainMlm(model, vocab, corpus, options)` and stores the result.
  /// `corpus_tag` must uniquely identify the corpus content (e.g. a content
  /// hash); it is combined with the model/pretrain fingerprints.
  PretrainStats GetOrPretrain(TplmModel& model, const text::SubwordVocab& vocab,
                              const std::vector<std::string>& corpus,
                              const PretrainOptions& options, uint64_t corpus_tag);

  /// True if the last GetOrPretrain call hit the cache.
  bool last_was_hit() const { return last_was_hit_; }

 private:
  std::string KeyPath(const TplmModel& model, const PretrainOptions& options,
                      uint64_t corpus_tag) const;

  std::string dir_;
  bool last_was_hit_ = false;
};

/// Content hash of corpus lines (order-sensitive).
uint64_t CorpusFingerprint(const std::vector<std::string>& corpus);

}  // namespace dial::tplm

#endif  // DIAL_TPLM_MODEL_CACHE_H_
