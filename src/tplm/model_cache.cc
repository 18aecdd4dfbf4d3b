#include "tplm/model_cache.h"

#include <cstdlib>
#include <filesystem>

#include "la/kernels.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace dial::tplm {

namespace {
constexpr uint32_t kMagic = 0xd1a17001u;  // "dial tplm"
// v2: CRC32C trailer.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kMinVersion = 2;
constexpr uint32_t kCrcFromVersion = 2;
}  // namespace

ModelCache::ModelCache(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      DIAL_LOG_WARNING << "model cache disabled, cannot create " << dir_ << ": "
                       << ec.message();
      dir_.clear();
    }
  }
}

ModelCache ModelCache::Default() {
  const char* env = std::getenv("DIAL_CACHE_DIR");
  return ModelCache(env != nullptr ? env : "/tmp/dial_model_cache");
}

std::string ModelCache::KeyPath(const TplmModel& model, const PretrainOptions& options,
                                uint64_t corpus_tag) const {
  // Weights depend on the kernels' accumulation contract, the transformer
  // shape, the MLM sequence length, the pretraining options and the corpus —
  // not on inference-time knobs like the single-mode pooling mix, so those
  // stay out of the key.
  uint64_t key = util::HashCombine(model.config().transformer.Fingerprint(),
                                   la::kernels::kNumericsVersion);
  key = util::HashCombine(key, model.config().max_single_len);
  key = util::HashCombine(key, options.Fingerprint());
  key = util::HashCombine(key, corpus_tag);
  return dir_ + "/tplm_" + util::HexDigest(key) + ".bin";
}

PretrainStats ModelCache::GetOrPretrain(TplmModel& model,
                                        const text::SubwordVocab& vocab,
                                        const std::vector<std::string>& corpus,
                                        const PretrainOptions& options,
                                        uint64_t corpus_tag) {
  last_was_hit_ = false;
  std::string path;
  if (!dir_.empty()) {
    path = KeyPath(model, options, corpus_tag);
    util::BinaryReader reader(path, kMagic, kMinVersion, kVersion,
                              kCrcFromVersion);
    if (reader.status().ok()) {
      util::Status load = model.Load(reader);
      if (load.ok()) {
        last_was_hit_ = true;
        return PretrainStats{};
      }
      DIAL_LOG_WARNING << "stale model cache entry " << path << ": "
                       << load.ToString();
    }
  }
  PretrainStats stats = Pretrain(model, vocab, corpus, options);
  if (!path.empty()) {
    util::BinaryWriter writer(path, kMagic, kVersion, /*with_crc=*/true);
    model.Save(writer);
    util::Status st = writer.Finish();
    if (!st.ok()) {
      DIAL_LOG_WARNING << "failed to store model cache entry: " << st.ToString();
    }
  }
  return stats;
}

uint64_t CorpusFingerprint(const std::vector<std::string>& corpus) {
  uint64_t h = util::kFnvOffset;
  for (const std::string& line : corpus) {
    h = util::Fnv1a(line, h);
    h = util::HashCombine(h, line.size());
  }
  return h;
}

}  // namespace dial::tplm
