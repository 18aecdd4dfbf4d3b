#include "core/checkpoint.h"

#include <cstdio>

#include "util/hash.h"
#include "util/serialize.h"

namespace dial::core {

namespace {

constexpr uint32_t kCheckpointMagic = 0x4441'4c43;  // "DALC"
// v2: RoundMetrics gained t_index_build/index_warm_members and the file
// gained the IbcIndexCache warm-state section (index-refresh lifecycle).
// v3: RoundMetrics gained t_predict/t_embed (inference-engine breakdown).
// v4: CRC32C trailer (whole-file, verified before parsing); payload layout
// unchanged. v3 files still load — unverified, the pre-CRC contract.
constexpr uint32_t kCheckpointVersion = 4;
constexpr uint32_t kCheckpointMinVersion = 3;
constexpr uint32_t kCheckpointCrcFromVersion = 4;

void WritePair(util::BinaryWriter& w, const data::PairId& pair) {
  w.WriteU32(pair.r);
  w.WriteU32(pair.s);
}

data::PairId ReadPair(util::BinaryReader& r) {
  data::PairId pair;
  pair.r = r.ReadU32();
  pair.s = r.ReadU32();
  return pair;
}

void WriteEntries(util::BinaryWriter& w,
                  const std::vector<data::LabeledSet::Entry>& entries) {
  w.WriteU64(entries.size());
  for (const auto& e : entries) {
    WritePair(w, e.pair);
    w.WriteU32(e.pseudo ? 1 : 0);
  }
}

util::Status ReadEntries(util::BinaryReader& r,
                         std::vector<data::LabeledSet::Entry>* entries) {
  const uint64_t n = r.ReadU64();
  if (!r.status().ok()) return r.status();
  // 12 wire bytes per entry; bounding against the actual file size keeps a
  // corrupted count from reserving gigabytes before the reads start failing.
  if (n > (1u << 26) || n * 12 > r.RemainingBytes()) {
    return util::Status::Corruption("entry count too large");
  }
  entries->clear();
  entries->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    data::LabeledSet::Entry e;
    e.pair = ReadPair(r);
    e.pseudo = r.ReadU32() != 0;
    entries->push_back(e);
  }
  return r.status();
}

void WritePrf(util::BinaryWriter& w, const Prf& prf) {
  w.WriteF64(prf.precision);
  w.WriteF64(prf.recall);
  w.WriteF64(prf.f1);
  w.WriteU64(prf.true_positives);
  w.WriteU64(prf.predicted_positives);
  w.WriteU64(prf.actual_positives);
}

Prf ReadPrf(util::BinaryReader& r) {
  Prf prf;
  prf.precision = r.ReadF64();
  prf.recall = r.ReadF64();
  prf.f1 = r.ReadF64();
  prf.true_positives = r.ReadU64();
  prf.predicted_positives = r.ReadU64();
  prf.actual_positives = r.ReadU64();
  return prf;
}

void WriteRound(util::BinaryWriter& w, const RoundMetrics& m) {
  w.WriteU64(m.round);
  w.WriteU64(m.labels_in_t);
  w.WriteU64(m.positives_in_t);
  w.WriteU64(m.negatives_in_t);
  w.WriteU64(m.cand_size);
  w.WriteF64(m.cand_recall);
  WritePrf(w, m.test_prf);
  WritePrf(w, m.allpairs_prf);
  w.WriteF64(m.t_train_matcher);
  w.WriteF64(m.t_train_committee);
  w.WriteF64(m.t_index_retrieve);
  w.WriteF64(m.t_select);
  w.WriteF64(m.t_predict);
  w.WriteF64(m.t_embed);
  w.WriteF64(m.t_index_build);
  w.WriteU64(m.index_warm_members);
}

RoundMetrics ReadRound(util::BinaryReader& r) {
  RoundMetrics m;
  m.round = r.ReadU64();
  m.labels_in_t = r.ReadU64();
  m.positives_in_t = r.ReadU64();
  m.negatives_in_t = r.ReadU64();
  m.cand_size = r.ReadU64();
  m.cand_recall = r.ReadF64();
  m.test_prf = ReadPrf(r);
  m.allpairs_prf = ReadPrf(r);
  m.t_train_matcher = r.ReadF64();
  m.t_train_committee = r.ReadF64();
  m.t_index_retrieve = r.ReadF64();
  m.t_select = r.ReadF64();
  m.t_predict = r.ReadF64();
  m.t_embed = r.ReadF64();
  m.t_index_build = r.ReadF64();
  m.index_warm_members = r.ReadU64();
  return m;
}

}  // namespace

uint64_t AlConfigFingerprint(const AlConfig& config, const std::string& dataset) {
  uint64_t h = util::Fnv1a(dataset);
  // `rounds` is deliberately NOT hashed: extending a finished labeling
  // budget ("run 5 more rounds") is the main reason to resume, and the
  // total round count never changes per-round behaviour — only when the
  // loop stops.
  h = util::HashCombine(h, config.budget_per_round);
  h = util::HashCombine(h, config.seed_per_class);
  h = util::HashCombine(h, static_cast<uint64_t>(config.cand_multiplier * 1e6));
  h = util::HashCombine(h, config.cand_size_override);
  h = util::HashCombine(h, config.k_neighbors);
  h = util::HashCombine(h, static_cast<uint64_t>(config.index_backend));
  h = util::HashCombine(h, static_cast<uint64_t>(config.selector));
  h = util::HashCombine(h, static_cast<uint64_t>(config.blocking));
  h = util::HashCombine(h, config.qbc_committee_size);
  h = util::HashCombine(h, config.calibration_pairs);
  // Warm-start refresh changes retrieval on the approximate backends, so a
  // run checkpointed with one lifecycle setting must not resume under
  // another (num_threads, by contrast, stays excluded: bit-identical).
  h = util::HashCombine(h, config.index_refresh ? 1u : 0u);
  h = util::HashCombine(h, config.refresh.warm_start ? 1u : 0u);
  h = util::HashCombine(h, config.refresh.warm_iterations);
  // Negative knob values all mean "disabled"; clamp before the float->int
  // cast (negative-to-unsigned float conversion is UB, and every disabled
  // value should fingerprint identically anyway).
  const auto knob = [](double v) {
    return v > 0.0 ? static_cast<uint64_t>(v * 1e6) : uint64_t{0};
  };
  h = util::HashCombine(h, knob(config.refresh.drift_threshold));
  h = util::HashCombine(h, knob(config.refresh.max_stale_bits));
  h = util::HashCombine(h, config.seed);
  h = util::HashCombine(h, config.matcher.seed);
  h = util::HashCombine(h, config.blocker.seed);
  return h;
}

util::Status SaveAlCheckpoint(const std::string& path,
                              const AlCheckpoint& checkpoint,
                              const IbcIndexCache* index_cache) {
  const std::string tmp = path + ".tmp";
  {
    util::BinaryWriter w(tmp, kCheckpointMagic, kCheckpointVersion,
                         /*with_crc=*/true);
    w.WriteString(checkpoint.dataset_name);
    w.WriteU64(checkpoint.config_fingerprint);
    w.WriteU32(checkpoint.next_round);
    w.WriteU64(checkpoint.labels_used);
    for (const uint64_t s : checkpoint.rng_state.s) w.WriteU64(s);
    w.WriteU32(checkpoint.rng_state.have_spare ? 1 : 0);
    w.WriteF64(checkpoint.rng_state.spare);
    WriteEntries(w, checkpoint.positives);
    WriteEntries(w, checkpoint.negatives);
    w.WriteU64(checkpoint.calibration.size());
    for (const auto& pair : checkpoint.calibration) WritePair(w, pair);
    w.WriteU64(checkpoint.rounds.size());
    for (const auto& round : checkpoint.rounds) WriteRound(w, round);
    if (index_cache != nullptr) {
      index_cache->SaveWarmState(w);
    } else {
      w.WriteU64(0);  // empty cache section
    }
    // Durable finish = fsync the temp file's contents before the rename:
    // once the rename lands, the name can only ever point at complete bytes.
    const util::Status finish = w.Finish(/*durable=*/true);
    if (!finish.ok()) {
      std::remove(tmp.c_str());  // no stale .tmp litter on failed saves
      return finish;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Status::IoError("rename to " + path + " failed");
  }
  // And fsync the directory after the rename, making the *entry* durable —
  // file-fsync + rename alone can still lose the new name on power cut.
  DIAL_RETURN_IF_ERROR(util::SyncParentDir(path));
  return util::Status::OK();
}

util::Status LoadAlCheckpoint(const std::string& path, AlCheckpoint* checkpoint,
                              IbcIndexCache* index_cache) {
  DIAL_CHECK(checkpoint != nullptr);
  util::BinaryReader r(path, kCheckpointMagic, kCheckpointMinVersion,
                       kCheckpointVersion, kCheckpointCrcFromVersion);
  DIAL_RETURN_IF_ERROR(r.status());
  checkpoint->dataset_name = r.ReadString();
  checkpoint->config_fingerprint = r.ReadU64();
  checkpoint->next_round = r.ReadU32();
  checkpoint->labels_used = r.ReadU64();
  for (uint64_t& s : checkpoint->rng_state.s) s = r.ReadU64();
  checkpoint->rng_state.have_spare = r.ReadU32() != 0;
  checkpoint->rng_state.spare = r.ReadF64();
  DIAL_RETURN_IF_ERROR(ReadEntries(r, &checkpoint->positives));
  DIAL_RETURN_IF_ERROR(ReadEntries(r, &checkpoint->negatives));
  const uint64_t n_cal = r.ReadU64();
  DIAL_RETURN_IF_ERROR(r.status());
  if (n_cal > (1u << 26) || n_cal * 8 > r.RemainingBytes()) {
    return util::Status::Corruption("calibration too large");
  }
  checkpoint->calibration.clear();
  for (uint64_t i = 0; i < n_cal; ++i) checkpoint->calibration.push_back(ReadPair(r));
  const uint64_t n_rounds = r.ReadU64();
  DIAL_RETURN_IF_ERROR(r.status());
  if (n_rounds > (1u << 20) || n_rounds * 8 > r.RemainingBytes()) {
    return util::Status::Corruption("round count too large");
  }
  checkpoint->rounds.clear();
  for (uint64_t i = 0; i < n_rounds; ++i) checkpoint->rounds.push_back(ReadRound(r));
  DIAL_RETURN_IF_ERROR(r.status());
  // The cache section is always present (possibly empty); parse it even when
  // the caller does not want it so trailing corruption is still detected.
  IbcIndexCache scratch;
  IbcIndexCache* cache = index_cache != nullptr ? index_cache : &scratch;
  DIAL_RETURN_IF_ERROR(cache->LoadWarmState(r));
  return r.status();
}

util::StatusOr<AlCheckpoint> LoadAlCheckpoint(const std::string& path) {
  AlCheckpoint checkpoint;
  util::Status status = LoadAlCheckpoint(path, &checkpoint);
  if (!status.ok()) return status;
  return checkpoint;
}

}  // namespace dial::core
