#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "core/ibc.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_index.h"
#include "index/ivfpq_index.h"
#include "index/lsh_index.h"
#include "index/matmul_search.h"
#include "index/pq_index.h"
#include "index/sq_index.h"
#include "private_dir.h"

/// Cross-backend property suite: every index backend, exact or approximate,
/// must satisfy the VectorIndex contract uniformly. One TEST_P per invariant,
/// instantiated over all 8 backends.

namespace dial::index {
namespace {

using core::IndexBackend;

constexpr size_t kDim = 16;

std::unique_ptr<VectorIndex> MakeBackend(IndexBackend backend) {
  switch (backend) {
    case IndexBackend::kFlat:
      return std::make_unique<FlatIndex>(kDim, Metric::kL2);
    case IndexBackend::kIvf: {
      IvfIndex::Options options;
      options.nlist = 8;
      options.nprobe = 4;
      return std::make_unique<IvfIndex>(kDim, Metric::kL2, options);
    }
    case IndexBackend::kLsh:
      return std::make_unique<LshIndex>(kDim, Metric::kL2, LshIndex::Options{});
    case IndexBackend::kPq: {
      ProductQuantizer::Options options;
      options.num_subspaces = 4;
      return std::make_unique<PqIndex>(kDim, Metric::kL2, options);
    }
    case IndexBackend::kIvfPq: {
      IvfPqIndex::Options options;
      options.nlist = 8;
      options.nprobe = 8;
      options.pq.num_subspaces = 4;
      return std::make_unique<IvfPqIndex>(kDim, Metric::kL2, options);
    }
    case IndexBackend::kSq:
      return std::make_unique<SqIndex>(kDim, Metric::kL2);
    case IndexBackend::kHnsw:
      return std::make_unique<HnswIndex>(kDim, Metric::kL2, HnswIndex::Options{});
    case IndexBackend::kMatmul:
      return std::make_unique<MatmulSearchIndex>(kDim, Metric::kL2);
  }
  return nullptr;
}

bool IsExact(IndexBackend backend) {
  return backend == IndexBackend::kFlat || backend == IndexBackend::kMatmul;
}

la::Matrix Clustered(size_t n, size_t clusters, uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix centers(clusters, kDim);
  centers.RandNormal(rng, 8.0f);
  la::Matrix m(n, kDim);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.UniformInt(clusters);
    for (size_t j = 0; j < kDim; ++j) {
      m(i, j) = centers(c, j) + static_cast<float>(rng.Normal()) * 0.3f;
    }
  }
  return m;
}

class AllBackends : public testing::TestWithParam<IndexBackend> {};

TEST_P(AllBackends, IdsValidAndUniquePerQuery) {
  auto index = MakeBackend(GetParam());
  const la::Matrix data = Clustered(150, 6, 1);
  index->Add(data);
  const la::Matrix queries = Clustered(20, 6, 2);
  for (const auto& neighbors : index->Search(queries, 10)) {
    std::set<int> seen;
    for (const Neighbor& nb : neighbors) {
      EXPECT_GE(nb.id, 0);
      EXPECT_LT(nb.id, 150);
      EXPECT_TRUE(seen.insert(nb.id).second) << "duplicate id " << nb.id;
    }
  }
}

TEST_P(AllBackends, DistancesAscendingPerQuery) {
  auto index = MakeBackend(GetParam());
  index->Add(Clustered(150, 6, 3));
  for (const auto& neighbors : index->Search(Clustered(20, 6, 4), 8)) {
    for (size_t i = 1; i < neighbors.size(); ++i) {
      EXPECT_LE(neighbors[i - 1].distance, neighbors[i].distance);
    }
  }
}

TEST_P(AllBackends, DeterministicAcrossInstances) {
  const la::Matrix data = Clustered(120, 5, 5);
  const la::Matrix queries = Clustered(15, 5, 6);
  auto a = MakeBackend(GetParam());
  auto b = MakeBackend(GetParam());
  a->Add(data);
  b->Add(data);
  const SearchBatch ra = a->Search(queries, 6);
  const SearchBatch rb = b->Search(queries, 6);
  for (size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_EQ(ra[q].size(), rb[q].size()) << "query " << q;
    for (size_t i = 0; i < ra[q].size(); ++i) {
      EXPECT_EQ(ra[q][i].id, rb[q][i].id);
      EXPECT_FLOAT_EQ(ra[q][i].distance, rb[q][i].distance);
    }
  }
}

TEST_P(AllBackends, ExactBackendsReturnExactlyK) {
  auto index = MakeBackend(GetParam());
  index->Add(Clustered(100, 4, 7));
  const auto results = index->Search(Clustered(10, 4, 8), 7);
  for (const auto& neighbors : results) {
    if (IsExact(GetParam())) {
      EXPECT_EQ(neighbors.size(), 7u);
    } else {
      EXPECT_LE(neighbors.size(), 7u);  // probing may find fewer
    }
  }
}

TEST_P(AllBackends, EmptyQueryBatch) {
  auto index = MakeBackend(GetParam());
  index->Add(Clustered(50, 4, 9));
  const la::Matrix no_queries(0, kDim);
  EXPECT_TRUE(index->Search(no_queries, 3).empty());
}

TEST_P(AllBackends, AddEmptyBatchIsNoOp) {
  auto index = MakeBackend(GetParam());
  const la::Matrix empty(0, kDim);
  index->Add(empty);  // before training structures exist
  EXPECT_EQ(index->size(), 0u);
  index->Add(Clustered(40, 4, 15));
  index->Add(empty);  // after
  EXPECT_EQ(index->size(), 40u);
  const auto results = index->Search(Clustered(5, 4, 16), 3);
  EXPECT_EQ(results.size(), 5u);
}

TEST_P(AllBackends, SizeTracksAdds) {
  auto index = MakeBackend(GetParam());
  EXPECT_EQ(index->size(), 0u);
  index->Add(Clustered(60, 4, 10));
  EXPECT_EQ(index->size(), 60u);
  index->Add(Clustered(15, 4, 11));
  EXPECT_EQ(index->size(), 75u);
}

TEST_P(AllBackends, RecallFloorOnClusteredData) {
  // Every backend must beat a (generous) recall floor against exact truth on
  // well-separated clusters; exact backends must be perfect.
  const la::Matrix data = Clustered(200, 8, 12);
  const la::Matrix queries = Clustered(25, 8, 13);
  FlatIndex truth(kDim, Metric::kL2);
  truth.Add(data);
  const SearchBatch expected = truth.Search(queries, 5);
  auto index = MakeBackend(GetParam());
  index->Add(data);
  const SearchBatch got = index->Search(queries, 5);
  size_t hits = 0;
  size_t total = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::set<int> truth_ids;
    for (const Neighbor& nb : expected[q]) truth_ids.insert(nb.id);
    for (const Neighbor& nb : got[q]) hits += truth_ids.count(nb.id);
    total += expected[q].size();
  }
  const double recall = static_cast<double>(hits) / static_cast<double>(total);
  if (IsExact(GetParam())) {
    EXPECT_DOUBLE_EQ(recall, 1.0);
  } else {
    EXPECT_GT(recall, 0.25) << "approximate backend below sanity floor";
  }
}

// Every value of num_threads must produce the same bytes: the threading
// contract (VectorIndex::SetThreadPool) promises bit-identical results, which
// is what lets AlConfig::num_threads stay outside the checkpoint fingerprint.
void ExpectIdenticalBatches(const SearchBatch& expected, const SearchBatch& got) {
  ASSERT_EQ(expected.size(), got.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    ASSERT_EQ(expected[q].size(), got[q].size()) << "query " << q;
    for (size_t i = 0; i < expected[q].size(); ++i) {
      EXPECT_EQ(expected[q][i].id, got[q][i].id) << "query " << q << " rank " << i;
      // Bit-identical, not just close: same code path, same summation order.
      EXPECT_EQ(expected[q][i].distance, got[q][i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

TEST_P(AllBackends, ThreadedSearchIsBitIdenticalToInline) {
  const la::Matrix data = Clustered(300, 6, 21);
  const la::Matrix queries = Clustered(64, 6, 22);
  auto index = MakeBackend(GetParam());
  index->Add(data);
  const SearchBatch expected = index->Search(queries, 9);

  util::ThreadPool pool(4);
  index->SetThreadPool(&pool);
  ExpectIdenticalBatches(expected, index->Search(queries, 9));

  // Detaching restores inline execution.
  index->SetThreadPool(nullptr);
  ExpectIdenticalBatches(expected, index->Search(queries, 9));
}

TEST_P(AllBackends, ThreadedBuildIsBitIdenticalToInline) {
  // The parallel build steps (k-means assignment, PQ/SQ encoding, cell
  // routing) must leave the index in exactly the state an inline build
  // produces — across both the training Add and a follow-up Add.
  const la::Matrix first = Clustered(200, 6, 23);
  const la::Matrix second = Clustered(60, 6, 24);
  const la::Matrix queries = Clustered(32, 6, 25);

  auto inline_index = MakeBackend(GetParam());
  inline_index->Add(first);
  inline_index->Add(second);

  util::ThreadPool pool(4);
  auto threaded = MakeBackend(GetParam());
  threaded->SetThreadPool(&pool);
  threaded->Add(first);
  threaded->Add(second);
  ASSERT_EQ(threaded->size(), inline_index->size());

  ExpectIdenticalBatches(inline_index->Search(queries, 8),
                         threaded->Search(queries, 8));
}

// ------------------------------------------------------------ lifecycle

/// Round-to-round embedding drift: the same vectors nudged by small noise,
/// the regime Refresh is designed for.
la::Matrix Drifted(const la::Matrix& data, uint64_t seed, float stddev = 0.1f) {
  util::Rng rng(seed);
  la::Matrix out = data;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] += static_cast<float>(rng.Normal()) * stddev;
  }
  return out;
}

double RecallVsFlat(VectorIndex& index, const la::Matrix& data,
                    const la::Matrix& queries, size_t k) {
  FlatIndex truth(kDim, Metric::kL2);
  truth.Add(data);
  const SearchBatch expected = truth.Search(queries, k);
  const SearchBatch got = index.Search(queries, k);
  size_t hits = 0;
  size_t total = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::set<int> truth_ids;
    for (const Neighbor& nb : expected[q]) truth_ids.insert(nb.id);
    for (const Neighbor& nb : got[q]) hits += truth_ids.count(nb.id);
    total += expected[q].size();
  }
  return total == 0 ? 1.0 : static_cast<double>(hits) / static_cast<double>(total);
}

TEST_P(AllBackends, RefreshEmptyBatchIsNoOp) {
  // Satellite regression: a 0-row Refresh (like a 0-row Add) must leave the
  // index untouched on every backend — before and after training.
  auto index = MakeBackend(GetParam());
  const la::Matrix empty(0, kDim);
  EXPECT_FALSE(index->Refresh(empty).warm);  // untrained: well-defined no-op
  EXPECT_EQ(index->size(), 0u);
  const la::Matrix data = Clustered(80, 4, 31);
  const la::Matrix queries = Clustered(10, 4, 32);
  index->Add(data);
  const SearchBatch before = index->Search(queries, 5);
  index->Refresh(empty);
  EXPECT_EQ(index->size(), 80u);
  ExpectIdenticalBatches(before, index->Search(queries, 5));
}

TEST_P(AllBackends, ColdRefreshIsBitIdenticalToFreshBuild) {
  // warm_start=false is the ablation/fallback path: it must reproduce a
  // freshly constructed index exactly, including re-seeded RNG streams.
  const la::Matrix first = Clustered(150, 6, 33);
  const la::Matrix second = Clustered(150, 6, 34);
  const la::Matrix queries = Clustered(20, 6, 35);
  auto refreshed = MakeBackend(GetParam());
  refreshed->Add(first);
  RefreshOptions cold;
  cold.warm_start = false;
  EXPECT_FALSE(refreshed->Refresh(second, cold).warm);
  auto fresh = MakeBackend(GetParam());
  fresh->Add(second);
  ASSERT_EQ(refreshed->size(), fresh->size());
  ExpectIdenticalBatches(fresh->Search(queries, 8), refreshed->Search(queries, 8));
}

TEST_P(AllBackends, WarmRefreshObeysContractAndKeepsRecall) {
  // refresh(E) must behave like fresh-build(E): same-or-similar recall vs
  // exact truth on the drifted vectors (identical for the exact backends,
  // whose refresh has no structure to go stale).
  const la::Matrix data = Clustered(200, 8, 36);
  const la::Matrix drifted = Drifted(data, 37);
  const la::Matrix queries = Drifted(Clustered(25, 8, 38), 39);
  auto refreshed = MakeBackend(GetParam());
  refreshed->Add(data);
  const RefreshStats stats = refreshed->Refresh(drifted);
  EXPECT_EQ(refreshed->size(), 200u);
  auto fresh = MakeBackend(GetParam());
  fresh->Add(drifted);
  const double r_refresh = RecallVsFlat(*refreshed, drifted, queries, 5);
  const double r_fresh = RecallVsFlat(*fresh, drifted, queries, 5);
  if (IsExact(GetParam())) {
    EXPECT_DOUBLE_EQ(r_refresh, 1.0);
  } else {
    EXPECT_GT(r_refresh, 0.25) << "refreshed index below sanity floor";
    EXPECT_GE(r_refresh, r_fresh - 0.15)
        << "warm structure much worse than a fresh build";
  }
  (void)stats;
}

TEST_P(AllBackends, WarmRefreshIsBitIdenticalAcrossThreadCounts) {
  // The acceptance bar: Refresh at 0/2/8 threads produces the same bytes —
  // warm Lloyd, re-encoding, re-hashing and graph rebuild all preserve the
  // SetThreadPool determinism contract.
  const la::Matrix data = Clustered(250, 6, 40);
  const la::Matrix drifted = Drifted(data, 41);
  const la::Matrix queries = Clustered(24, 6, 42);

  auto inline_index = MakeBackend(GetParam());
  inline_index->Add(data);
  inline_index->Refresh(drifted);
  const SearchBatch expected = inline_index->Search(queries, 7);

  for (const size_t threads : {size_t{2}, size_t{8}}) {
    util::ThreadPool pool(threads);
    auto threaded = MakeBackend(GetParam());
    threaded->SetThreadPool(&pool);
    threaded->Add(data);
    threaded->Refresh(drifted);
    // Compare through an inline search so only the refresh path varies.
    threaded->SetThreadPool(nullptr);
    ExpectIdenticalBatches(expected, threaded->Search(queries, 7));
  }
}

TEST_P(AllBackends, WarmStateRoundTripMatchesLiveRefresh) {
  // Save/LoadWarmState is what AL checkpoints persist: an index rebuilt from
  // the serialized structure must refresh to exactly the same state as the
  // live index that kept its structure in memory.
  const la::Matrix data = Clustered(180, 6, 43);
  const la::Matrix drifted = Drifted(data, 44);
  const la::Matrix queries = Clustered(20, 6, 45);
  auto live = MakeBackend(GetParam());
  live->Add(data);

  const std::string path = test_internal::PrivateDir() + "/warm_state_" +
                           core::IndexBackendName(GetParam()) + ".bin";
  constexpr uint32_t kMagic = 0x57524d53;  // "WRMS"
  {
    util::BinaryWriter writer(path, kMagic, 1);
    live->SaveWarmState(writer);
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto restored = MakeBackend(GetParam());
  {
    util::BinaryReader reader(path, kMagic, 1);
    ASSERT_TRUE(reader.status().ok());
    ASSERT_TRUE(restored->LoadWarmState(reader).ok());
  }

  live->Refresh(drifted);
  restored->Refresh(drifted);
  ASSERT_EQ(restored->size(), live->size());
  ExpectIdenticalBatches(live->Search(queries, 8), restored->Search(queries, 8));
  std::remove(path.c_str());
}

TEST(RefreshDriftFallback, QuantizersRetrainPastThreshold) {
  // Scale+shift the data so the trained codebooks/ranges are badly wrong;
  // the drift check must trip and hand back fresh-build quality.
  const la::Matrix data = Clustered(200, 8, 46);
  la::Matrix shifted = data;
  for (size_t i = 0; i < shifted.size(); ++i) {
    shifted.data()[i] = shifted.data()[i] * 3.0f + 25.0f;
  }
  for (const auto backend :
       {core::IndexBackend::kPq, core::IndexBackend::kSq,
        core::IndexBackend::kIvfPq}) {
    auto index = MakeBackend(backend);
    index->Add(data);
    RefreshOptions options;
    options.drift_threshold = 1.5;
    const RefreshStats stats = index->Refresh(shifted, options);
    EXPECT_TRUE(stats.retrained) << core::IndexBackendName(backend);
    EXPECT_FALSE(stats.warm) << core::IndexBackendName(backend);
    EXPECT_GT(stats.drift, 1.5) << core::IndexBackendName(backend);

    // Disabled check (<= 0): the same drift is silently absorbed.
    auto tolerant = MakeBackend(backend);
    tolerant->Add(data);
    RefreshOptions off;
    off.drift_threshold = 0.0;
    const RefreshStats kept = tolerant->Refresh(shifted, off);
    EXPECT_FALSE(kept.retrained) << core::IndexBackendName(backend);
    EXPECT_TRUE(kept.warm) << core::IndexBackendName(backend);
  }
}

TEST_P(AllBackends, QueryEqualToDatabaseVectorRanksItFirst) {
  // Exact backends must put the identical vector at rank 0 with distance ~0;
  // quantized ones must still place it among the closest few.
  const la::Matrix data = Clustered(100, 4, 14);
  auto index = MakeBackend(GetParam());
  index->Add(data);
  la::Matrix query(1, kDim);
  std::copy(data.row(42), data.row(42) + kDim, query.row(0));
  const auto results = index->Search(query, 10);
  ASSERT_FALSE(results[0].empty());
  if (IsExact(GetParam())) {
    EXPECT_EQ(results[0][0].id, 42);
    EXPECT_NEAR(results[0][0].distance, 0.0f, 1e-4f);
  } else {
    bool found = false;
    for (const Neighbor& nb : results[0]) found = found || nb.id == 42;
    EXPECT_TRUE(found) << "identical vector missing from top-10";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, AllBackends,
    testing::ValuesIn(core::AllIndexBackends()),
    [](const testing::TestParamInfo<IndexBackend>& info) {
      return core::IndexBackendName(info.param);
    });

}  // namespace
}  // namespace dial::index
