// Dispatch-tier microbenchmarks: the same binary's scalar / AVX2 / AVX-512
// kernel instantiations (src/la/arch.h) measured against each other on the
// three hot paths the dispatch layer covers — blocked GEMM, the PQ ADC scan,
// and matcher pool scoring. CI's bench-smoke job archives the records as
// BENCH_arch.json, so "what does runtime dispatch buy on this machine" is a
// diffable number rather than folklore.
//
// Outputs are checked bit-identical across tiers before anything is timed
// (the arch.h contract). Serve-level QPS (the full socket + scheduler stack) lives in bench_serve;
// the matcher-scoring rows here isolate the per-worker compute those
// requests bottleneck on.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "core/encodings.h"
#include "core/matcher.h"
#include "data/registry.h"
#include "la/arch.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "text/vocab.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using dial::la::Matrix;
namespace arch = dial::la::arch;

/// Best-of-`reps` wall milliseconds.
template <typename Fn>
double BestMs(size_t reps, Fn fn) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    dial::util::WallTimer timer;
    fn();
    best = std::min(best, timer.Seconds() * 1000.0);
  }
  return best;
}

double Gflops(size_t m, size_t n, size_t k, double ms) {
  return ms > 0.0 ? 2.0 * static_cast<double>(m * n * k) / (ms * 1e6) : 0.0;
}

double PerSecond(size_t n, double ms) {
  return ms > 0.0 ? static_cast<double>(n) * 1000.0 / ms : 0.0;
}

Matrix Random(size_t rows, size_t cols, uint64_t seed) {
  dial::util::Rng rng(seed);
  Matrix m(rows, cols);
  m.RandNormal(rng, 1.0f);
  return m;
}

bool BitIdentical(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// RAII: restore the DIAL_FORCE_ARCH / detected policy when a scope ends.
struct TierGuard {
  ~TierGuard() { arch::ResetTierFromEnv(); }
};

}  // namespace

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* scale = flags.AddString("scale", "smoke", "smoke|small|medium");
  int64_t* threads =
      flags.AddInt("threads", 2, "worker threads for the pooled GEMM column");
  int64_t* reps = flags.AddInt("reps", 5, "repetitions (best-of)");
  std::string* json_out = flags.AddString(
      "json_out", "", "also write machine-readable records (JSON array) here");
  flags.Parse(argc, argv);

  size_t gemm_dim = 256;
  size_t adc_codes = 8192;
  size_t n_r = 40, n_s = 26;  // 1040 matcher pairs at smoke
  if (*scale == "small") {
    gemm_dim = 384;
    adc_codes = 20000;
    n_r = 56;
    n_s = 36;
  } else if (*scale == "medium") {
    gemm_dim = 512;
    adc_codes = 50000;
    n_r = 80;
    n_s = 50;
  }
  const size_t n_reps = static_cast<size_t>(*reps);
  const std::vector<arch::Tier> tiers = arch::SupportedTiers();
  TierGuard guard;

  dial::bench::PrintHeader(
      "Arch dispatch: one binary's scalar/AVX2/AVX-512 kernel tiers",
      "runtime substrate — not a paper table");
  std::printf("detected tier: %s; runnable tiers:", arch::TierName(arch::DetectedTier()));
  for (arch::Tier t : tiers) std::printf(" %s", arch::TierName(t));
  std::printf("\ngemm %zux%zux%zu, adc scan %zu codes, matcher pairs %zu "
              "(ms = best of %zu)\n\n",
              gemm_dim, gemm_dim, gemm_dim, adc_codes, n_r * n_s, n_reps);

  dial::util::ThreadPool pool(static_cast<size_t>(*threads));
  dial::bench::BenchJsonWriter json;

  // ------------------------------------------------------------------ GEMM
  {
    const size_t d = gemm_dim;
    const Matrix a = Random(d, d, 1);
    const Matrix b = Random(d, d, 2);
    Matrix out(d, d);
    Matrix scalar_out(d, d);

    dial::util::TablePrinter table(
        {"gemm tier", "ms", "pooled ms", "GFLOP/s", "vs scalar"});
    double scalar_ms = 0.0;
    for (arch::Tier tier : tiers) {
      dial::util::WallTimer total;
      arch::SetTier(tier);
      const double ms = BestMs(n_reps, [&] {
        out.Zero();
        dial::la::MatMulAcc(a, b, out);
      });
      if (tier == arch::Tier::kScalar) {
        scalar_ms = ms;
        scalar_out = out;
      } else {
        DIAL_CHECK(BitIdentical(out.data(), scalar_out.data(), out.size()))
            << arch::TierName(tier) << " GEMM diverged from scalar";
      }
      const double pooled_ms = BestMs(n_reps, [&] {
        out.Zero();
        dial::la::MatMulAcc(a, b, out, &pool);
      });
      DIAL_CHECK(BitIdentical(out.data(), scalar_out.data(), out.size()))
          << arch::TierName(tier) << " pooled GEMM diverged";
      const double speedup = ms > 0.0 ? scalar_ms / ms : 0.0;
      table.AddRow({arch::TierName(tier), dial::util::TablePrinter::Num(ms, 2),
                    dial::util::TablePrinter::Num(pooled_ms, 2),
                    dial::util::TablePrinter::Num(Gflops(d, d, d, ms), 2),
                    dial::util::TablePrinter::Num(speedup, 2)});
      json.Add("arch",
               {{"op", "gemm_nn"},
                {"tier", arch::TierName(tier)},
                {"scale", *scale},
                {"m", std::to_string(d)},
                {"threads", std::to_string(*threads)}},
               {{"ms", ms},
                {"pooled_ms", pooled_ms},
                {"gflops", Gflops(d, d, d, ms)},
                {"speedup_vs_scalar", speedup}},
               total.Seconds() * 1000.0);
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  // -------------------------------------------------------------- ADC scan
  {
    const size_t m_sub = 16;    // subspaces (PQ default shape)
    const size_t ksub = 256;    // centroids per subspace
    const size_t n = adc_codes;
    const Matrix lut = Random(m_sub, ksub, 5);
    dial::util::Rng rng(6);
    std::vector<uint8_t> codes(n * m_sub);
    for (auto& c : codes) c = static_cast<uint8_t>(rng.UniformInt(ksub));
    std::vector<float> out(n), scalar_ref(n);

    dial::util::TablePrinter table({"adc tier", "ms", "Mcodes/s", "vs scalar"});
    double scalar_ms = 0.0;
    for (arch::Tier tier : tiers) {
      dial::util::WallTimer total;
      arch::SetTier(tier);
      const double ms = BestMs(n_reps, [&] {
        dial::la::kernels::AdcDistanceScan(lut.data(), ksub, codes.data(),
                                           m_sub, n, out.data());
      });
      if (tier == arch::Tier::kScalar) {
        scalar_ms = ms;
        scalar_ref = out;
      } else {
        DIAL_CHECK(BitIdentical(out.data(), scalar_ref.data(), n))
            << arch::TierName(tier) << " ADC scan diverged from scalar";
      }
      const double speedup = ms > 0.0 ? scalar_ms / ms : 0.0;
      table.AddRow({arch::TierName(tier), dial::util::TablePrinter::Num(ms, 3),
                    dial::util::TablePrinter::Num(PerSecond(n, ms) / 1e6, 1),
                    dial::util::TablePrinter::Num(speedup, 2)});
      json.Add("arch",
               {{"op", "adc_scan"},
                {"tier", arch::TierName(tier)},
                {"scale", *scale},
                {"codes", std::to_string(n)},
                {"subspaces", std::to_string(m_sub)}},
               {{"ms", ms},
                {"mcodes_per_s", PerSecond(n, ms) / 1e6},
                {"speedup_vs_scalar", speedup}},
               total.Seconds() * 1000.0);
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  // -------------------------------------------------- matcher pool scoring
  // The serving/selection hot loop: engine-batched PredictProbs over a
  // >= 1k-pair pool, per tier. Untrained weights — throughput depends on
  // shapes only.
  {
    const auto bundle =
        dial::data::MakeDataset("dblp_acm", dial::data::Scale::kSmoke, 17);
    const auto vocab = dial::text::SubwordVocab::Train(
        bundle.CorpusLines(), dial::text::SubwordVocab::Options{});
    dial::tplm::TplmConfig config;
    config.transformer.vocab_size = vocab.size();
    dial::core::Matcher matcher(config, dial::core::MatcherConfig{}, 5);

    std::vector<dial::data::PairId> pairs;
    for (uint32_t r = 0; r < n_r && r < bundle.r_table.size(); ++r) {
      for (uint32_t s = 0; s < n_s && s < bundle.s_table.size(); ++s) {
        pairs.push_back({r, s});
      }
    }
    dial::core::PairEncodingCache cache(&bundle, &vocab, config.max_pair_len);
    matcher.PredictProbs(cache, pairs);  // warm the tokenization cache

    // Parity across tiers before timing.
    arch::SetTier(arch::Tier::kScalar);
    const std::vector<float> scalar_probs = matcher.PredictProbs(cache, pairs);
    for (arch::Tier tier : tiers) {
      arch::SetTier(tier);
      const std::vector<float> probs = matcher.PredictProbs(cache, pairs);
      DIAL_CHECK(BitIdentical(probs.data(), scalar_probs.data(), probs.size()))
          << arch::TierName(tier) << " matcher scoring diverged from scalar";
    }

    dial::util::TablePrinter table(
        {"matcher tier", "ms", "pairs/s", "vs scalar"});
    double scalar_ms = 0.0;
    for (arch::Tier tier : tiers) {
      dial::util::WallTimer total;
      arch::SetTier(tier);
      const double ms =
          BestMs(n_reps, [&] { matcher.PredictProbs(cache, pairs); });
      if (tier == arch::Tier::kScalar) scalar_ms = ms;
      const double speedup = ms > 0.0 ? scalar_ms / ms : 0.0;
      table.AddRow({arch::TierName(tier), dial::util::TablePrinter::Num(ms, 1),
                    dial::util::TablePrinter::Num(PerSecond(pairs.size(), ms), 0),
                    dial::util::TablePrinter::Num(speedup, 2)});
      json.Add("arch",
               {{"op", "matcher_predict"},
                {"tier", arch::TierName(tier)},
                {"scale", *scale},
                {"pairs", std::to_string(pairs.size())}},
               {{"ms", ms},
                {"pairs_per_s", PerSecond(pairs.size(), ms)},
                {"speedup_vs_scalar", speedup}},
               total.Seconds() * 1000.0);
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  std::printf("rows are bit-identical across tiers (checked before timing)\n");
  if (!json.WriteTo(*json_out)) return 1;
  return 0;
}
