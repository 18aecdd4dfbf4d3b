// Inference-engine microbenchmarks on the two pool-facing hot loops —
// matcher PredictProbs over a >= 1k-pair candidate set and single-mode
// embedding of every record — with the cross-sequence-batching axis
// (batched vs packs of one) and the pooled-thread axis. CI's bench-smoke job
// archives the records as BENCH_infer.json.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/encodings.h"
#include "core/matcher.h"
#include "data/registry.h"
#include "text/vocab.h"
#include "util/thread_pool.h"

namespace {

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

double PerSecond(size_t n, double ms) {
  return ms > 0.0 ? static_cast<double>(n) * 1000.0 / ms : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* scale = flags.AddString("scale", "smoke", "smoke|small|medium");
  int64_t* threads =
      flags.AddInt("threads", 2, "worker threads for the pooled columns");
  int64_t* reps = flags.AddInt("reps", 3, "repetitions (best-of)");
  std::string* json_out = flags.AddString(
      "json_out", "", "also write machine-readable records (JSON array) here");
  flags.Parse(argc, argv);

  size_t n_r = 40;
  size_t n_s = 26;  // 40 x 26 = 1040 pairs >= the 1k acceptance floor
  if (*scale == "small") {
    n_r = 56;
    n_s = 36;
  } else if (*scale == "medium") {
    n_r = 80;
    n_s = 50;
  }
  const size_t n_reps = static_cast<size_t>(*reps);

  dial::bench::PrintHeader(
      "Inference micro: tape-free batched engine, batching and pooled axes",
      "runtime substrate of Table 9 predict/embed — not a paper table");

  // Realistic record text (the dblp_acm generator), one untrained matcher:
  // throughput depends on shapes, not the weight values.
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
  dial::core::RecordEncodings encodings(bundle, vocab, config.max_single_len);
  std::vector<const dial::text::EncodedSequence*> records;
  for (size_t i = 0; i < encodings.r_size(); ++i) records.push_back(&encodings.R(i));
  for (size_t i = 0; i < encodings.s_size(); ++i) records.push_back(&encodings.S(i));

  std::printf("pairs=%zu records=%zu dim=%zu layers=%zu threads=%zu (best of %zu)\n\n",
              pairs.size(), records.size(), config.transformer.dim,
              config.transformer.num_layers, static_cast<size_t>(*threads),
              n_reps);

  dial::util::ThreadPool pool(static_cast<size_t>(*threads));
  dial::bench::BenchJsonWriter json;

  // Warm the tokenization cache so every column times pure model forwards.
  matcher.PredictProbs(cache, pairs);

  // ------------------------------------------------- matcher PredictProbs
  {
    dial::util::WallTimer total;
    const double engine_ms =
        BestMs(n_reps, [&] { matcher.PredictProbs(cache, pairs); });
    matcher.SetThreadPool(&pool);
    const double engine_pool_ms =
        BestMs(n_reps, [&] { matcher.PredictProbs(cache, pairs); });
    matcher.SetThreadPool(nullptr);

    const double pool_speedup =
        engine_pool_ms > 0.0 ? engine_ms / engine_pool_ms : 0.0;
    dial::util::TablePrinter table(
        {"op", "engine ms", "pooled ms", "pairs/s", "pooled speedup"});
    table.AddRow({"predict_probs", dial::util::TablePrinter::Num(engine_ms, 1),
                  dial::util::TablePrinter::Num(engine_pool_ms, 1),
                  dial::util::TablePrinter::Num(PerSecond(pairs.size(), engine_ms), 0),
                  dial::util::TablePrinter::Num(pool_speedup, 2)});
    std::printf("%s\n", table.ToString().c_str());

    json.Add("infer_micro",
             {{"op", "matcher_predict"},
              {"scale", *scale},
              {"pairs", std::to_string(pairs.size())},
              {"threads", std::to_string(*threads)}},
             {{"engine_ms", engine_ms},
              {"engine_pool_ms", engine_pool_ms},
              {"pairs_per_s_engine", PerSecond(pairs.size(), engine_ms)},
              {"speedup_pooled", pool_speedup}},
             total.Seconds() * 1000.0);
  }

  // ----------------------------------------- cross-sequence batching axis
  {
    dial::util::WallTimer total;
    const double batched_ms =
        BestMs(n_reps, [&] { matcher.PredictProbs(cache, pairs); });
    std::vector<dial::data::PairId> one(1);
    const double single_ms = BestMs(n_reps, [&] {
      for (const auto& pair : pairs) {
        one[0] = pair;
        matcher.PredictProbs(cache, one);
      }
    });
    const double batch_speedup = batched_ms > 0.0 ? single_ms / batched_ms : 0.0;
    dial::util::TablePrinter table(
        {"op", "one-at-a-time ms", "batched ms", "batch speedup"});
    table.AddRow({"predict_probs", dial::util::TablePrinter::Num(single_ms, 1),
                  dial::util::TablePrinter::Num(batched_ms, 1),
                  dial::util::TablePrinter::Num(batch_speedup, 2)});
    std::printf("%s\n", table.ToString().c_str());

    json.Add("infer_micro",
             {{"op", "batched_vs_single"},
              {"scale", *scale},
              {"pairs", std::to_string(pairs.size())},
              {"threads", std::to_string(*threads)}},
             {{"single_ms", single_ms},
              {"batched_ms", batched_ms},
              {"speedup_batched", batch_speedup}},
             total.Seconds() * 1000.0);
  }

  // ------------------------------------------------- single-mode embedding
  {
    dial::util::WallTimer total;
    const double engine_ms =
        BestMs(n_reps, [&] { matcher.EmbedSingleMode(records); });
    matcher.SetThreadPool(&pool);
    const double engine_pool_ms =
        BestMs(n_reps, [&] { matcher.EmbedSingleMode(records); });
    matcher.SetThreadPool(nullptr);

    const double pool_speedup =
        engine_pool_ms > 0.0 ? engine_ms / engine_pool_ms : 0.0;
    dial::util::TablePrinter table(
        {"op", "engine ms", "pooled ms", "records/s", "pooled speedup"});
    table.AddRow({"embed_single", dial::util::TablePrinter::Num(engine_ms, 1),
                  dial::util::TablePrinter::Num(engine_pool_ms, 1),
                  dial::util::TablePrinter::Num(PerSecond(records.size(), engine_ms), 0),
                  dial::util::TablePrinter::Num(pool_speedup, 2)});
    std::printf("%s\n", table.ToString().c_str());

    json.Add("infer_micro",
             {{"op", "embed_single_mode"},
              {"scale", *scale},
              {"records", std::to_string(records.size())},
              {"threads", std::to_string(*threads)}},
             {{"engine_ms", engine_ms},
              {"engine_pool_ms", engine_pool_ms},
              {"records_per_s_engine", PerSecond(records.size(), engine_ms)},
              {"speedup_pooled", pool_speedup}},
             total.Seconds() * 1000.0);
  }

  if (!json.WriteTo(*json_out)) return 1;
  return 0;
}
