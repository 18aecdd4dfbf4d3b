// al_smoke: the DIAL active-learning run `dial_cli run` makes with its
// shipped defaults (walmart_amazon at smoke scale, kDial blocking,
// uncertainty selector, flat backend, inference engine, fp32), with the
// workload seed as the AL seed. The pretrained TPLM comes from the build's
// own model cache, filled by `perfbench prepare`.
//
// Timed run: set-up is PrepareExperiment with a cache hit (repeated,
// median); then the same AL run is repeated for most of the budget and its
// median wall time reported, and the rest of the budget repeats the run's
// final blocking+matching pass with the last run's models. Traced run: one
// AL run, with the Table 9 phase breakdown the loop already records in its
// RoundMetrics turned into per-layer self times.

#include <cstdio>
#include <cstring>

#include "core/encodings.h"
#include "core/experiment.h"
#include "core/ibc.h"
#include "serve/serving_bundle.h"
#include "trace.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr const char* kDataset = "walmart_amazon";
/// Whole AL runs per timed run, at least; they get this share of the budget.
constexpr size_t kMinRuns = 1;
constexpr double kRunShare = 0.7;
/// Final blocking+matching passes per timed run, at least; they get the rest.
constexpr size_t kMinPasses = 5;

dial::core::ExperimentConfig AlExperimentConfig(const std::string& artifacts) {
  dial::core::ExperimentConfig config;  // what dial_cli run builds
  config.scale = dial::data::Scale::kSmoke;
  config.cache_dir = artifacts + "/model_cache";
  return config;
}

/// The final pass of ActiveLearningLoop::Run() (Table 2's RT), through the
/// same public calls, with the run's released models: embed every R and S
/// record, block with the committee's indexes (built from scratch), match
/// the candidates. Each pass tokenizes its pairs into a fresh cache. Returns
/// the candidates' probabilities.
std::vector<float> BlockAndMatch(const dial::core::Experiment& exp,
                                 const dial::core::AlConfig& al,
                                 const dial::core::RecordEncodings& encodings,
                                 dial::core::TrainedModels& models) {
  std::vector<const dial::text::EncodedSequence*> r_seqs, s_seqs;
  for (size_t i = 0; i < encodings.r_size(); ++i) r_seqs.push_back(&encodings.R(i));
  for (size_t i = 0; i < encodings.s_size(); ++i) s_seqs.push_back(&encodings.S(i));
  dial::core::IbcConfig ibc;
  ibc.k_neighbors = al.k_neighbors;
  ibc.cand_size = al.cand_size_override > 0
                      ? al.cand_size_override
                      : static_cast<size_t>(al.cand_multiplier *
                                            static_cast<double>(exp.bundle.s_table.size()));
  ibc.backend = al.index_backend;
  ibc.refresh = al.refresh;
  const dial::la::Matrix emb_r = models.matcher->EmbedSingleMode(r_seqs);
  const dial::la::Matrix emb_s = models.matcher->EmbedSingleMode(s_seqs);
  const std::vector<dial::core::Candidate> cand =
      dial::core::IndexByCommittee(*models.committee, emb_r, emb_s, ibc);
  dial::core::PairEncodingCache pairs(&exp.bundle, &exp.vocab,
                                      exp.pretrained->config().max_pair_len);
  return models.matcher->PredictProbs(pairs, dial::core::CandidatePairs(cand));
}

}  // namespace

Result RunAlSmoke(const RunOptions& options) {
  Result result;
  const dial::core::ExperimentConfig config = AlExperimentConfig(options.artifacts);
  const int64_t budget_start = NowNs();

  const size_t setups = options.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  dial::core::Experiment exp;
  int64_t setup_start = 0;
  for (size_t rep = 0; rep < setups; ++rep) {
    setup_start = NowNs();
    exp = dial::core::PrepareExperiment(kDataset, config);
    setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
    result.Check(exp.pretrain_cache_hit,
                 "set-up missed the model cache (run `perfbench prepare` first)");
  }

  // The same run, repeated: identical inputs, so its outputs must repeat
  // exactly and its wall times differ only by the machine.
  const dial::core::AlConfig al = dial::core::DefaultAlConfig(config.scale, options.seed);
  std::vector<double> run_s;
  dial::core::AlResult run;
  dial::core::TrainedModels models;
  int64_t run_start = 0;
  int64_t run_end = 0;
  const auto budget_point = [&](double share) {
    return budget_start + static_cast<int64_t>(share * options.seconds * 1e9);
  };
  const size_t min_runs = options.trace ? 1 : kMinRuns;
  while (run_s.size() < min_runs ||
         (!options.trace && run_end + (run_end - run_start) <= budget_point(kRunShare))) {
    // The previous run's models go first, so the peak memory does not
    // depend on how many runs fit the budget.
    models = dial::core::TrainedModels();
    dial::core::ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), al);
    run_start = NowNs();
    dial::core::AlResult next = loop.Run();
    run_end = NowNs();
    run_s.push_back(static_cast<double>(run_end - run_start) / 1e9);
    models = loop.ReleaseTrainedModels();
    ++result.attempted;
    if (run_s.size() > 1) {
      const bool same = next.final_cand_recall == run.final_cand_recall &&
                        next.final_allpairs.f1 == run.final_allpairs.f1 &&
                        next.labels_used == run.labels_used;
      result.Check(same, "AL run " + std::to_string(run_s.size()) +
                             " does not repeat the first run's recall/F1/labels");
      if (!same) ++result.failed;
    }
    run = std::move(next);
  }

  // Checks: every round runs on its full label budget and the phase times
  // fit inside the run's wall time.
  result.Check(run.rounds.size() == al.rounds, "AL run stopped early");
  result.Check(run.labels_used == al.rounds * al.budget_per_round,
               "labels used " + std::to_string(run.labels_used) + " != budget");
  result.Check(run.final_cand_recall > 0.0, "candidate recall is zero");

  dial::core::RoundMetrics sum;
  size_t train_pairs = 0;
  for (const auto& r : run.rounds) {
    sum.t_train_matcher += r.t_train_matcher;
    sum.t_train_committee += r.t_train_committee;
    sum.t_embed += r.t_embed;
    sum.t_index_retrieve += r.t_index_retrieve;
    sum.t_index_build += r.t_index_build;
    sum.t_select += r.t_select;
    sum.t_predict += r.t_predict;
    train_pairs += r.labels_in_t;
  }
  // Self times: each enclosing phase minus the phase nested in it.
  const double last_run_s = run_s.back();
  const double committee_self = sum.t_train_committee - sum.t_embed;
  const double retrieve_self = sum.t_index_retrieve - sum.t_index_build;
  const double select_self = sum.t_select - sum.t_predict;
  const double untimed = last_run_s - sum.t_train_matcher - sum.t_train_committee -
                         sum.t_index_retrieve - sum.t_select - run.block_match_seconds;
  result.Check(untimed >= 0.0 && committee_self >= 0.0 && retrieve_self >= 0.0 &&
                   select_self >= 0.0,
               "phase times do not reconcile with the run's wall time");

  std::printf("[al_smoke] seed %llu: %zu rounds, cand recall %.1f%%, all-pairs F1 %.1f%%, "
              "labels %zu, %zu candidates\n",
              static_cast<unsigned long long>(options.seed), run.rounds.size(),
              100 * run.final_cand_recall, 100 * run.final_allpairs.f1, run.labels_used,
              run.rounds.back().cand_size);
  std::printf("  al_run_s over %zu runs:", run_s.size());
  for (const double s : run_s) std::printf(" %.3f", s);
  std::printf(" (median %.3f, p90 %.3f)\n", Median(run_s), Percentile(run_s, 0.9));

  if (!options.trace) {
    // The final blocking+matching pass, repeated with the last run's models
    // for the rest of the budget; its outputs must repeat bit for bit.
    const dial::core::RecordEncodings encodings(exp.bundle, exp.vocab,
                                                exp.pretrained->config().max_single_len);
    std::vector<double> pass_s;
    std::vector<float> first_probs;
    size_t differing = 0;
    int64_t pass_start = 0;
    int64_t pass_end = 0;
    while (pass_s.size() < kMinPasses || pass_end + (pass_end - pass_start) <= budget_point(1.0)) {
      pass_start = NowNs();
      const std::vector<float> probs = BlockAndMatch(exp, al, encodings, models);
      pass_end = NowNs();
      pass_s.push_back(static_cast<double>(pass_end - pass_start) / 1e9);
      if (pass_s.size() == 1) {
        first_probs = probs;
      } else if (probs.size() != first_probs.size() ||
                 std::memcmp(probs.data(), first_probs.data(), probs.size() * sizeof(float)) !=
                     0) {
        ++differing;
      }
    }
    result.Check(differing == 0, std::to_string(differing) +
                                     " block+match passes differ from the first pass");
    result.Check(!first_probs.empty(), "block+match produced no candidates");
    const double cand = static_cast<double>(first_probs.size());
    std::printf("  block+match over %zu passes of %zu candidates: median %.4f s, p90 %.4f s "
                "(the run's own final pass: %.4f s)\n",
                pass_s.size(), first_probs.size(), Median(pass_s), Percentile(pass_s, 0.9),
                run.block_match_seconds);

    uint64_t probs_hash = 1469598103934665603ull;  // FNV-1a over the probabilities' bits
    for (const float p : first_probs) {
      uint32_t bits;
      std::memcpy(&bits, &p, sizeof(bits));
      probs_hash = (probs_hash ^ bits) * 1099511628211ull;
    }
    result.outputs = dial::util::StrFormat(
        "cand_recall %.17g allpairs_f1 %.17g labels %zu block+match %zu probs %016llx",
        run.final_cand_recall, run.final_allpairs.f1, run.labels_used, first_probs.size(),
        static_cast<unsigned long long>(probs_hash));
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("rss_mb", PeakRssMb(), "MB");
    result.Add("p50_ms", Median(run_s) * 1e3, "ms");
    result.Add("ops_per_s", cand / Median(pass_s), "1/s");
    return result;
  }

  // The spans the benchmark itself can time; the phase split inside Run()
  // comes from the loop's own timers.
  Tracer tracer;
  tracer.Record("core.experiment.prepare", setup_start,
                setup_start + static_cast<int64_t>(setup_s[0] * 1e9), -1, -1);
  tracer.Record("core.al_loop.run", run_start, run_end, -1, -1);
  const std::string trace_path =
      options.artifacts + "/trace-al_smoke-" + std::to_string(options.seed) + ".jsonl";
  result.Check(tracer.WriteJsonLines(trace_path), "cannot write " + trace_path);

  struct Row {
    const char* name;
    double value;
    const char* unit;
  };
  const Row rows[] = {
      {"core.experiment.prepare_s", setup_s[0], "s"},
      {"tplm.cache_hit", exp.pretrain_cache_hit ? 1.0 : 0.0, "count"},
      {"core.al_loop.run_s", last_run_s, "s"},
      {"core.matcher.train_s", sum.t_train_matcher, "s"},
      {"core.committee.train_s", committee_self, "s"},
      {"core.matcher.embed_s", sum.t_embed, "s"},
      {"core.ibc.retrieve_s", retrieve_self, "s"},
      {"index.build_s", sum.t_index_build, "s"},
      {"core.matcher.predict_s", sum.t_predict, "s"},
      {"core.selectors.select_s", select_self, "s"},
      {"core.al_loop.block_match_s", run.block_match_seconds, "s"},
      {"core.al_loop.untimed_s", untimed, "s"},
      {"core.al_loop.rounds", static_cast<double>(run.rounds.size()), "count"},
      {"core.matcher.train_pairs", static_cast<double>(train_pairs), "count"},
      {"core.ibc.cand", static_cast<double>(run.rounds.back().cand_size), "count"},
      {"core.ibc.cand_recall", run.final_cand_recall, "frac"},
      {"core.al_loop.allpairs_f1", run.final_allpairs.f1, "frac"},
  };
  for (const Row& row : rows) {
    result.Add(std::string("al_smoke.") + row.name, row.value, row.unit);
  }
  std::printf("  traced: prepare %.3f s, run %.3f s = matcher.train %.3f + committee.train "
              "%.3f + matcher.embed %.3f + ibc.retrieve %.3f + index.build %.3f + "
              "matcher.predict %.3f + selectors.select %.3f + block_match %.3f + untimed "
              "%.3f; spans in %s\n",
              setup_s[0], last_run_s, sum.t_train_matcher, committee_self, sum.t_embed,
              retrieve_self, sum.t_index_build, sum.t_predict, select_self,
              run.block_match_seconds, untimed, trace_path.c_str());
  return result;
}

bool Prepare(const std::string& artifacts) {
  const std::string bundle_path = BundlePath(artifacts);
  const int64_t t0 = NowNs();
  const dial::core::Experiment exp =
      dial::core::PrepareExperiment(kDataset, AlExperimentConfig(artifacts));
  const int64_t t1 = NowNs();
  // ServingBundle::Train pretrains through the default cache, which
  // DIAL_CACHE_DIR points at this build's own directory (set by run.py).
  dial::serve::ServingOptions serving;  // dial_serve's defaults
  auto bundle = dial::serve::ServingBundle::Train(serving);
  const dial::util::Status saved = bundle->Save(bundle_path);
  const int64_t t2 = NowNs();
  std::printf("prepare: dial_cli-config smoke pretrain %.1f s (cache %s), serving bundle train+save "
              "%.1f s -> %s\n",
              static_cast<double>(t1 - t0) / 1e9, exp.pretrain_cache_hit ? "hit" : "miss",
              static_cast<double>(t2 - t1) / 1e9, bundle_path.c_str());
  if (!saved.ok()) std::fprintf(stderr, "prepare: %s\n", saved.ToString().c_str());
  return saved.ok();
}

}  // namespace perfbench
