// dial — command-line driver for the library.
//
// Subcommands:
//   dial datasets [--scale=smoke]
//       Table-1 style statistics for every registered dataset (including
//       dirty_* variants on request via --datasets).
//   dial run [--dataset=...] [--blocking=dial] [--selector=uncertainty] ...
//       One full active-learning session with every knob exposed: blocking
//       strategy, selector, index backend, committee size/objective/negative
//       source, candidate sizing, and checkpointing (--checkpoint path;
//       --resume to continue a previous session).
//   dial jedai [--dataset=...] [--weighting=js] [--pruning=wep]
//       The classical JedAI-style pipelines (schema-agnostic meta-blocking
//       and schema-based q-gram join) with scheme selection.
//
// Everything the bench harnesses exercise is reachable from here, which is
// what makes the repo usable as a tool rather than only as a library.

#include <cstdio>
#include <cstring>
#include <memory>

#include "baselines/jedai.h"
#include "baselines/rules.h"
#include "core/checkpoint.h"
#include "core/experiment.h"
#include "data/record_pack.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/table_printer.h"

namespace {

int CmdDatasets(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* scale_text = flags.AddString("scale", "smoke", "smoke|small|medium");
  std::string* datasets = flags.AddString(
      "datasets", "", "comma-separated names; default = all registered");
  int64_t* seed = flags.AddInt("seed", 1, "generator seed");
  std::string* pack = flags.AddString(
      "pack", "",
      "convert to record packs: with --pack_records=0, write each listed "
      "dataset's tables to <pack><name>.{r,s}.pack; with --pack_records=N, "
      "stream N synthetic records to <pack> instead (O(1) memory)");
  int64_t* pack_records = flags.AddInt(
      "pack_records", 0, "synthetic record count for --pack (0 = pack tables)");
  flags.Parse(argc, argv);
  const auto scale = dial::data::ParseScale(*scale_text);

  if (!pack->empty() && *pack_records > 0) {
    const dial::util::Status status = dial::data::WriteSyntheticPack(
        *pack, static_cast<size_t>(*pack_records), static_cast<uint64_t>(*seed));
    if (!status.ok()) {
      std::fprintf(stderr, "pack failed: %s\n", status.ToString().c_str());
      return 1;
    }
    dial::data::RecordPackReader reader;
    DIAL_CHECK_OK(reader.Open(*pack));
    std::printf("wrote %zu synthetic records to %s (%zu attrs)\n",
                reader.size(), pack->c_str(), reader.schema().size());
    return 0;
  }

  std::vector<std::string> names = datasets->empty()
                                       ? dial::data::AllDatasetNames()
                                       : dial::util::Split(*datasets, ",");
  dial::util::TablePrinter table(
      {"Dataset", "|R|", "|S|", "|dups|", "dup rate", "|Dtest|"});
  for (const std::string& name : names) {
    const auto bundle =
        dial::data::MakeDataset(name, scale, static_cast<uint64_t>(*seed));
    const auto stats = dial::data::ComputeStats(bundle);
    table.AddRow({stats.name, std::to_string(stats.r_size),
                  std::to_string(stats.s_size), std::to_string(stats.num_dups),
                  dial::util::StrFormat("%.1e", stats.dup_rate),
                  std::to_string(stats.test_size)});
    if (!pack->empty()) {
      const std::pair<const char*, const dial::data::Table*> sides[] = {
          {"r", &bundle.r_table}, {"s", &bundle.s_table}};
      for (const auto& [side, t] : sides) {
        const std::string path = *pack + name + "." + side + ".pack";
        const dial::util::Status status = dial::data::WriteTablePack(path, *t);
        if (!status.ok()) {
          std::fprintf(stderr, "pack failed: %s\n", status.ToString().c_str());
          return 1;
        }
        std::printf("packed %s -> %s\n", name.c_str(), path.c_str());
      }
    }
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int CmdRun(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* dataset = flags.AddString("dataset", "walmart_amazon", "dataset name");
  std::string* scale_text = flags.AddString("scale", "smoke", "smoke|small|medium");
  std::string* blocking = flags.AddString(
      "blocking", "dial", "dial|paired_fixed|paired_adapt|sentence_bert|rules");
  std::string* selector = flags.AddString(
      "selector", "uncertainty",
      "random|greedy|uncertainty|qbc|partition2|partition4|badge|coreset|bald|diverse");
  std::string* backend = flags.AddString(
      "backend", "flat", "flat|ivf|lsh|pq|ivfpq|sq|hnsw|matmul");
  std::string* objective =
      flags.AddString("objective", "contrastive", "contrastive|triplet|classification");
  std::string* negatives = flags.AddString("negatives", "random", "random|labeled");
  int64_t* rounds = flags.AddInt("rounds", 0, "AL rounds (0 = scale default)");
  int64_t* budget = flags.AddInt("budget", 0, "labels per round (0 = default)");
  int64_t* committee = flags.AddInt("committee", 0, "committee size N (0 = default)");
  int64_t* k = flags.AddInt("k", 0, "neighbours per probe (0 = default)");
  double* cand_mult = flags.AddDouble("cand-mult", 0.0, "|cand| = mult*|S| (0 = default)");
  int64_t* threads =
      flags.AddInt("threads", 0, "blocking-step worker threads (0 = inline)");
  bool* refresh = flags.AddBool(
      "refresh", true,
      "warm-start blocker indexes across rounds (off = rebuild every round)");
  int64_t* refresh_iters = flags.AddInt(
      "refresh-iters", 5,
      "Lloyd iteration cap on warm-started IVF/IVFPQ centroids (early-stops "
      "on convergence)");
  double* drift = flags.AddDouble(
      "drift-threshold", 2.0,
      "retrain quantizers when refresh quantization error exceeds this x "
      "the trained error (<=0 disables the check)");
  int64_t* seed = flags.AddInt("seed", 7, "experiment seed");
  std::string* checkpoint =
      flags.AddString("checkpoint", "", "write a checkpoint here after each round");
  bool* resume = flags.AddBool("resume", false, "restore --checkpoint before running");
  flags.Parse(argc, argv);

  dial::core::ExperimentConfig exp_config;
  exp_config.scale = dial::data::ParseScale(*scale_text);
  // --threads also accelerates pretraining (cache misses only): the tape
  // GEMMs thread through this pool with bit-identical results, so the
  // on-disk model cache key is unaffected.
  std::unique_ptr<dial::util::ThreadPool> pretrain_pool;
  if (*threads > 0) {
    pretrain_pool =
        std::make_unique<dial::util::ThreadPool>(static_cast<size_t>(*threads));
    exp_config.pretrain.pool = pretrain_pool.get();
  }
  dial::core::Experiment exp = dial::core::PrepareExperiment(*dataset, exp_config);
  exp_config.pretrain.pool = nullptr;  // pool dies here; don't leave a trap
  pretrain_pool.reset();

  dial::core::AlConfig al =
      dial::core::DefaultAlConfig(exp_config.scale, static_cast<uint64_t>(*seed));
  al.blocking = *blocking == "rules"
                    ? dial::core::BlockingStrategy::kFixedExternal
                    : dial::core::ParseBlocking(*blocking);
  al.selector = dial::core::ParseSelector(*selector);
  al.index_backend = dial::core::ParseIndexBackend(*backend);
  al.blocker.objective = dial::core::ParseObjective(*objective);
  al.blocker.negatives = *negatives == "labeled"
                             ? dial::core::NegativeSource::kLabeled
                             : dial::core::NegativeSource::kRandom;
  if (*rounds > 0) al.rounds = static_cast<size_t>(*rounds);
  if (*budget > 0) al.budget_per_round = static_cast<size_t>(*budget);
  if (*committee > 0) al.blocker.committee_size = static_cast<size_t>(*committee);
  if (*k > 0) al.k_neighbors = static_cast<size_t>(*k);
  if (*cand_mult > 0) al.cand_multiplier = *cand_mult;
  if (*threads > 0) al.num_threads = static_cast<size_t>(*threads);
  al.index_refresh = *refresh;
  if (*refresh_iters > 0) al.refresh.warm_iterations = static_cast<size_t>(*refresh_iters);
  al.refresh.drift_threshold = *drift;

  dial::core::ActiveLearningLoop loop(&exp.bundle, &exp.vocab,
                                      exp.pretrained.get(), al);
  if (al.blocking == dial::core::BlockingStrategy::kFixedExternal) {
    loop.SetExternalCandidates(dial::baselines::RulesCandidates(exp.bundle));
  }
  if (!checkpoint->empty()) loop.SetCheckpointPath(*checkpoint);
  if (*resume) {
    DIAL_CHECK(!checkpoint->empty()) << "--resume requires --checkpoint";
    const dial::util::Status status = loop.RestoreCheckpoint(*checkpoint);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot resume: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("resumed from %s\n", checkpoint->c_str());
  }

  const dial::core::AlResult result = loop.Run();
  dial::util::TablePrinter table({"round", "|T|", "cand", "cand recall",
                                  "test F1", "all-pairs F1", "idx build ms",
                                  "warm"});
  for (const auto& r : result.rounds) {
    table.AddRow({std::to_string(r.round), std::to_string(r.labels_in_t),
                  std::to_string(r.cand_size),
                  dial::util::TablePrinter::Num(100 * r.cand_recall, 1),
                  dial::util::TablePrinter::Num(100 * r.test_prf.f1, 1),
                  dial::util::TablePrinter::Num(100 * r.allpairs_prf.f1, 1),
                  dial::util::TablePrinter::Num(1000 * r.t_index_build, 2),
                  std::to_string(r.index_warm_members)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nfinal all-pairs P/R/F1: %.1f / %.1f / %.1f | labels used: %zu | "
      "block+match: %.2fs\n",
      100 * result.final_allpairs.precision, 100 * result.final_allpairs.recall,
      100 * result.final_allpairs.f1, result.labels_used,
      result.block_match_seconds);
  return 0;
}

int CmdJedai(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* dataset = flags.AddString("dataset", "walmart_amazon", "dataset name");
  std::string* scale_text = flags.AddString("scale", "smoke", "smoke|small|medium");
  std::string* weighting =
      flags.AddString("weighting", "js", "cbs|js|ecbs|arcs|chisquare");
  std::string* pruning = flags.AddString("pruning", "wep", "wep|cep|wnp|cnp");
  double* filter = flags.AddDouble("filter", 1.0, "block-filter ratio (1 = off)");
  int64_t* seed = flags.AddInt("seed", 1, "generator seed");
  flags.Parse(argc, argv);

  const auto bundle = dial::data::MakeDataset(
      *dataset, dial::data::ParseScale(*scale_text), static_cast<uint64_t>(*seed));

  dial::baselines::JedaiAgnosticConfig agnostic;
  agnostic.weighting = dial::baselines::ParseEdgeWeighting(*weighting);
  agnostic.pruning = dial::baselines::ParsePruningScheme(*pruning);
  agnostic.block_filter_ratio = *filter;
  const auto a = dial::baselines::RunJedaiSchemaAgnostic(bundle, agnostic);
  const auto b = dial::baselines::RunJedaiSchemaBased(bundle, {});

  dial::util::TablePrinter table(
      {"workflow", "blocks", "comparisons", "threshold", "P", "R", "F1", "sec"});
  for (const auto& [name, result] :
       {std::pair{std::string("schema-agnostic (") + *weighting + "+" + *pruning + ")",
                  a},
        std::pair{std::string("schema-based (qgram)"), b}}) {
    const auto prf = dial::core::EvaluatePredictedPairs(bundle, result.predicted);
    table.AddRow({name, std::to_string(result.num_blocks),
                  std::to_string(result.comparisons),
                  dial::util::TablePrinter::Num(result.best_threshold, 2),
                  dial::util::TablePrinter::Num(100 * prf.precision, 1),
                  dial::util::TablePrinter::Num(100 * prf.recall, 1),
                  dial::util::TablePrinter::Num(100 * prf.f1, 1),
                  dial::util::TablePrinter::Num(result.seconds, 2)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

void PrintUsage() {
  std::printf(
      "dial — deep indexed active learning for entity resolution\n\n"
      "usage: dial <command> [--flags]\n\n"
      "commands:\n"
      "  datasets   Table-1 style statistics for the registered datasets\n"
      "  run        one active-learning session (all strategies/selectors)\n"
      "  jedai      classical meta-blocking pipelines\n\n"
      "run `dial <command> --help` for the command's flags.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "datasets") == 0) return CmdDatasets(argc - 1, argv + 1);
  if (std::strcmp(cmd, "run") == 0) return CmdRun(argc - 1, argv + 1);
  if (std::strcmp(cmd, "jedai") == 0) return CmdJedai(argc - 1, argv + 1);
  if (std::strcmp(cmd, "--help") == 0 || std::strcmp(cmd, "help") == 0) {
    PrintUsage();
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n\n", cmd);
  PrintUsage();
  return 1;
}
