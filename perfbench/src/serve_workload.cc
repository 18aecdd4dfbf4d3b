// serve_match / serve_mixed: traffic against an in-process serve::Server
// over its real unix socket, with dial_serve's shipped defaults
// (smoke-scale walmart_amazon bundle, 2 workers, max_batch 32, 2 ms
// batching delay, 1024-slot ring, no deadlines, fp32).
//
// Timed run: set-up (bundle load + server start, repeated, median), then
// three phases on one server: a low and a fixed open-loop rate (printed:
// an idle server's per-request overhead, and latency well below capacity),
// and a closed loop with a fixed number of requests in flight (the gated
// p50 and throughput). Traced run: the fixed-rate stream over the socket,
// then the identical stream replayed in-process through each layer's
// public entry points (serve::ParseJson, serve::Scheduler,
// serve::ServingBundle), with spans recorded around the calls.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "data/perturb.h"
#include "load_client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "trace.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dial::serve::ServeOp;
using dial::serve::ServingBundle;

/// serve_mixed's traffic mix is an assumption, not measured traffic (the
/// repository has no request log). Reads are mostly topk lookups of S
/// texts (a record arriving to be matched), the rest by-id scoring of known
/// pairs; a majority of one op also keeps the median inside one latency
/// mode. Mutations are a 3% trickle, split retire : upsert = 1 : 2, the
/// Remove : Add ratio of examples/streaming_dedup (per insert, 0.4
/// keep-newest replacements and 0.1 delistings).
constexpr double kMutationShare = 0.03;
constexpr double kTopKShare = 0.7;  // of the reads
/// Records reserved for mutations. Matches never target them, so a match's
/// expected probability never depends on mutation timing.
constexpr size_t kMutationPool = 16;

/// Client connections, driven by one writer and one reader thread.
constexpr size_t kConnections = 3;
/// The printed low rate: an idle server's per-request overhead.
constexpr double kLowQps = 200;
/// Requests in flight in the gated phase: one full batch.
constexpr size_t kWindow = 32;
/// The latency limit the throughput phase's p99 is printed against.
constexpr double kP99LimitMs = 20;
/// Shares of the budget: the low rate, the fixed rate, the gated phase.
constexpr double kLowShare = 0.1;
constexpr double kFixedShare = 0.3;
constexpr double kWindowShare = 0.6;
/// Requests per block of a phase (see RunServe).
constexpr double kBlockRequests = 8192;
/// How long stragglers may take after the last send before counting as
/// missing.
constexpr double kDrainTimeoutS = 5.0;

struct Load {
  /// The fixed open-loop rate (printed, and the traced stream), well below
  /// the lowest throughput measured for the workload.
  double fixed_qps;
  /// Gated-phase requests per second of its budget share: between the
  /// throughputs a 4-vCPU Xeon (AVX-512 tier) reached in its slow and fast
  /// host states, so the phase lasts about its share there, and a slower
  /// build simply takes longer.
  double window_qps;
};
constexpr Load kMatchLoad{1000, 7500};
constexpr Load kMixedLoad{2000, 20000};

/// What one schedule slot asks for (kept for checks and for replay).
struct OpInfo {
  ServeOp op = ServeOp::kMatch;
  uint32_t r = 0;
  uint32_t s = 0;
  std::string text;
};

struct Phase {
  std::string name;
  std::vector<WireRequest> schedule;
  std::vector<OpInfo> ops;
};

std::string OpName(ServeOp op) {
  switch (op) {
    case ServeOp::kMatch: return "match";
    case ServeOp::kTopK: return "topk";
    case ServeOp::kEmbed: return "embed";
    case ServeOp::kUpsert: return "upsert";
    case ServeOp::kRetire: return "retire";
  }
  return "?";
}

/// Builds request streams from the workload seed: Poisson arrivals at a
/// fixed rate, ops drawn from the workload's mix. Mutations cycle through a
/// reserved pool of R records (retire, revive with a perturbed text,
/// re-upsert) so the live count stays bounded and every retire targets a
/// live record.
class Generator {
 public:
  Generator(const ServingBundle& bundle, bool mixed, uint64_t seed)
      : bundle_(bundle), mixed_(mixed), rng_(seed) {
    const size_t num_r = bundle.num_r_records();
    std::vector<uint32_t> order(num_r);
    for (size_t i = 0; i < num_r; ++i) order[i] = static_cast<uint32_t>(i);
    rng_.Shuffle(order);
    const size_t pool = mixed ? std::min(kMutationPool, num_r / 4) : 0;
    pool_.assign(order.begin(), order.begin() + static_cast<long>(pool));
    match_r_.assign(order.begin() + static_cast<long>(pool), order.end());
    in_pool_.assign(num_r, false);
    for (const uint32_t r : pool_) in_pool_[r] = true;
    for (const auto& dup : bundle.bundle().dups) {
      if (!in_pool_[dup.r]) match_dups_.push_back(dup);
    }
    pool_step_.assign(pool_.size(), 0);
  }

  Phase Make(const std::string& name, double rate_qps, double seconds) {
    Phase phase;
    phase.name = name;
    std::unordered_map<uint32_t, int64_t> last_mutation;
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng_.Uniform()) / rate_qps;
      if (t >= seconds) break;
      const size_t index = phase.schedule.size();
      WireRequest request;
      request.due_ns = static_cast<int64_t>(t * 1e9);
      request.conn = index % kConnections;
      OpInfo op;
      const std::string id = "\"id\":\"" + std::to_string(index) + "\"";
      const double u = mixed_ ? rng_.Uniform() : 1.0;
      if (u < kMutationShare && !pool_.empty()) {
        const size_t slot = next_pool_++ % pool_.size();
        op.r = pool_[slot];
        // Per record: retire, revive with new text, upsert again, repeat.
        op.op = pool_step_[slot]++ % 3 == 0 ? ServeOp::kRetire : ServeOp::kUpsert;
        if (op.op == ServeOp::kRetire) {
          request.line = "{\"op\":\"retire\"," + id + ",\"r\":" + std::to_string(op.r) + "}\n";
        } else {
          op.text = PerturbedText(op.r);
          request.line = "{\"op\":\"upsert\"," + id + ",\"r\":" + std::to_string(op.r) +
                         ",\"text\":" + dial::serve::JsonValue::Str(op.text).Dump() + "}\n";
        }
        // One connection carries every mutation, and a record's next
        // mutation waits for the previous one's response: the scheduler
        // batches by op, so it may run an upsert ahead of an earlier retire.
        request.conn = 0;
        const auto it = last_mutation.find(op.r);
        if (it != last_mutation.end()) request.wait_for = it->second;
        last_mutation[op.r] = static_cast<int64_t>(index);
      } else if (u < kMutationShare + (1.0 - kMutationShare) * kTopKShare) {
        op.op = ServeOp::kTopK;
        op.s = static_cast<uint32_t>(rng_.UniformInt(bundle_.num_s_records()));
        op.text = bundle_.bundle().s_table.TextOf(op.s);
        request.line = "{\"op\":\"topk\"," + id +
                       ",\"text\":" + dial::serve::JsonValue::Str(op.text).Dump() + "}\n";
      } else {
        op.op = ServeOp::kMatch;
        if (!match_dups_.empty() && rng_.Bernoulli(0.5)) {
          const auto& dup = match_dups_[rng_.UniformInt(match_dups_.size())];
          op.r = dup.r;
          op.s = dup.s;
        } else {
          op.r = match_r_[rng_.UniformInt(match_r_.size())];
          op.s = static_cast<uint32_t>(rng_.UniformInt(bundle_.num_s_records()));
        }
        request.line = "{\"op\":\"match\"," + id + ",\"r\":" + std::to_string(op.r) +
                       ",\"s\":" + std::to_string(op.s) + "}\n";
      }
      phase.schedule.push_back(std::move(request));
      phase.ops.push_back(std::move(op));
    }
    return phase;
  }

  const std::vector<uint32_t>& pool() const { return pool_; }

 private:
  std::string PerturbedText(uint32_t r) {
    const std::vector<std::string> tokens =
        dial::util::Split(bundle_.bundle().r_table.TextOf(r));
    const std::string text = dial::util::Join(
        dial::data::PerturbTokens(tokens, dial::data::TokenNoise{}, rng_), " ");
    return text.empty() ? bundle_.bundle().r_table.TextOf(r) : text;
  }

  const ServingBundle& bundle_;
  const bool mixed_;
  dial::util::Rng rng_;
  std::vector<uint32_t> pool_;
  std::vector<size_t> pool_step_;
  size_t next_pool_ = 0;
  std::vector<uint32_t> match_r_;
  std::vector<bool> in_pool_;
  std::vector<dial::data::PairId> match_dups_;
};

/// Everything the output checks need from the wire, gathered across phases.
struct Observations {
  std::vector<dial::data::PairId> match_pairs;
  std::vector<float> match_probs;
  struct TopK {
    int64_t sent_ns = 0;
    int64_t done_ns = 0;
    uint32_t s = 0;
    std::vector<uint32_t> hits;
  };
  std::vector<TopK> topk;
  struct Mutation {
    uint32_t r = 0;
    bool retire = false;
    int64_t sent_ns = 0;
    int64_t done_ns = 0;
    double live = -1.0;
  };
  std::vector<Mutation> mutations;
};

struct PhaseStats {
  std::vector<double> latency_ms;  // per request with an ok response
  std::vector<double> late_ms;     // generator lateness per sent request
  size_t attempted = 0;
  /// Requests without an ok response; includes `overloaded`.
  size_t failed = 0;
  /// Requests the full ring refused ("overload"): admission, not a wrong
  /// output, so they are counted but fail no check.
  size_t overloaded = 0;
  /// Requests outstanding when the last one was sent.
  size_t backlog_at_end = 0;
  /// From the start to the last response.
  double busy_s = 0.0;
  /// Mean requests per engine batch (socket runs only).
  double mean_batch = 0.0;

  double achieved_qps() const {
    return busy_s > 0 ? static_cast<double>(attempted - failed) / busy_s : 0.0;
  }

  /// Adds a later block of the same phase.
  void Append(const PhaseStats& block) {
    latency_ms.insert(latency_ms.end(), block.latency_ms.begin(), block.latency_ms.end());
    late_ms.insert(late_ms.end(), block.late_ms.begin(), block.late_ms.end());
    attempted += block.attempted;
    failed += block.failed;
    overloaded += block.overloaded;
    backlog_at_end = block.backlog_at_end;
    busy_s += block.busy_s;
  }
};

/// Scores one phase's wire result and files its responses for the checks.
/// A missing response or an error other than "overload" is a wrong output.
PhaseStats Evaluate(const Phase& phase, const WireResult& wire, Observations& obs,
                    std::vector<std::string>& errors) {
  PhaseStats stats;
  const size_t n = phase.schedule.size();
  stats.attempted = n;
  int64_t last_sent = 0;
  int64_t last_done = wire.start_ns;
  for (size_t i = 0; i < n; ++i) {
    last_sent = std::max(last_sent, wire.sent_ns[i]);
    last_done = std::max(last_done, wire.done_ns[i]);
    if (wire.sent_ns[i] != 0) stats.late_ms.push_back(wire.LateMs(i));
  }
  for (size_t i = 0; i < n; ++i) {
    if (wire.done_ns[i] != 0 && wire.done_ns[i] > last_sent) ++stats.backlog_at_end;
    const std::string& response = wire.responses[i];
    if (wire.done_ns[i] == 0 || response.find("\"status\":\"ok\"") == std::string::npos) {
      ++stats.failed;
      if (response.find("\"status\":\"overload\"") != std::string::npos) {
        ++stats.overloaded;
        continue;
      }
      if (errors.size() < 5) {
        errors.push_back(phase.name + " request " + std::to_string(i) + " (" +
                         OpName(phase.ops[i].op) + "): " +
                         (response.empty() ? "no response" : response));
      }
      continue;
    }
    stats.latency_ms.push_back(wire.LatencyMs(i));
    const OpInfo& op = phase.ops[i];
    switch (op.op) {
      case ServeOp::kMatch: {
        const size_t pos = response.find("\"prob\":");
        obs.match_pairs.push_back(dial::data::PairId{op.r, op.s});
        obs.match_probs.push_back(pos == std::string::npos
                                      ? std::nanf("")
                                      : std::strtof(response.c_str() + pos + 7, nullptr));
        break;
      }
      case ServeOp::kTopK: {
        Observations::TopK topk;
        topk.sent_ns = wire.sent_ns[i];
        topk.done_ns = wire.done_ns[i];
        topk.s = op.s;
        auto parsed = dial::serve::ParseJson(response);
        const dial::serve::JsonValue* hits =
            parsed.ok() ? parsed.value().Get("neighbors") : nullptr;
        if (hits == nullptr) {
          errors.push_back("topk response without neighbors: " + response);
          break;
        }
        for (const auto& hit : hits->items()) {
          topk.hits.push_back(static_cast<uint32_t>(hit.GetNumber("r", -1)));
        }
        obs.topk.push_back(std::move(topk));
        break;
      }
      case ServeOp::kUpsert:
      case ServeOp::kRetire: {
        auto parsed = dial::serve::ParseJson(response);
        obs.mutations.push_back(Observations::Mutation{
            op.r, op.op == ServeOp::kRetire, wire.sent_ns[i], wire.done_ns[i],
            parsed.ok() ? parsed.value().GetNumber("live", -1.0) : -1.0});
        break;
      }
      case ServeOp::kEmbed:
        break;
    }
  }
  stats.busy_s = static_cast<double>(last_done - wire.start_ns) / 1e9;
  return stats;
}

/// The output checks of one run (see README.md): match bit-identity with
/// ServingBundle::MatchPairs, no retired record in a later topk, consistent
/// live counts.
void CheckOutputs(ServingBundle& bundle, const Generator& gen,
                  const Observations& obs, Result& result) {
  // Each distinct pair is scored once, by several threads (each with its
  // own context, as the server's workers do); any batching gives the same
  // bits (the engine's batching contract).
  std::map<uint64_t, size_t> slot;  // pair key -> index into unique
  std::vector<dial::data::PairId> unique;
  for (const auto& pair : obs.match_pairs) {
    const uint64_t key = (static_cast<uint64_t>(pair.r) << 32) | pair.s;
    if (slot.emplace(key, unique.size()).second) unique.push_back(pair);
  }
  std::vector<float> reference(unique.size(), std::nanf(""));
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  const size_t chunk = (unique.size() + threads - 1) / threads;
  std::vector<std::thread> scorers;
  for (size_t begin = 0; begin < unique.size(); begin += chunk) {
    scorers.emplace_back([&, begin] {
      dial::autograd::InferenceContext ctx;
      const size_t end = std::min(unique.size(), begin + chunk);
      for (size_t b = begin; b < end; b += 256) {
        const size_t e = std::min(end, b + 256);
        auto probs = bundle.MatchPairs(
            ctx, std::vector<dial::data::PairId>(unique.begin() + static_cast<long>(b),
                                                 unique.begin() + static_cast<long>(e)));
        if (!probs.ok()) continue;  // NaN never matches: counted below
        std::copy(probs.value().begin(), probs.value().end(),
                  reference.begin() + static_cast<long>(b));
      }
    });
  }
  for (auto& scorer : scorers) scorer.join();
  size_t mismatched = 0;
  for (size_t i = 0; i < obs.match_pairs.size(); ++i) {
    const auto& pair = obs.match_pairs[i];
    const float want = reference[slot.at((static_cast<uint64_t>(pair.r) << 32) | pair.s)];
    if (std::memcmp(&want, &obs.match_probs[i], sizeof(float)) != 0) ++mismatched;
  }
  result.Check(mismatched == 0, std::to_string(mismatched) + " of " +
                                    std::to_string(obs.match_pairs.size()) +
                                    " match probabilities differ from MatchPairs");

  // A record is retired from its retire's response until its next upsert is
  // sent; a topk sent and answered inside that window must not return it. (A
  // topk answered after the upsert was sent may legitimately see the revived
  // record: requests on different connections carry no order.)
  std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> retired_windows;
  std::map<uint32_t, std::vector<const Observations::Mutation*>> by_record;
  for (const auto& m : obs.mutations) by_record[m.r].push_back(&m);
  for (auto& [r, list] : by_record) {
    std::sort(list.begin(), list.end(),
              [](const auto* a, const auto* b) { return a->sent_ns < b->sent_ns; });
    for (size_t i = 0; i < list.size(); ++i) {
      if (!list[i]->retire) continue;
      const int64_t until = i + 1 < list.size() ? list[i + 1]->sent_ns : INT64_MAX;
      retired_windows[r].emplace_back(list[i]->done_ns, until);
    }
  }
  size_t stale_hits = 0;
  for (const auto& topk : obs.topk) {
    for (const uint32_t hit : topk.hits) {
      const auto it = retired_windows.find(hit);
      if (it == retired_windows.end()) continue;
      for (const auto& [from, until] : it->second) {
        if (topk.sent_ns > from && topk.done_ns < until) ++stale_hits;
      }
    }
  }
  result.Check(stale_hits == 0,
               std::to_string(stale_hits) + " topk hits on records retired before the query");

  const double num_r = static_cast<double>(bundle.num_r_records());
  const double min_live = num_r - static_cast<double>(gen.pool().size());
  size_t bad_live = 0;
  size_t still_retired = 0;
  for (const auto& m : obs.mutations) {
    if (m.live < min_live || m.live > num_r) ++bad_live;
  }
  for (const auto& [r, list] : by_record) {
    if (list.back()->retire) ++still_retired;
  }
  result.Check(bad_live == 0, std::to_string(bad_live) + " mutation live counts out of range");
  result.Check(bundle.live_r_records() == bundle.num_r_records() - still_retired,
               "final live count " + std::to_string(bundle.live_r_records()) +
                   " != R minus retired records");
}

std::unique_ptr<ServingBundle> LoadBundle(const std::string& path) {
  auto loaded = ServingBundle::Load(path);
  DIAL_CHECK(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

dial::serve::ServerOptions ShippedServerOptions(const std::string& socket_path) {
  dial::serve::ServerOptions options;  // dial_serve's defaults
  options.socket_path = socket_path;
  return options;
}

void PrintPhase(const std::string& label, const PhaseStats& s, double rate) {
  std::printf(
      "  %-8s %6.0f/s  n %6zu  p50/p90/p95/p99 %.3f/%.3f/%.3f/%.3f ms  failed %zu  "
      "late p50/p99/max %.3f/%.3f/%.3f ms  backlog %zu  achieved %.0f/s  batch %.2f\n",
      label.c_str(), rate, s.attempted, Median(s.latency_ms),
      Percentile(s.latency_ms, 0.90), Percentile(s.latency_ms, 0.95),
      Percentile(s.latency_ms, 0.99), s.failed, Median(s.late_ms),
      Percentile(s.late_ms, 0.99), Percentile(s.late_ms, 1.0), s.backlog_at_end,
      s.achieved_qps(), s.mean_batch);
}

// ---------------------------------------------------------------------------
// Traced replay: the identical stream, in-process, through the public entry
// points of each serve layer.
// ---------------------------------------------------------------------------

struct ReplayTimes {
  std::vector<int64_t> parse_start, parse_end, submit, exec, call_start, call_end, done;
  std::map<std::string, std::vector<double>> call_us;  // per bundle call, by op
  dial::serve::SchedulerStats stats;
  /// Replayed requests whose bundle call returned an error.
  size_t failed = 0;
  /// Requests the full ring refused (done stays 0 for them).
  size_t rejected = 0;
  /// Request lines ParseJson refused.
  size_t unparsed = 0;
};

/// Requests i with i % stride == 0 are traced; the others only have their
/// end-to-end time taken, which prices the tracing under identical load.
ReplayTimes Replay(ServingBundle& bundle, const Phase& phase, size_t stride) {
  const auto traced = [stride](size_t i) { return i % stride == 0; };
  const size_t n = phase.schedule.size();
  ReplayTimes t;
  for (auto* v : {&t.parse_start, &t.parse_end, &t.submit, &t.exec, &t.call_start,
                  &t.call_end, &t.done}) {
    v->assign(n, 0);
  }
  // Written by the workers, polled by the submitting thread (mutation
  // ordering), copied into t.done once the scheduler has drained.
  std::unique_ptr<std::atomic<int64_t>[]> done(new std::atomic<int64_t>[n]);
  for (size_t i = 0; i < n; ++i) done[i].store(0, std::memory_order_relaxed);
  std::atomic<size_t> failed{0};
  std::mutex call_mu;
  const dial::serve::SchedulerOptions options;  // dial_serve's defaults
  std::vector<std::unique_ptr<dial::autograd::InferenceContext>> contexts;
  for (size_t w = 0; w < options.num_workers; ++w) {
    contexts.push_back(std::make_unique<dial::autograd::InferenceContext>());
  }
  auto note_call = [&](ServeOp op, const std::vector<size_t>& ids, int64_t start,
                       int64_t end) {
    bool any = false;
    for (const size_t i : ids) {
      if (!traced(i)) continue;
      any = true;
      t.call_start[i] = start;
      t.call_end[i] = end;
    }
    if (!any) return;
    std::lock_guard<std::mutex> lock(call_mu);
    t.call_us[OpName(op)].push_back(static_cast<double>(end - start) / 1e3);
  };
  auto executor = [&](size_t worker, std::vector<dial::serve::Scheduler::Pending>&& batch) {
    const int64_t exec_ns = NowNs();
    dial::autograd::InferenceContext& ctx = *contexts[worker];
    std::vector<size_t> ids;
    for (const auto& pending : batch) {
      ids.push_back(std::strtoull(pending.request.id.c_str(), nullptr, 10));
      if (traced(ids.back())) t.exec[ids.back()] = exec_ns;
    }
    const ServeOp op = batch.front().request.op;
    std::vector<dial::serve::ServeResponse> responses(batch.size());
    if (op == ServeOp::kMatch) {
      std::vector<dial::data::PairId> pairs;
      for (const auto& pending : batch) {
        pairs.push_back(dial::data::PairId{static_cast<uint32_t>(pending.request.r_id),
                                           static_cast<uint32_t>(pending.request.s_id)});
      }
      const int64_t start = NowNs();
      auto probs = bundle.MatchPairs(ctx, pairs);
      note_call(op, ids, start, NowNs());
      for (size_t i = 0; i < batch.size(); ++i) {
        if (probs.ok()) responses[i].prob = probs.value()[i];
        else responses[i].status = probs.status();
      }
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        const auto& req = batch[i].request;
        const int64_t start = NowNs();
        if (op == ServeOp::kTopK) {
          bundle.TopK(ctx, req.text, req.k);
        } else if (op == ServeOp::kUpsert) {
          responses[i].status = bundle.Upsert(ctx, static_cast<uint32_t>(req.r_id), req.text);
        } else {
          responses[i].status = bundle.Retire(static_cast<uint32_t>(req.r_id));
        }
        note_call(op, {ids[i]}, start, NowNs());
      }
    }
    for (size_t i = 0; i < batch.size(); ++i) batch[i].callback(std::move(responses[i]));
  };

  dial::serve::Scheduler scheduler(options, executor);
  const int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) {
    const WireRequest& wire = phase.schedule[i];
    const int64_t due = start + wire.due_ns;
    const int64_t now = NowNs();
    if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    if (wire.wait_for >= 0) {
      // Same ordering rule as the socket client: a record's mutations run
      // in the order sent.
      if (done[static_cast<size_t>(wire.wait_for)].load(std::memory_order_acquire) == 0) {
        scheduler.Drain();
      }
    }
    t.parse_start[i] = NowNs();
    if (!dial::serve::ParseJson(wire.line).ok()) ++t.unparsed;
    if (traced(i)) t.parse_end[i] = NowNs();
    const OpInfo& op = phase.ops[i];
    dial::serve::ServeRequest request;
    request.op = op.op;
    request.id = std::to_string(i);
    request.r_id = op.r;
    request.s_id = op.s;
    request.text = op.text;
    if (traced(i)) t.submit[i] = NowNs();
    std::atomic<int64_t>* slot = &done[i];
    const bool accepted = scheduler.Submit(
        std::move(request), [slot, &failed](dial::serve::ServeResponse response) {
          if (!response.status.ok()) failed.fetch_add(1, std::memory_order_relaxed);
          slot->store(NowNs(), std::memory_order_release);
        });
    if (!accepted) ++t.rejected;
  }
  scheduler.Drain();
  for (size_t i = 0; i < n; ++i) t.done[i] = done[i].load(std::memory_order_acquire);
  t.stats = scheduler.stats();
  t.failed = failed.load();
  return t;
}

/// Turns a traced replay into spans: one root per request with children
/// for parse, queue wait and the bundle call.
void RecordSpans(const Phase& phase, const ReplayTimes& t, Tracer& tracer) {
  for (size_t i = 0; i < phase.schedule.size(); ++i) {
    if (t.parse_end[i] == 0 || t.done[i] == 0) continue;  // not traced, or refused
    const auto request = static_cast<int64_t>(i);
    const int64_t root =
        tracer.Record(phase.name + ".request", t.parse_start[i], t.done[i], -1, request);
    tracer.Record("serve.json.parse", t.parse_start[i], t.parse_end[i], root, request);
    tracer.Record("serve.scheduler.queue", t.submit[i], t.exec[i], root, request);
    tracer.Record("serve.bundle." + OpName(phase.ops[i].op), t.call_start[i],
                  t.call_end[i], root, request);
  }
}

Result TraceServe(const RunOptions& options, bool mixed, const std::string& socket_path) {
  Result result;
  const std::string& w = options.workload;
  const std::string bundle_path = BundlePath(options.artifacts);
  const double rate = (mixed ? kMixedLoad : kMatchLoad).fixed_qps;
  Tracer tracer;

  int64_t t0 = NowNs();
  std::unique_ptr<ServingBundle> bundle = LoadBundle(bundle_path);
  const int64_t load_ns = NowNs() - t0;
  tracer.Record("serve.bundle.load", t0, t0 + load_ns, -1, -1);

  Generator gen(*bundle, mixed, options.seed);
  const Phase fixed = gen.Make("fixed", rate, options.seconds * 0.4);

  // Untraced socket run of the fixed-rate stream: the client latency the
  // layers must add up to.
  Observations obs;
  std::vector<std::string> errors;
  WireResult wire;
  {
    dial::serve::Server server(bundle.get(), ShippedServerOptions(socket_path));
    DIAL_CHECK(server.Start().ok());
    LoadClient client(socket_path, kConnections);
    wire = client.Run(fixed.schedule, kDrainTimeoutS);
    server.Stop();
  }
  const PhaseStats socket_stats = Evaluate(fixed, wire, obs, errors);

  // The identical stream replayed on a freshly loaded bundle (mutations must
  // not carry over), every other request traced.
  bundle = LoadBundle(bundle_path);
  const ReplayTimes replay = Replay(*bundle, fixed, /*stride=*/2);
  result.attempted += 2 * fixed.schedule.size();
  result.failed += socket_stats.failed + replay.rejected + replay.failed;
  RecordSpans(fixed, replay, tracer);

  // Residual: socket latency minus what the layers account for, per traced
  // request; overhead: traced minus untraced requests of the same replay.
  std::vector<double> residual_us, attributed_share, plain_us, traced_us;
  std::vector<double> client_us, parse_us, wait_ms, call_us;
  for (size_t i = 0; i < fixed.schedule.size(); ++i) {
    if (replay.done[i] == 0) continue;  // refused by the ring
    const double e2e_us = static_cast<double>(replay.done[i] - replay.parse_start[i]) / 1e3;
    if (replay.parse_end[i] == 0) {
      plain_us.push_back(e2e_us);
      continue;
    }
    traced_us.push_back(e2e_us);
    parse_us.push_back(static_cast<double>(replay.parse_end[i] - replay.parse_start[i]) / 1e3);
    wait_ms.push_back(static_cast<double>(replay.exec[i] - replay.submit[i]) / 1e6);
    call_us.push_back(static_cast<double>(replay.call_end[i] - replay.call_start[i]) / 1e3);
    if (wire.done_ns[i] == 0) continue;
    client_us.push_back(wire.LatencyMs(i) * 1e3);
    const double layers_us = parse_us.back() + wait_ms.back() * 1e3 + call_us.back();
    residual_us.push_back(client_us.back() - layers_us);
    attributed_share.push_back(layers_us / client_us.back());
  }

  // Every span lies inside its request's root, so self times reconcile.
  const size_t outside = tracer.SpansOutsideParent();
  result.Check(outside == 0,
               std::to_string(outside) + " spans start before or end after their request");
  result.Check(replay.unparsed == 0, "ParseJson refused replayed request lines");
  result.Check(replay.failed == 0, "replayed bundle calls returned errors");
  for (const auto& e : errors) result.check_failures.push_back(e);

  const dial::serve::SchedulerStats& s = replay.stats;
  result.Add(w + ".serve.bundle.load_s", static_cast<double>(load_ns) / 1e9, "s");
  result.Add(w + ".serve.json.parse_us", Median(parse_us), "us");
  result.Add(w + ".serve.scheduler.queue_wait_ms.p50", Median(wait_ms), "ms");
  result.Add(w + ".serve.scheduler.queue_wait_ms.p99", Percentile(wait_ms, 0.99), "ms");
  result.Add(w + ".serve.scheduler.mean_batch", s.mean_batch_size(), "req/batch");
  result.Add(w + ".serve.scheduler.batches", static_cast<double>(s.batches), "count");
  result.Add(w + ".serve.scheduler.rejected", static_cast<double>(s.rejected), "count");
  result.Add(w + ".serve.scheduler.deadline_expired",
             static_cast<double>(s.deadline_expired), "count");
  result.Add(w + ".serve.scheduler.deadline_flushes",
             static_cast<double>(s.deadline_flushes), "count");
  const auto call = [&](const std::string& op) {
    const auto it = replay.call_us.find(op);
    return it == replay.call_us.end() ? 0.0 : Median(it->second);
  };
  result.Add(w + ".serve.bundle.match_us", call("match"), "us");
  if (mixed) {
    result.Add(w + ".serve.bundle.topk_us", call("topk"), "us");
    result.Add(w + ".serve.bundle.upsert_us", call("upsert"), "us");
    result.Add(w + ".serve.bundle.retire_us", call("retire"), "us");
  }
  result.Add(w + ".serve.server.residual_us", Median(residual_us), "us");
  result.Add(w + ".trace.overhead_us", Median(traced_us) - Median(plain_us), "us");

  std::printf("[%s traced] %.0f/s, %zu requests, %zu spans; socket run: %zu refused; "
              "replay: %zu refused\n",
              w.c_str(), rate, fixed.schedule.size(), tracer.size(), socket_stats.overloaded,
              replay.rejected);
  std::printf("  client latency p50 %.1f us: parse %.1f + queue %.1f + bundle %.1f + "
              "residual %.1f us (medians; the layers cover %.0f%% of the median request)\n",
              Median(client_us), Median(parse_us), Median(wait_ms) * 1e3, Median(call_us),
              Median(residual_us), 100.0 * Median(attributed_share));
  for (const auto& [name, values] : tracer.SelfTimesUs()) {
    std::printf("  self %-34s n %6zu  p50 %9.1f us  p99 %9.1f us\n", name.c_str(),
                values.size(), Median(values), Percentile(values, 0.99));
  }
  const std::string trace_path =
      options.artifacts + "/trace-" + w + "-" + std::to_string(options.seed) + ".jsonl";
  result.Check(tracer.WriteJsonLines(trace_path), "cannot write " + trace_path);
  std::printf("  spans written to %s\n", trace_path.c_str());
  return result;
}

}  // namespace

Result RunServe(const RunOptions& options, bool mixed) {
  const std::string socket_path = "perfbench-" + std::to_string(::getpid()) + ".sock";
  if (options.trace) return TraceServe(options, mixed, socket_path);
  const Load& load = mixed ? kMixedLoad : kMatchLoad;
  const std::string bundle_path = BundlePath(options.artifacts);

  Result result;
  // Set-up: load the saved bundle and start the server, several times; the
  // last one serves the run from a freshly loaded bundle.
  std::vector<double> setup_s;
  std::unique_ptr<ServingBundle> bundle;
  std::unique_ptr<dial::serve::Server> server;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    bundle.reset();
    const int64_t t0 = NowNs();
    bundle = LoadBundle(bundle_path);
    server = std::make_unique<dial::serve::Server>(bundle.get(),
                                                   ShippedServerOptions(socket_path));
    DIAL_CHECK(server->Start().ok());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  Generator gen(*bundle, mixed, options.seed);
  Observations obs;
  std::vector<std::string> errors;
  LoadClient client(socket_path, kConnections);
  size_t overloaded = 0;
  // Runs `seconds` of requests at `rate` in blocks of at most
  // kBlockRequests, so the client's buffers stay small. window 0: open loop
  // at the due times; otherwise a closed loop with `window` in flight.
  const auto run_phase = [&](const std::string& name, double rate, double seconds,
                             size_t window) {
    const dial::serve::SchedulerStats before = server->scheduler_stats();
    const size_t blocks = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(rate * seconds / kBlockRequests)));
    PhaseStats stats;
    for (size_t b = 0; b < blocks; ++b) {
      const Phase block = gen.Make(name, rate, seconds / static_cast<double>(blocks));
      const WireResult wire = window == 0
                                  ? client.Run(block.schedule, kDrainTimeoutS)
                                  : client.RunWindowed(block.schedule, window, kDrainTimeoutS);
      stats.Append(Evaluate(block, wire, obs, errors));
    }
    const dial::serve::SchedulerStats after = server->scheduler_stats();
    result.attempted += stats.attempted;
    result.failed += stats.failed;
    overloaded += stats.overloaded;
    const double batches = static_cast<double>(after.batches - before.batches);
    stats.mean_batch = batches > 0 ? static_cast<double>(after.requests_executed -
                                                         before.requests_executed) /
                                         batches
                                   : 0.0;
    return stats;
  };

  std::printf("[%s] bundle %s: %zu R, %zu S records; %zu connections\n",
              options.workload.c_str(), bundle_path.c_str(), bundle->num_r_records(),
              bundle->num_s_records(), kConnections);
  // The open-loop rates are printed, not gated: below capacity a request's
  // latency is mostly thread wake-ups, which on a shared VM slowed up to 2.7x
  // for seconds at a time.
  const PhaseStats low = run_phase("low", kLowQps, options.seconds * kLowShare, 0);
  PrintPhase("low", low, kLowQps);
  const PhaseStats fixed =
      run_phase("fixed", load.fixed_qps, options.seconds * kFixedShare, 0);
  PrintPhase("fixed", fixed, load.fixed_qps);
  // The gated phase: a closed loop that keeps kWindow requests in flight.
  // Its request count is fixed by the seed and the budget, so a slower
  // build takes longer instead of doing less.
  const PhaseStats throughput =
      run_phase("window", load.window_qps, options.seconds * kWindowShare, kWindow);
  PrintPhase("window", throughput, 0);
  const double throughput_p99 = Percentile(throughput.latency_ms, 0.99);
  std::printf("  throughput with %zu in flight: %.0f/s, p99 %.3f ms (%s the %.0f ms limit)\n",
              kWindow, throughput.achieved_qps(), throughput_p99,
              throughput_p99 <= kP99LimitMs ? "within" : "over", kP99LimitMs);
  server->Stop();
  const dial::serve::SchedulerStats stats = server->scheduler_stats();
  // Read before the checks, whose scoring threads are not the workload.
  const double rss_mb = PeakRssMb();

  CheckOutputs(*bundle, gen, obs, result);
  for (const auto& e : errors) result.check_failures.push_back(e);

  // Quality beside time (diagnostic): serve_match's decisions at 0.5 against
  // the gold duplicates; serve_mixed's topk recall of the gold R record.
  size_t tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < obs.match_pairs.size(); ++i) {
    const bool dup = bundle->bundle().IsDuplicate(obs.match_pairs[i]);
    const bool said = obs.match_probs[i] >= 0.5f;
    tp += dup && said;
    fp += !dup && said;
    fn += dup && !said;
  }
  std::unordered_map<uint32_t, std::vector<uint32_t>> gold_r;
  for (const auto& dup : bundle->bundle().dups) gold_r[dup.s].push_back(dup.r);
  size_t asked = 0, found = 0;
  for (const auto& topk : obs.topk) {
    const auto it = gold_r.find(topk.s);
    if (it == gold_r.end()) continue;
    ++asked;
    for (const uint32_t r : it->second) {
      if (std::find(topk.hits.begin(), topk.hits.end(), r) != topk.hits.end()) {
        ++found;
        break;
      }
    }
  }
  std::printf("  totals: %zu requests, %zu failed (fail_frac %.4f), %llu batches, mean batch "
              "%.2f, max %zu, rejected %llu; match F1 %.3f on %zu pairs; topk recall %.3f on "
              "%zu queries; %zu mutations; %zu refused as overload\n",
              result.attempted, result.failed,
              result.attempted ? static_cast<double>(result.failed) / result.attempted : 0.0,
              static_cast<unsigned long long>(stats.batches), stats.mean_batch_size(),
              stats.max_batch_observed, static_cast<unsigned long long>(stats.rejected),
              tp ? 2.0 * tp / (2.0 * tp + fp + fn) : 0.0, obs.match_pairs.size(),
              asked ? static_cast<double>(found) / asked : 0.0, asked,
              obs.mutations.size(), overloaded);

  result.Add("setup_s", Median(setup_s), "s");
  result.Add("rss_mb", rss_mb, "MB");
  result.Add("p50_ms", Median(throughput.latency_ms), "ms");
  result.Add("ops_per_s", throughput.achieved_qps(), "1/s");
  return result;
}

}  // namespace perfbench
