// Online serving throughput: trains UMGAD once, stands up the OnlineScorer,
// and streams randomized edge inserts/removals through ApplyEdgeUpdate,
// reporting sustained edges/s, p50/p99 per-update re-score latency, dirty
// row counts, and cache hit rates — against the cost of the from-scratch
// serial re-score (RescoreFullNaive) the incremental path replaces. Run
// with an unlimited row cache and with a 25% hot-node budget to expose the
// memory/latency trade. Numbers land in docs/PERFORMANCE.md.
//
// Part two stands up the ShardRouter over DG-Fin and sweeps the shard
// count {1, 2, 4}, reporting per-update p50/p99 latency, queue peaks, and
// cache hit rates from ShardRouter::Stats(), verifying the drained
// snapshot is bit-identical to the flat scorer, and enforcing a p99 SLO:
// the sharded update path must beat the serial full re-score by at least
// 2x per update (override the bound with UMGAD_SLO_P99_MS=<millis>). A
// gate failure exits nonzero so CI can hold the line.

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/model_io.h"
#include "serve/online_scorer.h"
#include "serve/serve_metrics.h"
#include "serve/shard_router.h"

namespace umgad {
namespace {

using serve::DynamicAdjacency;
using serve::EdgeUpdate;
using serve::OnlineScorer;
using serve::ServeOptions;

std::vector<EdgeUpdate> MakeStream(const MultiplexGraph& graph, int count,
                                   uint64_t seed) {
  std::vector<DynamicAdjacency> mirror;
  for (int r = 0; r < graph.num_relations(); ++r) {
    mirror.emplace_back(graph.layer(r));
  }
  Rng rng(seed);
  std::vector<EdgeUpdate> updates;
  while (static_cast<int>(updates.size()) < count) {
    EdgeUpdate u;
    u.relation = static_cast<int>(rng.UniformInt(graph.num_relations()));
    u.src = static_cast<int>(rng.UniformInt(graph.num_nodes()));
    u.dst = static_cast<int>(rng.UniformInt(graph.num_nodes()));
    if (u.src == u.dst) continue;
    u.add = !mirror[u.relation].Has(u.src, u.dst);
    if (u.add) {
      mirror[u.relation].AddEntry(u.src, u.dst, 1.0f);
      mirror[u.relation].AddEntry(u.dst, u.src, 1.0f);
    } else {
      mirror[u.relation].RemoveEntry(u.src, u.dst);
      mirror[u.relation].RemoveEntry(u.dst, u.src);
    }
    updates.push_back(u);
  }
  return updates;
}

struct StreamResult {
  double edges_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_dirty_rows = 0.0;
  double hit_rate = 0.0;
};

StreamResult RunStream(OnlineScorer* scorer,
                       const std::vector<EdgeUpdate>& updates) {
  std::vector<double> latencies_us;
  latencies_us.reserve(updates.size());
  int64_t dirty = 0;
  WallTimer total;
  for (const EdgeUpdate& u : updates) {
    WallTimer timer;
    UMGAD_CHECK(scorer->ApplyEdgeUpdate(u).ok());
    latencies_us.push_back(timer.ElapsedSeconds() * 1e6);
    dirty += scorer->stats().last_dirty_rows;
  }
  const double seconds = total.ElapsedSeconds();

  std::sort(latencies_us.begin(), latencies_us.end());
  StreamResult result;
  result.edges_per_sec = seconds > 0 ? updates.size() / seconds : 0.0;
  result.p50_us = latencies_us[latencies_us.size() / 2];
  result.p99_us = latencies_us[latencies_us.size() * 99 / 100];
  result.mean_dirty_rows =
      static_cast<double>(dirty) / static_cast<double>(updates.size());
  const serve::ServeStats& stats = scorer->stats();
  const int64_t lookups = stats.cache_hits + stats.cache_misses;
  result.hit_rate =
      lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0;
  return result;
}

/// Sharded serving at DG-Fin scale: shard-count sweep, latency metrics,
/// the drained-bit-equality check, and the p99 SLO gate. Returns the
/// process exit code (nonzero = SLO or equality violation).
int ShardSweep() {
  std::cout << "\n=== Sharded serving (ShardRouter) — DG-Fin ===\n\n";
  const double scale = BenchScale(0.05);
  const int stream_len = 200;
  MultiplexGraph graph = bench::LoadBenchDataset("DG-Fin", /*seed=*/3, scale);
  std::cout << "Graph: " << graph.Summary() << "\n";

  UmgadModel model(bench::BenchUmgadConfig(/*seed=*/11, /*default_epochs=*/5));
  UMGAD_CHECK(model.Fit(graph).ok());
  Result<TrainedModel> trained = TrainedModel::FromFitted(model, graph);
  UMGAD_CHECK(trained.ok());

  const std::vector<EdgeUpdate> updates = MakeStream(graph, stream_len, 41);

  // The flat reference: the same stream through one scorer, plus the
  // serial full-rescore cost the p99 SLO is judged against.
  Result<std::unique_ptr<OnlineScorer>> flat =
      OnlineScorer::Create(*trained, graph);
  UMGAD_CHECK(flat.ok());
  WallTimer naive_timer;
  (void)(*flat)->RescoreFullNaive();
  const double naive_ms = naive_timer.ElapsedMillis();
  for (const EdgeUpdate& u : updates) {
    UMGAD_CHECK((*flat)->ApplyEdgeUpdate(u).ok());
  }
  const std::vector<double>& reference = (*flat)->scores();

  // Absolute override, else relative: p99 must undercut half the full
  // re-score (the sharded path is pointless the moment it loses to
  // recompute-from-scratch).
  double slo_p99_ms = naive_ms / 2.0;
  if (const char* env = std::getenv("UMGAD_SLO_P99_MS")) {
    const double v = std::atof(env);
    if (v > 0.0) slo_p99_ms = v;
  }

  TablePrinter table;
  table.SetHeader({"Shards", "Edges/s", "p50 (us)", "p99 (us)",
                   "Publish p99 (us)", "Queue peak", "Hit rate", "Drained"});
  bool gate_ok = true;
  double worst_p99_us = 0.0;
  for (int shards : {1, 2, 4}) {
    serve::RouterOptions options;
    options.num_shards = shards;
    options.max_burst = 16;
    auto router = serve::ShardRouter::Create(*trained, graph, options);
    UMGAD_CHECK_MSG(router.ok(), router.status().ToString().c_str());

    WallTimer timer;
    for (size_t k = 0; k < updates.size(); k += 16) {
      const size_t end = std::min(updates.size(), k + 16);
      (*router)->Submit(std::vector<EdgeUpdate>(
          updates.begin() + static_cast<long>(k),
          updates.begin() + static_cast<long>(end)));
    }
    (*router)->Flush();
    const double seconds = timer.ElapsedSeconds();

    const serve::RouterStats stats = (*router)->Stats();
    UMGAD_CHECK(stats.stream_consistent);
    int64_t queue_peak = 0;
    for (const auto& s : stats.shards) {
      queue_peak = std::max(queue_peak, s.queue_peak);
    }
    const std::vector<double>& drained = (*router)->Snapshot()->scores;
    bool identical = drained.size() == reference.size();
    for (size_t i = 0; identical && i < drained.size(); ++i) {
      identical = drained[i] == reference[i];
    }
    gate_ok = gate_ok && identical;
    worst_p99_us = std::max(worst_p99_us, stats.update_latency.p99_us);
    table.AddRow({StrFormat("%d", shards),
                  FormatFloat(seconds > 0 ? updates.size() / seconds : 0.0, 0),
                  FormatFloat(stats.update_latency.p50_us, 1),
                  FormatFloat(stats.update_latency.p99_us, 1),
                  FormatFloat(stats.publish_latency.p99_us, 1),
                  StrFormat("%lld", static_cast<long long>(queue_peak)),
                  FormatFloat(100.0 * stats.cache_hit_rate, 1) + "%",
                  identical ? "bit-identical" : "MISMATCH"});
  }
  table.Print(std::cout);

  std::cout << "\nSLO gate: worst p99 " << FormatFloat(worst_p99_us / 1000.0, 3)
            << " ms vs bound " << FormatFloat(slo_p99_ms, 3) << " ms ("
            << (std::getenv("UMGAD_SLO_P99_MS") != nullptr
                    ? "UMGAD_SLO_P99_MS"
                    : "half the serial full re-score")
            << ")\n";
  if (worst_p99_us / 1000.0 > slo_p99_ms) {
    std::cout << "SLO VIOLATION: sharded p99 exceeds the bound\n";
    gate_ok = false;
  }
  if (!gate_ok) return 1;
  std::cout << "SLO + drained bit-equality: PASS\n";
  return 0;
}

int Main() {
  SetLogLevel(LogLevel::kWarning);
  bench::PrintHeader("Online serving — streamed edge updates",
                     "serve subsystem (no paper analogue)");

  const double scale = BenchScale(0.3);
  const int stream_len = 400;
  MultiplexGraph graph = bench::LoadBenchDataset("Retail", /*seed=*/1, scale);
  std::cout << "Graph: " << graph.Summary() << "\n";

  UmgadModel model(bench::BenchUmgadConfig(/*seed=*/7, /*default_epochs=*/10));
  UMGAD_CHECK(model.Fit(graph).ok());
  Result<TrainedModel> trained = TrainedModel::FromFitted(model, graph);
  UMGAD_CHECK(trained.ok());
  std::cout << "Model: " << trained->weights().size()
            << " weight tensors, fit " << FormatFloat(model.fit_seconds(), 2)
            << " s\n\n";

  const std::vector<EdgeUpdate> updates = MakeStream(graph, stream_len, 31);

  // The cost the incremental path replaces: one serial full re-score.
  ServeOptions unlimited;
  Result<std::unique_ptr<OnlineScorer>> probe =
      OnlineScorer::Create(*trained, graph, unlimited);
  UMGAD_CHECK(probe.ok());
  WallTimer naive_timer;
  (void)(*probe)->RescoreFullNaive();
  const double naive_ms = naive_timer.ElapsedMillis();

  TablePrinter table;
  table.SetHeader({"Cache budget", "Edges/s", "p50 (us)", "p99 (us)",
                   "Dirty rows/update", "Hit rate"});
  for (int budget : {-1, graph.num_nodes() / 4}) {
    ServeOptions options;
    options.cache_budget_nodes = budget;
    Result<std::unique_ptr<OnlineScorer>> scorer =
        OnlineScorer::Create(*trained, graph, options);
    UMGAD_CHECK(scorer.ok());
    const StreamResult r = RunStream(scorer->get(), updates);
    table.AddRow({budget < 0 ? "unlimited"
                             : StrFormat("%d nodes (25%%)", budget),
                  FormatFloat(r.edges_per_sec, 0), FormatFloat(r.p50_us, 1),
                  FormatFloat(r.p99_us, 1),
                  FormatFloat(r.mean_dirty_rows, 1),
                  FormatFloat(100.0 * r.hit_rate, 1) + "%"});
  }
  table.Print(std::cout);
  std::cout << "\nFull serial re-score (the replaced cost): "
            << FormatFloat(naive_ms, 2) << " ms ("
            << FormatFloat(1000.0 / std::max(naive_ms, 1e-9), 1)
            << " updates/s if recomputed per edge)\n";
  return ShardSweep();
}

}  // namespace
}  // namespace umgad

int main() { return umgad::Main(); }
