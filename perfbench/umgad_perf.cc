// The repository benchmark: one workload per invocation, end-to-end metrics
// with tracing off (--trace 0) or per-layer metrics from a traced run
// (--trace 1). The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every metric name, unit and direction is listed in GLOSSARY.md and
// BENCHMARK.json; run it through perfbench/run.py, which builds this
// program from the checkout first.
//
// Workloads (why each exists is in GLOSSARY.md):
//   fit-sparse    UmgadModel::Fit on DG-Fin (node-bound training)
//   fit-dense     UmgadModel::Fit on Amazon (edge-bound training)
//   serve-stream  closed loop, one client, OnlineScorer::ApplyEdgeUpdate
//   serve-router  open loop at fixed rates through ShardRouter (S=2) with
//                 one concurrent reader

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/model_io.h"
#include "core/scorer.h"
#include "core/threshold.h"
#include "core/umgad.h"
#include "eval/metrics.h"
#include "graph/dataset_registry.h"
#include "graph/io/binary_format.h"
#include "graph/io/mmap_format.h"
#include "graph/partition/partitioner.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "serve/dynamic_adjacency.h"
#include "serve/online_scorer.h"
#include "serve/shard_router.h"
#include "tensor/autograd.h"
#include "tensor/dispatch/cpu_features.h"
#include "tensor/dispatch/registry.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace umgad;  // NOLINT(build/namespaces)
using serve::EdgeUpdate;

// ---------------------------------------------------------------------------
// Fixed workload parameters. Changing any of them changes the benchmark.
// ---------------------------------------------------------------------------

/// Pool lanes: min(nproc, kMaxLanes), recorded in every run record.
constexpr int kMaxLanes = 4;
/// Set-up repeats per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Training epochs per Fit on each fit workload, and of the model the serve
/// workloads stand up.
constexpr int kSparseEpochs = 2;
constexpr int kDenseEpochs = 6;
constexpr int kServeModelEpochs = 2;
/// ShardRouter shard count on serve-router.
constexpr int kRouterShards = 2;
/// Open-loop reference rate (updates/s) and the ladder above it.
constexpr double kReferenceRate = 200.0;
constexpr double kRateLadder[] = {1.0, 4.0, 16.0};
/// Freshness limit (ms) a rate must meet at p99 to count towards max_rate.
constexpr double kFreshLimitMs = 50.0;
/// Reader thread period (us): the resolution of freshness.
constexpr int64_t kReaderPeriodUs = 250;
/// Nodes the reader queries per call.
constexpr int kQueryNodes = 16;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string source_hash = "unknown";
  std::string git_sha = "unknown";
  /// Internal: 1 = run one Fit and report (a fit workload's timed phase
  /// spawns these), 2 = also replay the scores through the artifact.
  int child_fit = 0;
  /// argv[0]: how the fit workloads re-invoke this binary.
  std::string program;
};

// ---------------------------------------------------------------------------
// Statistics helpers. Every percentile comes from raw samples.
// ---------------------------------------------------------------------------

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample, and how many samples lie
/// beyond it.
double NearestRank(const std::vector<double>& sorted, double p, int64_t* beyond) {
  const int64_t n = static_cast<int64_t>(sorted.size());
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::min<int64_t>(std::max<int64_t>(rank, 1), n);
  if (beyond != nullptr) *beyond = n - rank;
  return sorted[rank - 1];
}

/// The p99 if >= 10 samples lie beyond it, else p90 under the same rule,
/// else the maximum; `label` names which one was taken.
double Tail(std::vector<double> v, std::string* label) {
  if (v.empty()) {
    *label = "none";
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  for (double q : {99.0, 90.0}) {
    int64_t beyond = 0;
    const double value = NearestRank(v, q, &beyond);
    if (beyond >= 10) {
      *label = "p" + FormatNumber(q);
      return value;
    }
  }
  *label = "max";
  return v.back();
}

double PeakRssMb(int who = RUSAGE_SELF) {
  struct rusage ru;
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double CpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) { return t.tv_sec + 1e-6 * t.tv_usec; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double Seconds(int64_t ns) { return 1e-9 * static_cast<double>(ns); }

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool AllFinite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
}

// ---------------------------------------------------------------------------
// Run report: operation/check counts, metrics, human-readable lines.
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), same list and order as BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"}, {"op_p50_ms", "ms"},
    {"throughput_per_s", "1/s"}, {"auc", "ratio"},
};

/// Per-layer metrics (--trace 1), same list and order as BENCHMARK.json. A
/// layer the workload does not call reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"graph.generate_ms", "ms"},
    {"graph.save_ms", "ms"},
    {"graph.load_copy_ms", "ms"},
    {"graph.load_mmap_ms", "ms"},
    {"graph.normalize_ms", "ms"},
    {"tensor.index_build_ms", "ms"},
    {"tensor.spmm_gflops", "GFLOP/s"},
    {"tensor.matmul_gflops", "GFLOP/s"},
    {"tensor.backward_s", "s"},
    {"tensor.tape_reset_ms", "ms"},
    {"tensor.pool_fresh_mb.first_epoch", "MB"},
    {"tensor.pool_fresh_mb.steady", "MB"},
    {"nn.adam_ms", "ms"},
    {"core.view_forward_s.original", "s"},
    {"core.view_forward_s.attr_aug", "s"},
    {"core.view_forward_s.subgraph_aug", "s"},
    {"core.view_fanout_s", "s"},
    {"core.view_overlap", "ratio"},
    {"core.contrastive_ms", "ms"},
    {"core.score_s", "s"},
    {"core.threshold_ms", "ms"},
    {"core.threshold_macro_f1", "ratio"},
    {"core.model_save_ms", "ms"},
    {"core.model_load_ms", "ms"},
    {"common.cpu_busy_share", "ratio"},
    {"serve.create_s", "s"},
    {"serve.dirty_rows_per_update", "count"},
    {"serve.rescored_nodes_per_update", "count"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.combine_ms", "ms"},
    {"serve.update_p99_us", "us"},
    {"router.submit_p99_us", "us"},
    {"router.queue_peak", "count"},
    {"router.backpressure_waits", "count"},
    {"router.backlog_max", "count"},
    {"router.publish_p50_us", "us-log2"},
    {"router.publishes_per_update", "ratio"},
    {"router.shard_busy_skew", "ratio"},
    {"router.max_rate", "1/s"},
    {"router.query_p99_us", "us"},
    {"router.fresh_p99_ms", "ms"},
    {"bench.gen_late_p99_us", "us"},
    {"bench.reader_period_us", "us"},
    {"bench.mirror_match", "bool"},
    {"bench.trace_coverage", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"self_s.graph", "s"},
    {"self_s.tensor", "s"},
    {"self_s.nn", "s"},
    {"self_s.core", "s"},
    {"self_s.serve", "s"},
    {"self_s.router", "s"},
};

class Report {
 public:
  /// Counts one attempted operation or correctness check.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cout << "FAILED: " << what << "\n";
    }
  }
  void Ops(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  void Note(const std::string& key, const std::string& value) {
    std::cout << "  " << key << ": " << value << "\n";
    notes_.emplace_back(key, value);
  }
  void Note(const std::string& key, double value) { Note(key, FormatNumber(value)); }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// The result object: metrics of the selected list, in list order.
  template <size_t N>
  std::string ResultJson(const MetricSpec (&specs)[N]) const {
    std::ostringstream out;
    out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    for (size_t i = 0; i < N; ++i) {
      out << (i ? ", " : "") << "\"" << specs[i].name << "\": {\"value\": "
          << FormatNumber(Get(specs[i].name)) << ", \"unit\": \"" << specs[i].unit
          << "\"}";
    }
    out << "}}";
    return out.str();
  }

  std::string NotesJson() const {
    std::ostringstream out;
    out << "{";
    for (size_t i = 0; i < notes_.size(); ++i) {
      out << (i ? ", " : "") << "\"" << notes_[i].first << "\": \"" << notes_[i].second
          << "\"";
    }
    out << "}";
    return out.str();
  }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// ---------------------------------------------------------------------------
// Span queries (traced runs).
// ---------------------------------------------------------------------------

struct SpanSet {
  std::vector<SpanRecord> spans;
  std::vector<double> self_s;

  static SpanSet Collect() {
    SpanSet set;
    set.spans = Tracer::Get().Collect();
    set.self_s = SelfSeconds(set.spans);
    return set;
  }

  double SumSeconds(const char* name) const {
    double total = 0.0;
    for (const SpanRecord& s : spans) {
      if (std::strcmp(s.name, name) == 0) total += s.seconds();
    }
    return total;
  }
  double MedianSeconds(const char* name) const {
    std::vector<double> v;
    for (const SpanRecord& s : spans) {
      if (std::strcmp(s.name, name) == 0) v.push_back(s.seconds());
    }
    return Median(v);
  }
  /// Sum of self time over spans whose layer (text before the first '.')
  /// is `layer`.
  double LayerSelfSeconds(const std::string& layer) const {
    double total = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const char* dot = std::strchr(spans[i].name, '.');
      if (dot != nullptr &&
          layer.compare(0, std::string::npos, spans[i].name, dot - spans[i].name) == 0) {
        total += self_s[i];
      }
    }
    return total;
  }
};

void SetLayerSelfTimes(const SpanSet& set, Report* report) {
  for (const char* layer : {"graph", "tensor", "nn", "core", "serve", "router"}) {
    report->Set(std::string("self_s.") + layer, set.LayerSelfSeconds(layer));
  }
}

// ---------------------------------------------------------------------------
// Shared set-up pieces.
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  const char* dataset;
  int epochs;
};

UmgadConfig ModelConfig(int epochs) {
  UmgadConfig config;  // paper defaults; the model seed stays fixed
  config.epochs = epochs;
  return config;
}

/// Builds the dataset, writes it as .umgb and loads it back through the
/// copying reader (what a user does to get a graph into a process).
MultiplexGraph GenerateSaveLoad(const std::string& dataset, uint64_t seed,
                                const std::string& path, Report* report) {
  MultiplexGraph generated;
  {
    ScopedSpan s("graph.generate");
    Result<MultiplexGraph> g = DatasetRegistry::Global().Build(dataset, seed, 1.0);
    report->Check(g.ok(), "build " + dataset);
    if (!g.ok()) return generated;
    generated = std::move(g).value();
  }
  {
    ScopedSpan s("graph.save");
    report->Check(SaveGraphBinary(generated, path).ok(), "save " + path);
  }
  Result<MultiplexGraph> loaded = Status::Internal("not loaded");
  {
    ScopedSpan s("graph.load_copy");
    loaded = LoadGraphBinary(path);
  }
  report->Check(loaded.ok(), "load " + path);
  if (!loaded.ok()) return generated;
  report->Check(FingerprintGraph(*loaded).Matches(FingerprintGraph(generated)),
                "loaded graph equals generated graph");
  return std::move(loaded).value();
}

/// The second .umgb reader: load through the file mapping and check it
/// reads the same graph.
void ProbeMappedLoad(const std::string& path, const MultiplexGraph& graph,
                     Report* report) {
  Result<MultiplexGraph> mapped = Status::Internal("not loaded");
  {
    ScopedSpan s("graph.load_mmap");
    mapped = LoadGraphMapped(path);
  }
  report->Check(mapped.ok() && FingerprintGraph(*mapped).Matches(FingerprintGraph(graph)),
                "mapped load equals copied load");
}

double AucOf(const std::vector<double>& scores, const MultiplexGraph& graph) {
  return RocAuc(scores, graph.labels());
}

double MacroF1AtInflection(const std::vector<double>& scores, const MultiplexGraph& graph) {
  const ThresholdResult t = SelectThresholdInflection(scores);
  return MacroF1(PredictWithThreshold(scores, t.threshold), graph.labels());
}

// ---------------------------------------------------------------------------
// The Fit mirror: UmgadModel::Fit's epoch loop re-run from the public API,
// with a span around every layer call. Must stay statement-for-statement
// equivalent to src/core/umgad.cc; the traced run checks its loss history
// and scores against UmgadModel::Fit bit-for-bit.
// ---------------------------------------------------------------------------

struct MirrorResult {
  Status status;
  std::vector<double> loss_history;
  std::vector<double> scores;
  double wall_s = 0.0;
  int64_t root_id = 0;
};

const char* ViewSpanName(ReconstructionView::Kind kind) {
  switch (kind) {
    case ReconstructionView::Kind::kOriginal:
      return "core.view_forward.original";
    case ReconstructionView::Kind::kAttrAugmented:
      return "core.view_forward.attr_aug";
    case ReconstructionView::Kind::kSubgraphAugmented:
      return "core.view_forward.subgraph_aug";
  }
  return "core.view_forward";
}

MirrorResult MirrorFit(const MultiplexGraph& graph, const UmgadConfig& config) {
  MirrorResult out;
  const int64_t t0 = NowNs();
  ScopedSpan root("bench.fit_mirror");
  out.root_id = root.id();

  Rng rng(config.seed);
  const int n = graph.num_nodes();
  const int r_count = graph.num_relations();
  const int f = graph.feature_dim();

  std::unique_ptr<ReconstructionView> original;
  std::unique_ptr<ReconstructionView> attr_augmented;
  std::unique_ptr<ReconstructionView> subgraph_augmented;
  {
    ScopedSpan s("core.view_build");
    if (config.use_original_view) {
      original = std::make_unique<ReconstructionView>(
          ReconstructionView::Kind::kOriginal, f, r_count, config, &rng);
    }
    if (config.use_attr_augmented_view && config.use_attribute_recon) {
      attr_augmented = std::make_unique<ReconstructionView>(
          ReconstructionView::Kind::kAttrAugmented, f, r_count, config, &rng);
    }
    if (config.use_subgraph_augmented_view) {
      subgraph_augmented = std::make_unique<ReconstructionView>(
          ReconstructionView::Kind::kSubgraphAugmented, f, r_count, config, &rng);
    }
  }

  std::vector<std::shared_ptr<const SparseMatrix>> norm_adjs;
  for (int r = 0; r < r_count; ++r) {
    ScopedSpan s("graph.normalize");
    norm_adjs.push_back(
        std::make_shared<const SparseMatrix>(graph.layer(r).NormalizedWithSelfLoops()));
  }
  const int num_partitions = ResolvePartitionCount(config.partitions);
  if (num_partitions >= 1) {
    ScopedSpan s("graph.partition");
    PartitionOptions popts;
    popts.num_blocks = num_partitions;
    popts.method = ResolvePartitionMethod(config.partition_method);
    popts.seed = config.seed;
    Result<VertexPartition> part = PartitionGraph(graph, popts);
    if (!part.ok()) {
      out.status = part.status();
      return out;
    }
    for (int r = 0; r < r_count; ++r) norm_adjs[r]->AttachRowBlocks(part.value().blocks);
  }
  {
    ScopedSpan s("tensor.index_build");
    ParallelFor(r_count, 1, [&](int64_t b, int64_t e) {
      for (int r = static_cast<int>(b); r < e; ++r) {
        norm_adjs[r]->EnsureTransposedIndex();
        if (config.encoder == EncoderKind::kGat) norm_adjs[r]->EnsureIncomingIndex();
      }
    });
  }

  std::vector<ReconstructionView*> active_views;
  for (ReconstructionView* view :
       {original.get(), attr_augmented.get(), subgraph_augmented.get()}) {
    if (view != nullptr) active_views.push_back(view);
  }
  std::vector<ag::VarPtr> params;
  for (ReconstructionView* view : active_views) {
    std::vector<ag::VarPtr> p = view->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  std::unique_ptr<nn::Adam> optimizer;
  {
    ScopedSpan s("nn.adam_init");
    optimizer = std::make_unique<nn::Adam>(params, config.learning_rate, 0.9f, 0.999f,
                                           1e-8f, config.weight_decay);
  }
  const int active_count = static_cast<int>(active_views.size());

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    ScopedSpan epoch_span("bench.epoch");
    {
      ScopedSpan s("tensor.tape_reset");
      ag::Tape::Global().Reset();
    }
    {
      ScopedSpan s("nn.zero_grad");
      optimizer->ZeroGrad();
    }
    std::vector<Rng> view_rngs;
    view_rngs.reserve(active_count);
    for (int v = 0; v < active_count; ++v) view_rngs.push_back(rng.Fork());
    std::vector<ViewForward> forwards(active_count);
    {
      ScopedSpan fanout("core.view_fanout");
      const int64_t fanout_id = fanout.id();
      ParallelFor(active_count, 1, [&](int64_t b, int64_t e) {
        for (int v = static_cast<int>(b); v < e; ++v) {
          ScopedSpan s(ViewSpanName(active_views[v]->kind()), fanout_id);
          forwards[v] = active_views[v]->Forward(graph, norm_adjs, &view_rngs[v]);
        }
      });
    }

    ViewForward orig;
    ViewForward attr_aug;
    ViewForward sub_aug;
    std::vector<ag::VarPtr> terms;
    {
      ScopedSpan s("core.loss_terms");
      int next = 0;
      if (original) {
        orig = std::move(forwards[next++]);
        if (orig.loss) terms.push_back(orig.loss);
      }
      if (attr_augmented) {
        attr_aug = std::move(forwards[next++]);
        if (attr_aug.loss) terms.push_back(ag::ScalarMul(attr_aug.loss, config.lambda));
      }
      if (subgraph_augmented) {
        sub_aug = std::move(forwards[next++]);
        if (sub_aug.loss) terms.push_back(ag::ScalarMul(sub_aug.loss, config.mu));
      }
    }
    if (config.use_contrastive) {
      ScopedSpan s("core.contrastive");
      ag::VarPtr anchor = orig.fused_recon;
      std::vector<ag::VarPtr> others;
      if (anchor) {
        if (attr_aug.fused_recon) others.push_back(attr_aug.fused_recon);
        if (sub_aug.fused_recon) others.push_back(sub_aug.fused_recon);
      } else if (attr_aug.fused_recon && sub_aug.fused_recon) {
        anchor = attr_aug.fused_recon;
        others.push_back(sub_aug.fused_recon);
      }
      if (anchor && !others.empty()) {
        std::vector<int> neg = nn::SampleContrastiveNegatives(n, &rng);
        ag::VarPtr zo = ag::RowL2Normalize(anchor);
        std::vector<ag::VarPtr> cl_terms;
        for (const ag::VarPtr& other : others) {
          cl_terms.push_back(ag::DualContrastiveLoss(zo, ag::RowL2Normalize(other), neg,
                                                     norm_adjs[0]->row_blocks()));
        }
        terms.push_back(ag::ScalarMul(
            cl_terms.size() == 1 ? cl_terms[0] : ag::AddN(cl_terms), config.theta));
      }
    }
    if (terms.empty()) {
      out.status = Status::Internal("no loss terms were produced");
      return out;
    }
    double loss_value = 0.0;
    ag::VarPtr loss;
    {
      ScopedSpan s("core.loss_terms");
      loss = terms.size() == 1 ? terms[0] : ag::AddN(terms);
      loss_value = loss->value().scalar();
    }
    if (!std::isfinite(loss_value)) break;
    out.loss_history.push_back(loss_value);
    {
      ScopedSpan s("tensor.backward");
      ag::Backward(loss);
    }
    {
      ScopedSpan s("nn.adam");
      optimizer->Step();
    }
  }

  {
    ScopedSpan s("core.score");
    std::vector<ViewScoring> scorings;
    for (ReconstructionView* view : active_views) {
      scorings.push_back(view->Score(graph, norm_adjs));
    }
    out.scores = ComputeAnomalyScores(graph, scorings, config.epsilon,
                                      config.num_score_negatives, &rng);
  }
  {
    ScopedSpan s("core.threshold");
    (void)SelectThresholdInflection(out.scores);
  }
  {
    ScopedSpan s("tensor.tape_reset");
    ag::Tape::Global().Reset();
  }
  out.wall_s = Seconds(NowNs() - t0);
  return out;
}

/// Share of the mirror's wall time spent inside layer spans: everything
/// but the self time of the harness's own "bench.*" container spans.
double MirrorCoverage(const SpanSet& set, int64_t root_id) {
  const SpanRecord* root = nullptr;
  for (const SpanRecord& s : set.spans) {
    if (s.id == root_id) root = &s;
  }
  if (root == nullptr || root->end_ns <= root->start_ns) return 0.0;
  double bench_self = 0.0;
  for (size_t i = 0; i < set.spans.size(); ++i) {
    const SpanRecord& s = set.spans[i];
    if (std::strncmp(s.name, "bench.", 6) == 0 && s.start_ns >= root->start_ns &&
        s.end_ns <= root->end_ns && s.thread == root->thread) {
      bench_self += set.self_s[i];
    }
  }
  return 1.0 - bench_self / root->seconds();
}

// ---------------------------------------------------------------------------
// Kernel probes on the workload's own operators (traced runs only).
// ---------------------------------------------------------------------------

Tensor RandomTensor(int rows, int cols, Rng* rng) {
  Tensor t(rows, cols);
  float* d = t.data();
  for (int64_t i = 0; i < t.size(); ++i) d[i] = static_cast<float>(rng->Normal());
  return t;
}

/// GFLOP/s of SparseMatrix::Multiply over every normalized relation
/// operator at width d_h (2 * nnz * d_h flops per product).
double ProbeSpmmGflops(const MultiplexGraph& graph, int hidden_dim, uint64_t seed) {
  ScopedSpan span("probe.spmm");
  Rng rng(seed);
  double flops = 0.0;
  double secs = 0.0;
  for (int r = 0; r < graph.num_relations(); ++r) {
    const SparseMatrix op = graph.layer(r).NormalizedWithSelfLoops();
    const Tensor x = RandomTensor(op.cols(), hidden_dim, &rng);
    std::vector<double> times;
    for (int rep = 0; rep < 7; ++rep) {
      const int64_t t0 = NowNs();
      Tensor y = op.Multiply(x);
      times.push_back(Seconds(NowNs() - t0));
      if (y.size() == 0) return 0.0;
    }
    flops += 2.0 * static_cast<double>(op.nnz()) * hidden_dim;
    secs += Median(times);
  }
  return secs > 0.0 ? flops / secs * 1e-9 : 0.0;
}

/// GFLOP/s of MatMul at N x f . f x d_h (the input projection shape).
double ProbeMatmulGflops(const MultiplexGraph& graph, int hidden_dim, uint64_t seed) {
  ScopedSpan span("probe.matmul");
  Rng rng(seed);
  const int n = graph.num_nodes();
  const int f = graph.feature_dim();
  const Tensor x = RandomTensor(n, f, &rng);
  const Tensor w = RandomTensor(f, hidden_dim, &rng);
  std::vector<double> times;
  for (int rep = 0; rep < 7; ++rep) {
    const int64_t t0 = NowNs();
    Tensor y = MatMul(x, w);
    times.push_back(Seconds(NowNs() - t0));
    if (y.size() == 0) return 0.0;
  }
  const double secs = Median(times);
  return secs > 0.0 ? 2.0 * n * f * hidden_dim / secs * 1e-9 : 0.0;
}

// ---------------------------------------------------------------------------
// fit-sparse / fit-dense
// ---------------------------------------------------------------------------

/// What one child process reports about its single Fit.
struct ChildFitResult {
  double fit_ms = 0.0;
  double epochs_per_s = 0.0;
  double auc = 0.0;
  double macro_f1 = 0.0;
  double flagged = 0.0;
  unsigned long long score_hash = 0;
  long long attempted = 0;
  long long failed = 0;
};

std::string ShellQuote(const std::string& arg) {
  std::string out = "'";
  for (char c : arg) out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  return out + "'";
}

/// Runs this binary in --child-fit mode (one Fit on the saved graph) and
/// parses its report line. Waits for the child to exit.
bool RunChildFit(const Options& opt, bool replay_check, ChildFitResult* r) {
  std::string cmd = ShellQuote(opt.program);
  for (const std::string& arg :
       {std::string("--workload"), opt.workload, std::string("--seed"),
        std::to_string(opt.seed), std::string("--seconds"), FormatNumber(opt.seconds),
        std::string("--trace"), std::string("0"), std::string("--out"), opt.out_dir,
        std::string("--child-fit"), std::string(replay_check ? "2" : "1")}) {
    cmd += " " + ShellQuote(arg);
  }
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  bool parsed = false;
  char line[512];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    parsed = parsed || std::sscanf(line, "child-fit %lf %lf %lf %lf %lf %llx %lld %lld",
                                   &r->fit_ms, &r->epochs_per_s, &r->auc, &r->macro_f1,
                                   &r->flagged, &r->score_hash, &r->attempted,
                                   &r->failed) == 8;
  }
  return pclose(pipe) == 0 && parsed;
}

/// Child side: load the saved graph, Fit once, check the scores and print
/// one report line. Mode 2 also replays the scores through the artifact.
int ChildFit(const Options& opt, const WorkloadSpec& spec, int mode) {
  Report report;
  Result<MultiplexGraph> graph = LoadGraphBinary(opt.out_dir + "/" + opt.workload + ".umgb");
  if (!graph.ok()) return 1;
  UmgadModel model(ModelConfig(spec.epochs));
  const int64_t t0 = NowNs();
  const Status st = model.Fit(*graph);
  const double fit_ms = 1e-6 * static_cast<double>(NowNs() - t0);
  report.Check(st.ok(), "Fit: " + st.ToString());
  if (!st.ok()) return 1;
  const std::vector<double>& scores = model.scores();
  report.Check(scores.size() == static_cast<size_t>(graph->num_nodes()) && AllFinite(scores),
               "fitted scores: one finite score per node");
  if (mode == 2) {
    Result<TrainedModel> trained = TrainedModel::FromFitted(model, *graph);
    Result<std::vector<double>> replay =
        trained.ok() ? trained->Score(*graph) : Result<std::vector<double>>(trained.status());
    report.Check(replay.ok() && BitEqual(*replay, scores),
                 "FromFitted(...).Score(graph) equals the fitted scores");
  }
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over the score bytes
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(scores.data());
  for (size_t i = 0; i < scores.size() * sizeof(double); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  std::printf("child-fit %.17g %.17g %.17g %.17g %d %llx %lld %lld\n", fit_ms,
              1.0 / model.epoch_seconds(), AucOf(scores, *graph),
              MacroF1AtInflection(scores, *graph), model.threshold_result().num_predicted,
              static_cast<unsigned long long>(hash), static_cast<long long>(report.attempted()),
              static_cast<long long>(report.failed()));
  return 0;
}

void RunFit(const Options& opt, const WorkloadSpec& spec, Report* report) {
  const std::string graph_path = opt.out_dir + "/" + opt.workload + ".umgb";
  std::vector<double> setup_s;
  MultiplexGraph graph;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = NowNs();
    graph = GenerateSaveLoad(spec.dataset, opt.seed, graph_path, report);
    setup_s.push_back(Seconds(NowNs() - t0));
  }
  report->Set("setup_s", Median(setup_s));
  report->Note("graph", graph.Summary());
  const UmgadConfig config = ModelConfig(spec.epochs);

  if (!opt.trace) {
    // Timed phase: one Fit per child process until the budget is spent. A
    // user fits once per process, so each timed Fit starts cold (empty
    // tensor pool, no cached indexes), never on buffers a previous Fit left.
    std::vector<double> fit_ms;
    std::vector<double> epochs_per_s;
    ChildFitResult first;
    const int64_t phase_start = NowNs();
    while (fit_ms.empty() || Seconds(NowNs() - phase_start) < opt.seconds) {
      ChildFitResult r;
      const bool ok = RunChildFit(opt, /*replay_check=*/fit_ms.empty(), &r);
      report->Check(ok, "child Fit process exits cleanly and reports");
      if (!ok) return;
      report->Ops(r.attempted, r.failed);
      fit_ms.push_back(r.fit_ms);
      epochs_per_s.push_back(r.epochs_per_s);
      if (fit_ms.size() == 1) {
        first = r;
      } else {
        report->Check(r.score_hash == first.score_hash, "repeated Fit gives identical scores");
      }
    }
    report->Set("op_p50_ms", Median(fit_ms));
    report->Set("throughput_per_s", Median(epochs_per_s));
    report->Set("auc", first.auc);
    report->Set("peak_rss_mb", std::max(PeakRssMb(), PeakRssMb(RUSAGE_CHILDREN)));
    report->Note("macro_f1 at inflection", first.macro_f1);
    report->Note("flagged at inflection", first.flagged);
    report->Note("fit_s (median)", Median(fit_ms) / 1e3);
    std::string all_ms;
    for (double ms : fit_ms) all_ms += (all_ms.empty() ? "" : " ") + FormatNumber(ms);
    report->Note("fit ms, one process each", all_ms);
    return;
  }

  // Traced run: one untraced reference Fit, the traced mirror, a second
  // untraced Fit (warm pool, like the mirror) for the overhead base.
  ProbeMappedLoad(graph_path, graph, report);
  Tracer::Get().set_enabled(false);
  UmgadModel reference(config);
  report->Check(reference.Fit(graph).ok(), "reference Fit");
  Tracer::Get().set_enabled(true);
  const MirrorResult mirror = MirrorFit(graph, config);
  Tracer::Get().set_enabled(false);
  UmgadModel warm(config);
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  report->Check(warm.Fit(graph).ok(), "second reference Fit");
  const double warm_wall = Seconds(NowNs() - t0);
  const double warm_cpu = CpuSeconds() - cpu0;
  report->Check(BitEqual(warm.scores(), reference.scores()),
                "repeated Fit gives identical scores");
  Tracer::Get().set_enabled(true);
  report->Check(mirror.status.ok(), "mirror Fit: " + mirror.status.ToString());
  report->Set("core.threshold_macro_f1", MacroF1AtInflection(reference.scores(), graph));
  const bool match = BitEqual(mirror.loss_history, reference.loss_history()) &&
                     BitEqual(mirror.scores, reference.scores());
  report->Note("mirror matches Fit bit-for-bit",
               match ? "yes" : "NO: per-layer numbers are stale");
  report->Set("bench.mirror_match", match ? 1.0 : 0.0);
  report->Set("tensor.spmm_gflops",
              ProbeSpmmGflops(graph, config.hidden_dim, opt.seed));
  report->Set("tensor.matmul_gflops",
              ProbeMatmulGflops(graph, config.hidden_dim, opt.seed));

  const SpanSet set = SpanSet::Collect();
  report->Set("graph.generate_ms", 1e3 * set.MedianSeconds("graph.generate"));
  report->Set("graph.save_ms", 1e3 * set.MedianSeconds("graph.save"));
  report->Set("graph.load_copy_ms", 1e3 * set.MedianSeconds("graph.load_copy"));
  report->Set("graph.load_mmap_ms", 1e3 * set.MedianSeconds("graph.load_mmap"));
  report->Set("graph.normalize_ms", 1e3 * set.SumSeconds("graph.normalize"));
  report->Set("tensor.index_build_ms", 1e3 * set.SumSeconds("tensor.index_build"));
  report->Set("tensor.backward_s", set.SumSeconds("tensor.backward"));
  report->Set("tensor.tape_reset_ms", 1e3 * set.SumSeconds("tensor.tape_reset"));
  report->Set("tensor.pool_fresh_mb.first_epoch",
              static_cast<double>(reference.first_epoch_fresh_bytes()) / (1 << 20));
  report->Set("tensor.pool_fresh_mb.steady",
              static_cast<double>(reference.steady_state_fresh_bytes()) / (1 << 20));
  report->Set("nn.adam_ms", 1e3 * set.SumSeconds("nn.adam"));
  const double v_orig = set.SumSeconds("core.view_forward.original");
  const double v_attr = set.SumSeconds("core.view_forward.attr_aug");
  const double v_sub = set.SumSeconds("core.view_forward.subgraph_aug");
  const double fanout = set.SumSeconds("core.view_fanout");
  report->Set("core.view_forward_s.original", v_orig);
  report->Set("core.view_forward_s.attr_aug", v_attr);
  report->Set("core.view_forward_s.subgraph_aug", v_sub);
  report->Set("core.view_fanout_s", fanout);
  report->Set("core.view_overlap", fanout > 0 ? (v_orig + v_attr + v_sub) / fanout : 0.0);
  report->Set("core.contrastive_ms", 1e3 * set.SumSeconds("core.contrastive"));
  report->Set("core.score_s", set.SumSeconds("core.score"));
  report->Set("core.threshold_ms", 1e3 * set.SumSeconds("core.threshold"));
  report->Set("common.cpu_busy_share", warm_cpu / (warm_wall * NumThreads()));
  report->Set("bench.trace_coverage", MirrorCoverage(set, mirror.root_id));
  report->Set("bench.trace_overhead", mirror.wall_s / warm_wall - 1.0);
  SetLayerSelfTimes(set, report);
  report->Note("untraced fit_s", warm_wall);
  report->Note("traced mirror fit_s", mirror.wall_s);
  WriteSpans(set.spans, opt.out_dir + "/spans-" + opt.workload + ".jsonl");
}

// ---------------------------------------------------------------------------
// Serving: shared preparation and the seeded update stream.
// ---------------------------------------------------------------------------

/// A seeded stream of valid updates: half removals of a present edge, half
/// inserts of an absent one, tracked against a mirror of the adjacency.
class UpdateStream {
 public:
  UpdateStream(const MultiplexGraph& graph, uint64_t seed)
      : rng_(seed ^ 0x9e3779b97f4a7c15ULL), num_nodes_(graph.num_nodes()) {
    for (int r = 0; r < graph.num_relations(); ++r) mirror_.emplace_back(graph.layer(r));
  }

  EdgeUpdate Next() {
    for (;;) {
      EdgeUpdate u;
      u.relation = static_cast<int>(rng_.UniformInt(mirror_.size()));
      serve::DynamicAdjacency& adj = mirror_[u.relation];
      if (rng_.Bernoulli(0.5)) {
        for (int attempt = 0; attempt < 64; ++attempt) {
          const int i = static_cast<int>(rng_.UniformInt(num_nodes_));
          if (adj.degree(i) == 0) continue;
          const int j = adj.neighbors(i)[rng_.UniformInt(adj.degree(i))];
          adj.RemoveEntry(i, j);
          adj.RemoveEntry(j, i);
          u.src = i;
          u.dst = j;
          u.add = false;
          return u;
        }
        continue;
      }
      u.src = static_cast<int>(rng_.UniformInt(num_nodes_));
      u.dst = static_cast<int>(rng_.UniformInt(num_nodes_));
      if (u.src == u.dst || adj.Has(u.src, u.dst)) continue;
      adj.AddEntry(u.src, u.dst, 1.0f);
      adj.AddEntry(u.dst, u.src, 1.0f);
      u.add = true;
      return u;
    }
  }

 private:
  Rng rng_;
  int num_nodes_;
  std::vector<serve::DynamicAdjacency> mirror_;
};

/// One-off preparation of the serve workloads: the fit-sparse graph, a
/// model fitted on it, both saved. Returns the preparation wall time.
double PrepareServing(const Options& opt, const std::string& graph_path,
                      const std::string& model_path, Report* report) {
  const int64_t t0 = NowNs();
  MultiplexGraph graph = GenerateSaveLoad("DG-Fin", opt.seed, graph_path, report);
  UmgadModel model(ModelConfig(kServeModelEpochs));
  {
    ScopedSpan s("core.fit");
    report->Check(model.Fit(graph).ok(), "serve model Fit");
  }
  Result<TrainedModel> trained = TrainedModel::FromFitted(model, graph);
  report->Check(trained.ok(), "FromFitted");
  if (!trained.ok()) return Seconds(NowNs() - t0);
  ScopedSpan s("core.model_save");
  report->Check(trained->Save(model_path).ok(), "save " + model_path);
  return Seconds(NowNs() - t0);
}

/// What a serving process does at start: load the graph and the model.
bool LoadForServing(const std::string& graph_path, const std::string& model_path,
                    MultiplexGraph* graph, TrainedModel* model, Report* report) {
  {
    ScopedSpan s("graph.load_copy");
    Result<MultiplexGraph> g = LoadGraphBinary(graph_path);
    report->Check(g.ok(), "load " + graph_path);
    if (!g.ok()) return false;
    *graph = std::move(g).value();
  }
  ScopedSpan s("core.model_load");
  Result<TrainedModel> m = TrainedModel::Load(model_path);
  report->Check(m.ok(), "load " + model_path);
  if (!m.ok()) return false;
  *model = std::move(m).value();
  return true;
}

void SetServeSetupMetrics(const SpanSet& set, Report* report) {
  report->Set("graph.generate_ms", 1e3 * set.MedianSeconds("graph.generate"));
  report->Set("graph.save_ms", 1e3 * set.MedianSeconds("graph.save"));
  report->Set("graph.load_copy_ms", 1e3 * set.MedianSeconds("graph.load_copy"));
  report->Set("graph.load_mmap_ms", 1e3 * set.MedianSeconds("graph.load_mmap"));
  report->Set("core.model_save_ms", 1e3 * set.MedianSeconds("core.model_save"));
  report->Set("core.model_load_ms", 1e3 * set.MedianSeconds("core.model_load"));
  report->Set("serve.create_s", set.MedianSeconds("serve.create"));
}

/// Median wall time of CombineComponents over the scorer's components,
/// timed from outside.
double ProbeCombineMs(const serve::OnlineScorer& scorer, float epsilon) {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan s("serve.combine");
    const int64_t t0 = NowNs();
    const std::vector<double> scores = serve::CombineComponents(
        scorer.Components(), scorer.num_nodes(), scorer.num_relations(), epsilon);
    ms.push_back(1e-6 * static_cast<double>(NowNs() - t0));
    if (scores.empty()) return 0.0;
  }
  return Median(ms);
}

// ---------------------------------------------------------------------------
// serve-stream: closed loop, one client.
// ---------------------------------------------------------------------------

void RunServeStream(const Options& opt, Report* report) {
  const std::string graph_path = opt.out_dir + "/" + opt.workload + ".umgb";
  const std::string model_path = opt.out_dir + "/" + opt.workload + ".umgm";
  const double prep_s = PrepareServing(opt, graph_path, model_path, report);
  if (report->failed() > 0) return;

  std::vector<double> startup_s;
  MultiplexGraph graph;
  std::unique_ptr<serve::OnlineScorer> scorer;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = NowNs();
    TrainedModel model;
    if (!LoadForServing(graph_path, model_path, &graph, &model, report)) return;
    ScopedSpan s("serve.create");
    Result<std::unique_ptr<serve::OnlineScorer>> created =
        serve::OnlineScorer::Create(std::move(model), graph);
    report->Check(created.ok(), "OnlineScorer::Create");
    if (!created.ok()) return;
    scorer = std::move(created).value();
    startup_s.push_back(Seconds(NowNs() - t0));
  }
  report->Set("setup_s", prep_s + Median(startup_s));
  ProbeMappedLoad(graph_path, graph, report);
  report->Note("graph", graph.Summary());
  report->Note("prepare_s (generate, fit, save)", prep_s);
  report->Note("startup_s (median of load + Create)", Median(startup_s));

  // Timed phase: one ApplyEdgeUpdate at a time until the budget is spent
  // and at least 1010 samples exist (so p99 has ten beyond it). Stream
  // generation runs in chunks outside the clock.
  UpdateStream stream(graph, opt.seed);
  std::vector<double> latency_ms;
  int64_t dirty_rows = 0;
  int64_t rescored = 0;
  int64_t failed_ops = 0;
  int64_t timed_ns = 0;
  std::vector<EdgeUpdate> chunk;
  while (latency_ms.size() < 1010 || Seconds(timed_ns) < opt.seconds) {
    chunk.clear();
    for (int k = 0; k < 256; ++k) chunk.push_back(stream.Next());
    const int64_t chunk_start = NowNs();
    for (const EdgeUpdate& u : chunk) {
      ScopedSpan s("serve.apply_edge_update");
      const int64_t t0 = NowNs();
      const Status st = scorer->ApplyEdgeUpdate(u);
      latency_ms.push_back(1e-6 * static_cast<double>(NowNs() - t0));
      if (!st.ok()) ++failed_ops;
      const serve::ServeStats& stats = scorer->stats();
      dirty_rows += stats.last_dirty_rows;
      rescored += stats.last_rescored_nodes;
    }
    timed_ns += NowNs() - chunk_start;
  }
  const double applied = static_cast<double>(latency_ms.size());
  report->Ops(static_cast<int64_t>(applied), failed_ops);

  const std::vector<double> scores = scorer->scores();
  {
    ScopedSpan s("serve.rescore_full_naive");
    report->Check(BitEqual(scores, scorer->RescoreFullNaive()),
                  "scores() equals RescoreFullNaive() after the stream");
  }
  report->Check(scores.size() == static_cast<size_t>(graph.num_nodes()) && AllFinite(scores),
                "served scores: one finite score per node");

  std::string tail_label;
  report->Set("op_p50_ms", Median(latency_ms));
  report->Set("serve.update_p99_us", 1e3 * Tail(latency_ms, &tail_label));
  report->Set("throughput_per_s", applied / Seconds(timed_ns));
  report->Set("auc", AucOf(scores, graph));
  report->Set("core.threshold_macro_f1", MacroF1AtInflection(scores, graph));
  report->Note("macro_f1 at inflection", report->Get("core.threshold_macro_f1"));
  report->Set("peak_rss_mb", PeakRssMb());
  report->Note("updates applied", applied);
  report->Note("update latency " + tail_label + " (us)", report->Get("serve.update_p99_us"));

  const serve::ServeStats& stats = scorer->stats();
  const int64_t lookups = stats.cache_hits + stats.cache_misses;
  report->Set("serve.dirty_rows_per_update", static_cast<double>(dirty_rows) / applied);
  report->Set("serve.rescored_nodes_per_update", static_cast<double>(rescored) / applied);
  report->Set("serve.cache_hit_rate",
              lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0);
  if (opt.trace) {
    report->Set("serve.combine_ms", ProbeCombineMs(*scorer, scorer->model().config().epsilon));
    const SpanSet set = SpanSet::Collect();
    SetServeSetupMetrics(set, report);
    SetLayerSelfTimes(set, report);
    WriteSpans(set.spans, opt.out_dir + "/spans-" + opt.workload + ".jsonl");
  }
}

// ---------------------------------------------------------------------------
// serve-router: open loop at fixed rates, one concurrent reader.
// ---------------------------------------------------------------------------

struct Observation {
  int64_t t_ns = 0;
  int64_t min_applied = 0;
  int64_t backlog = 0;
};

/// Reader thread: every kReaderPeriodUs, Query() a fixed node set and look
/// at Snapshot(); records Query latency and each change of the visible
/// stream position.
class Reader {
 public:
  Reader(const serve::ShardRouter& router, std::vector<int> nodes,
         const std::atomic<int64_t>& submitted)
      : router_(router), nodes_(std::move(nodes)), submitted_(submitted) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Reader() { Stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Stop().
  const std::vector<Observation>& observations() const { return observations_; }
  const std::vector<double>& query_us() const { return query_us_; }
  const std::vector<double>& period_us() const { return period_us_; }
  int64_t query_failures() const { return query_failures_; }

 private:
  void Loop() {
    int64_t last_tick = NowNs();
    int64_t last_pos = -1;
    while (!stop_.load()) {
      const int64_t tick = NowNs();
      period_us_.push_back(1e-3 * static_cast<double>(tick - last_tick));
      last_tick = tick;
      {
        ScopedSpan s("router.query");
        const int64_t q0 = NowNs();
        Result<std::vector<double>> q = router_.Query(nodes_);
        query_us_.push_back(1e-3 * static_cast<double>(NowNs() - q0));
        if (!q.ok() || q->size() != nodes_.size()) ++query_failures_;
      }
      const int64_t submitted = submitted_.load();
      std::shared_ptr<const serve::ScoreSnapshot> snap;
      {
        ScopedSpan s("router.snapshot");
        snap = router_.Snapshot();
      }
      const int64_t now = NowNs();
      if (snap->min_applied != last_pos) {
        observations_.push_back({now, snap->min_applied, submitted - snap->min_applied});
        last_pos = snap->min_applied;
      } else {
        observations_.push_back({now, last_pos, submitted - last_pos});
      }
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(tick + kReaderPeriodUs * 1000)));
    }
  }

  const serve::ShardRouter& router_;
  std::vector<int> nodes_;
  const std::atomic<int64_t>& submitted_;
  std::atomic<bool> stop_{false};
  std::vector<Observation> observations_;
  std::vector<double> query_us_;
  std::vector<double> period_us_;
  int64_t query_failures_ = 0;
  std::thread thread_;  // last: started after every member it uses exists
};

struct StageResult {
  double rate = 0.0;
  int64_t first = 0;  // global stream index of the stage's first update
  int64_t count = 0;
  std::vector<int64_t> due_ns;
  int64_t drained_ns = 0;  // when Flush() returned
};

void RunServeRouter(const Options& opt, Report* report) {
  const std::string graph_path = opt.out_dir + "/" + opt.workload + ".umgb";
  const std::string model_path = opt.out_dir + "/" + opt.workload + ".umgm";
  const double prep_s = PrepareServing(opt, graph_path, model_path, report);
  if (report->failed() > 0) return;

  serve::RouterOptions router_options;
  router_options.num_shards = kRouterShards;
  std::vector<double> startup_s;
  MultiplexGraph graph;
  TrainedModel model;
  std::unique_ptr<serve::ShardRouter> router;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    router.reset();
    const int64_t t0 = NowNs();
    if (!LoadForServing(graph_path, model_path, &graph, &model, report)) return;
    ScopedSpan s("router.create");
    Result<std::unique_ptr<serve::ShardRouter>> created =
        serve::ShardRouter::Create(model, graph, router_options);
    report->Check(created.ok(), "ShardRouter::Create");
    if (!created.ok()) return;
    router = std::move(created).value();
    startup_s.push_back(Seconds(NowNs() - t0));
  }
  report->Set("setup_s", prep_s + Median(startup_s));
  ProbeMappedLoad(graph_path, graph, report);
  report->Note("graph", graph.Summary());
  report->Note("prepare_s (generate, fit, save)", prep_s);
  report->Note("startup_s (median of load + Create)", Median(startup_s));
  const uint64_t epoch0 = router->Snapshot()->epoch;

  // Stage sizes: every rated stage gets the same update count N, chosen so
  // the ladder plus the unthrottled stage (4N updates at roughly 4000/s)
  // take 90% of the time budget.
  double time_per_update = 4.0 / 4000.0;
  for (double m : kRateLadder) time_per_update += 1.0 / (m * kReferenceRate);
  const int64_t per_stage = std::max<int64_t>(
      1010, static_cast<int64_t>(0.9 * opt.seconds / time_per_update));

  UpdateStream stream(graph, opt.seed);
  std::vector<EdgeUpdate> all_updates;
  Rng query_rng(opt.seed + 17);
  std::vector<int> query_nodes;
  for (int k = 0; k < kQueryNodes; ++k) {
    query_nodes.push_back(static_cast<int>(query_rng.UniformInt(graph.num_nodes())));
  }

  std::atomic<int64_t> submitted{0};
  std::vector<double> submit_us;
  std::vector<double> late_us;
  std::vector<StageResult> stages;
  double unthrottled_rate = 0.0;
  {
    Reader reader(*router, query_nodes, submitted);
    auto run_stage = [&](double rate, int64_t count) {
      StageResult stage;
      stage.rate = rate;
      stage.first = static_cast<int64_t>(all_updates.size());
      stage.count = count;
      std::vector<EdgeUpdate> updates;
      for (int64_t k = 0; k < count; ++k) updates.push_back(stream.Next());
      const int64_t start = NowNs() + 2'000'000;
      for (int64_t k = 0; k < count; ++k) {
        const int64_t due =
            rate > 0 ? start + static_cast<int64_t>(1e9 * static_cast<double>(k) / rate)
                     : NowNs();
        if (rate > 0) {
          std::this_thread::sleep_until(
              std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
        }
        const int64_t s0 = NowNs();
        late_us.push_back(1e-3 * static_cast<double>(s0 - due));
        {
          ScopedSpan s("router.submit");
          router->Submit({updates[k]});
        }
        submit_us.push_back(1e-3 * static_cast<double>(NowNs() - s0));
        submitted.fetch_add(1);
        stage.due_ns.push_back(due);
      }
      {
        ScopedSpan s("router.flush");
        router->Flush();
      }
      stage.drained_ns = NowNs();
      all_updates.insert(all_updates.end(), updates.begin(), updates.end());
      return stage;
    };
    for (double m : kRateLadder) stages.push_back(run_stage(m * kReferenceRate, per_stage));
    // Unthrottled: submit back to back; capacity = updates / time from the
    // first submit until drained.
    const StageResult burst = run_stage(0.0, 4 * per_stage);
    const int64_t u0 = burst.due_ns.front();
    unthrottled_rate =
        static_cast<double>(burst.count) / Seconds(burst.drained_ns - u0);
    reader.Stop();

    // Freshness: an update at stream index k is visible at the first
    // observation whose min_applied exceeds k.
    const std::vector<Observation>& obs = reader.observations();
    double max_rate = 0.0;
    for (size_t si = 0; si < stages.size(); ++si) {
      const StageResult& st = stages[si];
      std::vector<double> fresh_ms;
      size_t cursor = 0;
      for (int64_t k = 0; k < st.count; ++k) {
        const int64_t index = st.first + k;
        while (cursor < obs.size() && obs[cursor].min_applied <= index) ++cursor;
        if (cursor == obs.size()) break;
        fresh_ms.push_back(1e-6 * static_cast<double>(obs[cursor].t_ns - st.due_ns[k]));
      }
      report->Check(static_cast<int64_t>(fresh_ms.size()) == st.count,
                    "every update became visible");
      // Backlog growth: mean backlog over the second half of the stage vs
      // the first half.
      const int64_t t_begin = st.due_ns.front();
      const int64_t t_mid = st.due_ns[st.count / 2];
      const int64_t t_end = st.due_ns.back();
      double b1 = 0, b2 = 0;
      int n1 = 0, n2 = 0;
      for (const Observation& o : obs) {
        if (o.t_ns >= t_begin && o.t_ns < t_mid) {
          b1 += static_cast<double>(o.backlog);
          ++n1;
        } else if (o.t_ns >= t_mid && o.t_ns <= t_end) {
          b2 += static_cast<double>(o.backlog);
          ++n2;
        }
      }
      b1 = n1 ? b1 / n1 : 0.0;
      b2 = n2 ? b2 / n2 : 0.0;
      std::string label;
      const double p99 = Tail(fresh_ms, &label);
      const bool growing = b2 > 2.0 * b1 + router_options.max_burst;
      const bool meets = label == "p99" && p99 <= kFreshLimitMs && !growing;
      if (meets) max_rate = std::max(max_rate, st.rate);
      report->Note("rate " + FormatNumber(st.rate) + "/s",
                   "fresh p50 " + FormatNumber(Median(fresh_ms)) + " ms, " + label + " " +
                       FormatNumber(p99) + " ms, n=" + std::to_string(fresh_ms.size()) +
                       ", backlog " + FormatNumber(b1) + " -> " + FormatNumber(b2) +
                       (meets ? ", meets limit" : ", misses limit"));
      if (si == 0) {
        std::vector<double> sorted = fresh_ms;
        std::sort(sorted.begin(), sorted.end());
        std::string dist;
        for (double p : {50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 100.0}) {
          dist += " " + FormatNumber(NearestRank(sorted, p, nullptr));
        }
        report->Note("reference fresh ms p50 p90 p95 p98 p99 p99.5 max", dist);
        report->Set("op_p50_ms", Median(fresh_ms));
        report->Set("router.fresh_p99_ms", p99);
      }
    }
    int64_t backlog_max = 0;
    for (const Observation& o : obs) {
      if (o.t_ns < u0) backlog_max = std::max(backlog_max, o.backlog);  // rated stages only
    }
    report->Set("router.max_rate", max_rate);
    report->Set("router.backlog_max", static_cast<double>(backlog_max));
    std::string label;
    report->Set("router.query_p99_us", Tail(reader.query_us(), &label));
    report->Note("query tail is", label);
    report->Set("bench.reader_period_us", Median(reader.period_us()));
    report->Ops(static_cast<int64_t>(reader.query_us().size()), reader.query_failures());
  }
  report->Set("throughput_per_s", unthrottled_rate);
  {
    std::string label;
    report->Set("router.submit_p99_us", Tail(submit_us, &label));
    report->Set("bench.gen_late_p99_us", Tail(late_us, &label));
  }

  const serve::RouterStats stats = router->Stats();
  report->Ops(static_cast<int64_t>(all_updates.size()),
              stats.total_rejected + stats.total_dropped);
  report->Check(stats.total_rejected == 0 && stats.total_dropped == 0,
                "router rejected and dropped no update");
  std::shared_ptr<const serve::ScoreSnapshot> drained = router->Snapshot();
  report->Check(drained->stream_consistent &&
                    drained->min_applied == static_cast<int64_t>(all_updates.size()),
                "drained snapshot is stream-consistent at the end of the stream");

  int64_t queue_peak = 0;
  double busy_max = 0.0;
  double busy_sum = 0.0;
  for (const serve::ShardStatsSnapshot& s : stats.shards) {
    queue_peak = std::max(queue_peak, s.queue_peak);
    const double busy = s.update_latency.mean_us * static_cast<double>(s.update_latency.count);
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
  }
  report->Set("router.queue_peak", static_cast<double>(queue_peak));
  report->Set("router.backpressure_waits", static_cast<double>(stats.total_backpressure_waits));
  report->Set("router.publish_p50_us", stats.publish_latency.p50_us);
  report->Set("router.publishes_per_update",
              static_cast<double>(drained->epoch - epoch0) /
                  static_cast<double>(all_updates.size()));
  report->Set("router.shard_busy_skew",
              busy_sum > 0 ? busy_max / (busy_sum / static_cast<double>(stats.shards.size()))
                           : 0.0);
  report->Set("serve.cache_hit_rate", stats.cache_hit_rate);
  router.reset();

  // Flat oracle after the same stream.
  std::unique_ptr<serve::OnlineScorer> flat;
  {
    ScopedSpan s("serve.create");
    Result<std::unique_ptr<serve::OnlineScorer>> created =
        serve::OnlineScorer::Create(model, graph);
    report->Check(created.ok(), "flat OnlineScorer::Create");
    if (!created.ok()) return;
    flat = std::move(created).value();
  }
  {
    ScopedSpan s("serve.apply_edge_updates");
    report->Check(flat->ApplyEdgeUpdates(all_updates).ok(), "flat scorer applies the stream");
  }
  report->Check(BitEqual(drained->scores, flat->scores()),
                "drained snapshot equals the flat scorer after the same stream");
  report->Check(AllFinite(drained->scores), "served scores are finite");
  report->Set("auc", AucOf(drained->scores, graph));
  report->Set("core.threshold_macro_f1", MacroF1AtInflection(drained->scores, graph));
  report->Note("macro_f1 at inflection", report->Get("core.threshold_macro_f1"));
  report->Set("peak_rss_mb", PeakRssMb());
  report->Note("updates submitted", static_cast<double>(all_updates.size()));
  report->Note("unthrottled updates/s", unthrottled_rate);
  if (opt.trace) {
    report->Set("serve.combine_ms", ProbeCombineMs(*flat, model.config().epsilon));
    const SpanSet set = SpanSet::Collect();
    SetServeSetupMetrics(set, report);
    SetLayerSelfTimes(set, report);
    WriteSpans(set.spans, opt.out_dir + "/spans-" + opt.workload + ".jsonl");
  }
}

// ---------------------------------------------------------------------------
// Provenance and main.
// ---------------------------------------------------------------------------

std::string ProvenanceJson(const Options& opt) {
  std::ostringstream out;
  out << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"seconds\": " << FormatNumber(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"git_sha\": \"" << opt.git_sha
      << "\", \"source_hash\": \"" << opt.source_hash
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"lanes\": " << NumThreads() << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"cpu_features\": \""
      << dispatch::CpuFeatureListString(dispatch::DetectedCpuFeatures())
      << "\", \"kernels\": {";
  bool first = true;
  for (const dispatch::KernelSelection& sel : dispatch::KernelRegistry::Global()->Selections()) {
    out << (first ? "" : ", ") << "\"" << dispatch::KernelOpName(sel.op) << "\": \""
        << sel.variant << "\"";
    first = false;
  }
  out << "}}";
  return out.str();
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else if (key == "--out") {
      opt->out_dir = value;
    } else if (key == "--source-hash") {
      opt->source_hash = value;
    } else if (key == "--git-sha") {
      opt->git_sha = value;
    } else if (key == "--child-fit") {
      opt->child_fit = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opt->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Options opt;
  opt.program = argv[0];
  if (!ParseArgs(argc, argv, &opt)) {
    std::cerr << "usage: umgad_perf --workload W --seed N --seconds S --trace 0|1"
                 " [--out DIR] [--source-hash H] [--git-sha S]\n";
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  SetNumThreads(std::min(nproc, kMaxLanes));
  Tracer::Get().set_enabled(opt.trace);
  const WorkloadSpec sparse{"DG-Fin", kSparseEpochs};
  const WorkloadSpec dense{"Amazon", kDenseEpochs};
  if (opt.child_fit != 0) {
    if (opt.workload != "fit-sparse" && opt.workload != "fit-dense") return 2;
    return ChildFit(opt, opt.workload == "fit-sparse" ? sparse : dense, opt.child_fit);
  }

  const std::string provenance = ProvenanceJson(opt);
  std::cout << "provenance: " << provenance << "\n";
  Report report;
  if (opt.workload == "fit-sparse") {
    RunFit(opt, sparse, &report);
  } else if (opt.workload == "fit-dense") {
    RunFit(opt, dense, &report);
  } else if (opt.workload == "serve-stream") {
    RunServeStream(opt, &report);
  } else if (opt.workload == "serve-router") {
    RunServeRouter(opt, &report);
  } else {
    std::cerr << "unknown workload: " << opt.workload << "\n";
    return 2;
  }

  const std::string result =
      opt.trace ? report.ResultJson(kPerLayer) : report.ResultJson(kEndToEnd);
  std::ofstream record(opt.out_dir + "/run-" + opt.workload + "-seed" +
                       std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0") +
                       ".json");
  record << "{\"provenance\": " << provenance << ", \"notes\": " << report.NotesJson()
         << ", \"result\": " << result << "}\n";
  std::cout << result << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
