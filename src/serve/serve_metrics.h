#ifndef UMGAD_SERVE_SERVE_METRICS_H_
#define UMGAD_SERVE_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace umgad {
namespace serve {

/// Point-in-time summary of one or more latency histograms, embedded in
/// stats snapshots.
struct HistogramSnapshot {
  int64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
};

class LatencyHistogram;

/// Summarises the merge of `histograms`: counts, sums and buckets add, the
/// max is the largest. p50/p99 are nearest-rank over the merged buckets,
/// reported as their bucket's geometric midpoint and clamped to the max.
/// All zeros when no sample was recorded.
HistogramSnapshot SnapshotHistograms(
    const std::vector<const LatencyHistogram*>& histograms);

/// Lock-free log₂-bucketed latency histogram. Record() is wait-free
/// (relaxed atomic increments) and safe from any number of threads;
/// SnapshotHistograms reads a racy-but-monotone view, which is exactly
/// right for metrics (each bucket is only ever incremented). Resolution is
/// one power of two, so p50/p99 carry at most ~41% relative error — plenty
/// for SLO gating, and the price of never taking a lock on the serve path.
class LatencyHistogram {
 public:
  /// Bucket b holds samples in [2^b, 2^(b+1)) microseconds; bucket 0 also
  /// absorbs sub-microsecond samples. 2^39 us ≈ 6.4 days caps the top.
  static constexpr int kBuckets = 40;

  void Record(double micros);

 private:
  friend HistogramSnapshot SnapshotHistograms(
      const std::vector<const LatencyHistogram*>& histograms);

  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_tenth_us_{0};  // sum in 0.1us ticks
  std::atomic<int64_t> max_tenth_us_{0};
};

/// One shard's serving counters, as captured by ShardRouter::Stats().
struct ShardStatsSnapshot {
  int shard = 0;
  int owned_nodes = 0;
  /// Updates accepted into this shard's queue / applied by its worker /
  /// rejected as invalid (bad endpoint, duplicate insert, absent removal).
  int64_t enqueued = 0;
  int64_t applied = 0;
  int64_t rejected = 0;
  /// Submit() calls that had to block on a full queue.
  int64_t backpressure_waits = 0;
  int64_t queue_depth = 0;
  int64_t queue_peak = 0;
  /// Per-update apply latency (burst latency divided evenly over the
  /// burst's updates) and per-publish combine+swap latency.
  HistogramSnapshot update_latency;
  HistogramSnapshot publish_latency;
};

/// Whole-router stats: per-shard snapshots plus cross-shard aggregates.
struct RouterStats {
  int num_shards = 0;
  /// Snapshot epoch readers currently see (number of publishes).
  uint64_t epoch = 0;
  /// True when every shard had applied the same number of updates at
  /// capture time (always true after Flush()): the published scores equal
  /// the flat oracle's at that stream position.
  bool stream_consistent = false;
  int64_t total_enqueued = 0;
  int64_t total_applied = 0;
  int64_t total_rejected = 0;
  /// Always 0: the router never sheds an update. Kept because perfbench
  /// still reads it.
  int64_t total_dropped = 0;
  int64_t total_backpressure_waits = 0;
  int64_t queue_depth = 0;
  /// Always 0: serving keeps every stage row, so there is no row cache to
  /// hit or miss. Kept because perfbench still reads it.
  double cache_hit_rate = 0.0;
  /// Aggregate latency over all shards' merged buckets.
  HistogramSnapshot update_latency;
  HistogramSnapshot publish_latency;
  std::vector<ShardStatsSnapshot> shards;
};

/// Human-readable multi-line rendering (umgad_cli serve --metrics).
std::string FormatRouterStats(const RouterStats& stats);

}  // namespace serve
}  // namespace umgad

#endif  // UMGAD_SERVE_SERVE_METRICS_H_
