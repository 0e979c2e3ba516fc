#ifndef UMGAD_SERVE_SERVE_METRICS_H_
#define UMGAD_SERVE_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace umgad {
namespace serve {

/// Lock-free log₂-bucketed latency histogram. Record() is wait-free
/// (relaxed atomic increments) and safe from any number of threads;
/// Percentile()/Snapshot() read a racy-but-monotone view, which is exactly
/// right for metrics (each bucket is only ever incremented). Resolution is
/// one power of two: a percentile is reported as the geometric midpoint of
/// its bucket, so p50/p99 carry at most ~41% relative error — plenty for
/// SLO gating, and the price of never taking a lock on the serve path.
class LatencyHistogram {
 public:
  /// Bucket b holds samples in [2^b, 2^(b+1)) microseconds; bucket 0 also
  /// absorbs sub-microsecond samples. 2^39 us ≈ 6.4 days caps the top.
  static constexpr int kBuckets = 40;

  void Record(double micros);

  int64_t count() const;
  double sum_us() const;
  double mean_us() const;
  double max_us() const;
  /// p in [0, 100]. 0 with no samples.
  double Percentile(double p) const;

  /// Adds this histogram's buckets into `out` (size kBuckets) — the merge
  /// primitive for cross-shard aggregate percentiles.
  void AccumulateBuckets(int64_t* out) const;

  /// Percentile over a merged bucket array (same midpoint convention).
  static double PercentileFromBuckets(const int64_t* buckets, double p);

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_tenth_us_{0};  // sum in 0.1us ticks
  std::atomic<int64_t> max_tenth_us_{0};
};

/// Point-in-time copy of one histogram, embedded in stats snapshots.
struct HistogramSnapshot {
  int64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
};

HistogramSnapshot SnapshotHistogram(const LatencyHistogram& h);

/// One shard's serving counters, as captured by ShardRouter::Stats().
struct ShardStatsSnapshot {
  int shard = 0;
  int owned_nodes = 0;
  /// Updates accepted into this shard's queue / applied by its worker /
  /// rejected as invalid (bad endpoint, duplicate insert, absent removal) /
  /// dropped because the queue was full (drop_when_full mode only).
  int64_t enqueued = 0;
  int64_t applied = 0;
  int64_t rejected = 0;
  int64_t dropped = 0;
  /// Submit() calls that had to block on a full queue (backpressure mode).
  int64_t backpressure_waits = 0;
  int64_t queue_depth = 0;
  int64_t queue_peak = 0;
  /// Row-cache hit rate of the shard's incremental re-scoring
  /// (OnlineScorer ServeStats), plus the raw counters.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
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
  int64_t total_dropped = 0;
  int64_t total_backpressure_waits = 0;
  int64_t queue_depth = 0;
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
