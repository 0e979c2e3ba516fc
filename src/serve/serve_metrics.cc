#include "serve/serve_metrics.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace umgad {
namespace serve {
namespace {

int BucketOf(double micros) {
  if (!(micros > 1.0)) return 0;
  const int b = static_cast<int>(std::log2(micros));
  return std::min(std::max(b, 0), LatencyHistogram::kBuckets - 1);
}

/// Geometric midpoint of bucket b's [2^b, 2^(b+1)) range (lower bound
/// clamped to 1us for bucket 0, which also absorbs sub-us samples).
double BucketMidpoint(int b) {
  const double lo = std::max(std::pow(2.0, b), 1.0);
  const double hi = std::pow(2.0, b + 1);
  return std::sqrt(lo * hi);
}

}  // namespace

void LatencyHistogram::Record(double micros) {
  if (micros < 0.0 || !std::isfinite(micros)) micros = 0.0;
  buckets_[BucketOf(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const int64_t ticks = static_cast<int64_t>(micros * 10.0);
  sum_tenth_us_.fetch_add(ticks, std::memory_order_relaxed);
  int64_t prev = max_tenth_us_.load(std::memory_order_relaxed);
  while (ticks > prev && !max_tenth_us_.compare_exchange_weak(
                             prev, ticks, std::memory_order_relaxed)) {
  }
}

int64_t LatencyHistogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

double LatencyHistogram::sum_us() const {
  return sum_tenth_us_.load(std::memory_order_relaxed) / 10.0;
}

double LatencyHistogram::mean_us() const {
  const int64_t c = count();
  return c > 0 ? sum_us() / c : 0.0;
}

double LatencyHistogram::max_us() const {
  return max_tenth_us_.load(std::memory_order_relaxed) / 10.0;
}

double LatencyHistogram::Percentile(double p) const {
  int64_t buckets[kBuckets] = {};
  AccumulateBuckets(buckets);
  const double raw = PercentileFromBuckets(buckets, p);
  const double mx = max_us();
  return mx > 0.0 ? std::min(raw, mx) : raw;
}

void LatencyHistogram::AccumulateBuckets(int64_t* out) const {
  for (int b = 0; b < kBuckets; ++b) {
    out[b] += buckets_[b].load(std::memory_order_relaxed);
  }
}

double LatencyHistogram::PercentileFromBuckets(const int64_t* buckets,
                                               double p) {
  int64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) total += buckets[b];
  if (total == 0) return 0.0;
  p = std::min(std::max(p, 0.0), 100.0);
  // The sample at 1-based rank ceil(p/100 * total) (nearest-rank method).
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * total));
  rank = std::max<int64_t>(rank, 1);
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) return BucketMidpoint(b);
  }
  return BucketMidpoint(kBuckets - 1);
}

HistogramSnapshot SnapshotHistogram(const LatencyHistogram& h) {
  HistogramSnapshot s;
  s.count = h.count();
  s.p50_us = h.Percentile(50.0);
  s.p99_us = h.Percentile(99.0);
  s.mean_us = h.mean_us();
  s.max_us = h.max_us();
  return s;
}

std::string FormatRouterStats(const RouterStats& stats) {
  std::string out = StrFormat(
      "router: shards=%d epoch=%llu %s\n"
      "  updates: enqueued=%lld applied=%lld rejected=%lld "
      "backpressure_waits=%lld queue_depth=%lld\n"
      "  update latency: p50=%.1fus p99=%.1fus mean=%.1fus max=%.1fus "
      "(n=%lld)\n"
      "  publish latency: p50=%.1fus p99=%.1fus mean=%.1fus max=%.1fus "
      "(n=%lld)\n"
      "  cache hit rate: %.4f\n",
      stats.num_shards, static_cast<unsigned long long>(stats.epoch),
      stats.stream_consistent ? "stream-consistent" : "converging",
      static_cast<long long>(stats.total_enqueued),
      static_cast<long long>(stats.total_applied),
      static_cast<long long>(stats.total_rejected),
      static_cast<long long>(stats.total_backpressure_waits),
      static_cast<long long>(stats.queue_depth), stats.update_latency.p50_us,
      stats.update_latency.p99_us, stats.update_latency.mean_us,
      stats.update_latency.max_us,
      static_cast<long long>(stats.update_latency.count),
      stats.publish_latency.p50_us, stats.publish_latency.p99_us,
      stats.publish_latency.mean_us, stats.publish_latency.max_us,
      static_cast<long long>(stats.publish_latency.count),
      stats.cache_hit_rate);
  for (const ShardStatsSnapshot& s : stats.shards) {
    out += StrFormat(
        "  shard %d: owned=%d applied=%lld rejected=%lld "
        "depth=%lld peak=%lld hit_rate=%.4f update_p50=%.1fus "
        "update_p99=%.1fus\n",
        s.shard, s.owned_nodes, static_cast<long long>(s.applied),
        static_cast<long long>(s.rejected),
        static_cast<long long>(s.queue_depth),
        static_cast<long long>(s.queue_peak), s.cache_hit_rate,
        s.update_latency.p50_us, s.update_latency.p99_us);
  }
  return out;
}

}  // namespace serve
}  // namespace umgad
