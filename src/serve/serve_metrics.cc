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

/// Nearest-rank percentile p in [0, 100] over a bucket array, clamped to
/// `max_us` (a bucket midpoint can overshoot the true extreme). 0 with no
/// samples.
double Percentile(const int64_t* buckets, double p, double max_us) {
  int64_t total = 0;
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) total += buckets[b];
  if (total == 0) return 0.0;
  // The sample at 1-based rank ceil(p/100 * total).
  const int64_t rank =
      std::max<int64_t>(static_cast<int64_t>(std::ceil(p / 100.0 * total)), 1);
  int b = 0;
  int64_t seen = buckets[0];
  while (seen < rank && b + 1 < LatencyHistogram::kBuckets) {
    seen += buckets[++b];
  }
  const double mid = BucketMidpoint(b);
  return max_us > 0.0 ? std::min(mid, max_us) : mid;
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

HistogramSnapshot SnapshotHistograms(
    const std::vector<const LatencyHistogram*>& histograms) {
  int64_t buckets[LatencyHistogram::kBuckets] = {};
  double sum_us = 0.0;
  HistogramSnapshot out;
  for (const LatencyHistogram* h : histograms) {
    for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
      buckets[b] += h->buckets_[b].load(std::memory_order_relaxed);
    }
    out.count += h->count_.load(std::memory_order_relaxed);
    sum_us += h->sum_tenth_us_.load(std::memory_order_relaxed) / 10.0;
    out.max_us = std::max(
        out.max_us, h->max_tenth_us_.load(std::memory_order_relaxed) / 10.0);
  }
  out.mean_us = out.count > 0 ? sum_us / out.count : 0.0;
  out.p50_us = Percentile(buckets, 50.0, out.max_us);
  out.p99_us = Percentile(buckets, 99.0, out.max_us);
  return out;
}

std::string FormatRouterStats(const RouterStats& stats) {
  std::string out = StrFormat(
      "router: shards=%d epoch=%llu %s\n"
      "  updates: enqueued=%lld applied=%lld rejected=%lld "
      "backpressure_waits=%lld queue_depth=%lld\n"
      "  update latency: p50=%.1fus p99=%.1fus mean=%.1fus max=%.1fus "
      "(n=%lld)\n"
      "  publish latency: p50=%.1fus p99=%.1fus mean=%.1fus max=%.1fus "
      "(n=%lld)\n",
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
      static_cast<long long>(stats.publish_latency.count));
  for (const ShardStatsSnapshot& s : stats.shards) {
    out += StrFormat(
        "  shard %d: owned=%d applied=%lld rejected=%lld "
        "depth=%lld peak=%lld update_p50=%.1fus update_p99=%.1fus\n",
        s.shard, s.owned_nodes, static_cast<long long>(s.applied),
        static_cast<long long>(s.rejected),
        static_cast<long long>(s.queue_depth),
        static_cast<long long>(s.queue_peak), s.update_latency.p50_us,
        s.update_latency.p99_us);
  }
  return out;
}

}  // namespace serve
}  // namespace umgad
