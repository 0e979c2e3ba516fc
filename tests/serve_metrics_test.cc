// The serving latency histogram: merging several histograms into one
// snapshot equals one histogram fed every sample, percentiles never exceed
// the recorded max, and an empty histogram summarises to zeros.

#include <vector>

#include <gtest/gtest.h>

#include "serve/serve_metrics.h"

namespace umgad {
namespace serve {
namespace {

void ExpectSameSnapshot(const HistogramSnapshot& got,
                        const HistogramSnapshot& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.p50_us, want.p50_us);
  EXPECT_EQ(got.p99_us, want.p99_us);
  EXPECT_EQ(got.mean_us, want.mean_us);
  EXPECT_EQ(got.max_us, want.max_us);
}

TEST(LatencyHistogramTest, MergedEqualsOneHistogramFedBothSampleSets) {
  // Whole-microsecond samples keep the 0.1us tick sums exact, so the merged
  // mean (a sum of per-histogram sums) equals the single one bit for bit.
  const std::vector<double> first = {3, 3, 5, 17, 250, 4000};
  const std::vector<double> second = {1, 2, 9, 9, 64, 130, 131, 70000};
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram both;
  for (double us : first) {
    a.Record(us);
    both.Record(us);
  }
  for (double us : second) {
    b.Record(us);
    both.Record(us);
  }
  const HistogramSnapshot merged = SnapshotHistograms({&a, &b});
  ExpectSameSnapshot(merged, SnapshotHistograms({&both}));
  EXPECT_EQ(merged.count, 14);
  EXPECT_EQ(merged.max_us, 70000.0);
  EXPECT_EQ(merged.mean_us, (4278.0 + 70346.0) / 14.0);
  // The order of the merged histograms does not matter either.
  ExpectSameSnapshot(SnapshotHistograms({&b, &a}), merged);
}

TEST(LatencyHistogramTest, PercentilesNeverExceedTheMax) {
  // 2.1us and 2.2us land in [2, 4), whose midpoint (2.83us) overshoots
  // both; the snapshot clamps p50 and p99 to the recorded max.
  LatencyHistogram h;
  h.Record(2.1);
  h.Record(2.2);
  const HistogramSnapshot s = SnapshotHistograms({&h});
  EXPECT_EQ(s.count, 2);
  EXPECT_LE(s.p50_us, s.max_us);
  EXPECT_LE(s.p99_us, s.max_us);
  EXPECT_DOUBLE_EQ(s.max_us, 2.2);

  LatencyHistogram wide;
  for (int k = 0; k < 1000; ++k) wide.Record(1.5 * k);
  const HistogramSnapshot w = SnapshotHistograms({&wide, &h});
  EXPECT_LE(w.p50_us, w.p99_us);
  EXPECT_LE(w.p50_us, w.max_us);
  EXPECT_LE(w.p99_us, w.max_us);
  EXPECT_GT(w.p50_us, 0.0);
}

TEST(LatencyHistogramTest, EmptyHistogramGivesZeros) {
  LatencyHistogram empty;
  for (const HistogramSnapshot& s :
       {SnapshotHistograms({&empty}), SnapshotHistograms({})}) {
    EXPECT_EQ(s.count, 0);
    EXPECT_EQ(s.p50_us, 0.0);
    EXPECT_EQ(s.p99_us, 0.0);
    EXPECT_EQ(s.mean_us, 0.0);
    EXPECT_EQ(s.max_us, 0.0);
  }
}

}  // namespace
}  // namespace serve
}  // namespace umgad
