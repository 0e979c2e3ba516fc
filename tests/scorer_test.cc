#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/scorer.h"
#include "graph/datasets.h"
#include "serve/dynamic_adjacency.h"
#include "tensor/init.h"

namespace umgad {
namespace {

TEST(NormalizeTest, StandardizeMoments) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> z = Standardize(v);
  double mean = std::accumulate(z.begin(), z.end(), 0.0) / z.size();
  EXPECT_NEAR(mean, 0.0, 1e-12);
  double var = 0.0;
  for (double x : z) var += x * x;
  EXPECT_NEAR(var / z.size(), 1.0, 1e-12);
}

TEST(NormalizeTest, StandardizePreservesOrder) {
  std::vector<double> v = {5.0, -1.0, 3.0};
  std::vector<double> z = Standardize(v);
  EXPECT_GT(z[0], z[2]);
  EXPECT_GT(z[2], z[1]);
}

TEST(NormalizeTest, StandardizeConstantIsZero) {
  // Two-pass double sums leave a ~1e-17 residual spread on these, which
  // used to blow every entry up to +-1; exact moments give stddev 0.
  for (int n : {3, 10, 1194, 37000}) {
    for (double x : {0.1, 0.7, 1.3}) {
      const std::vector<double> v(n, x);
      const ZScore z = MomentsOf(v.data(), n).Scale();
      EXPECT_EQ(z.mean, x) << "n=" << n << " x=" << x;
      EXPECT_EQ(z.stddev, 0.0) << "n=" << n << " x=" << x;
      for (double s : Standardize(v)) {
        ASSERT_EQ(s, 0.0) << "n=" << n << " x=" << x;
      }
    }
  }
}

// ------------------------- ExactMoments -----------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameScale(const ExactMoments& got, const ExactMoments& want,
                     const std::string& label) {
  EXPECT_TRUE(got == want) << label;
  const ZScore g = got.Scale();
  const ZScore w = want.Scale();
  EXPECT_TRUE(SameBits(g.mean, w.mean)) << label << ": " << g.mean;
  EXPECT_TRUE(SameBits(g.stddev, w.stddev)) << label << ": " << g.stddev;
}

/// Values over many binades and both signs, with repeats and zeros.
std::vector<double> MixedValues(int n, uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> binade(-60, 60);
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) v[i] = std::ldexp(unit(gen), binade(gen));
  v[n / 3] = 0.0;
  v[n / 2] = -0.0;
  v[n - 1] = v[0];
  return v;
}

TEST(ExactMomentsTest, ShuffledAndChunkedDepositsAreBitIdentical) {
  const std::vector<double> v = MixedValues(20000, 1);
  ExactMoments serial;
  for (double x : v) serial.Add(x);

  std::vector<double> shuffled = v;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(2));
  ExactMoments reordered;
  for (double x : shuffled) reordered.Add(x);
  ExpectSameScale(reordered, serial, "shuffled");

  // Uneven chunks merged in reverse.
  std::vector<ExactMoments> chunks;
  for (size_t b = 0; b < shuffled.size();) {
    const size_t e = std::min(shuffled.size(), b + 1 + (b * 7) % 3001);
    ExactMoments chunk;
    for (size_t i = b; i < e; ++i) chunk.Add(shuffled[i]);
    chunks.push_back(chunk);
    b = e;
  }
  ExactMoments merged;
  for (size_t c = chunks.size(); c-- > 0;) merged.Merge(chunks[c]);
  ExpectSameScale(merged, serial, "chunked");

  const std::vector<double> z_serial = [&] {
    SetNumThreads(1);
    return Standardize(v);
  }();
  for (int lanes : {1, 2, 4}) {
    SetNumThreads(lanes);
    const std::string label = "lanes=" + std::to_string(lanes);
    ExpectSameScale(MomentsOf(v.data(), static_cast<int64_t>(v.size())),
                    serial, label);
    const std::vector<double> z = Standardize(v);
    for (size_t i = 0; i < z.size(); ++i) {
      ASSERT_TRUE(SameBits(z[i], z_serial[i])) << label << " i=" << i;
    }
  }
  SetNumThreads(1);
}

TEST(ExactMomentsTest, AddThenRemoveRestoresTheExactPriorState) {
  const std::vector<double> base = MixedValues(500, 3);
  const std::vector<double> extra = MixedValues(300, 4);
  ExactMoments m;
  for (double x : base) m.Add(x);
  const ExactMoments before = m;
  for (double x : extra) m.Add(x);
  EXPECT_FALSE(m == before);
  for (size_t i = extra.size(); i-- > 0;) m.Remove(extra[i]);
  ExpectSameScale(m, before, "add then remove");

  // A value swap (remove old, add new) equals the moments of the edited
  // multiset built from scratch — the serving update's delta.
  std::vector<double> edited = base;
  for (size_t i = 0; i < edited.size(); i += 5) {
    m.Remove(edited[i]);
    edited[i] = edited[i] * 3.0 + 1e-3;
    m.Add(edited[i]);
  }
  ExactMoments fresh;
  for (double x : edited) fresh.Add(x);
  ExpectSameScale(m, fresh, "swapped values");

  for (double x : edited) m.Remove(x);
  ExpectSameScale(m, ExactMoments(), "emptied");
  EXPECT_EQ(m.count(), 0);
}

/// Two-pass long double reference, scaled by a power of two so squares
/// stay in range even for values near 1e300.
void ExpectMatchesReference(const std::vector<double>& v,
                            const std::string& label) {
  long double mean = 0.0L;
  for (double x : v) mean += x;
  mean /= static_cast<long double>(v.size());
  long double spread = 0.0L;
  for (double x : v) spread = std::max(spread, std::fabs(x - mean));
  int exp = 0;
  std::frexp(static_cast<double>(spread), &exp);
  long double var = 0.0L;
  for (double x : v) {
    const long double d = std::ldexp(x - mean, -exp);
    var += d * d;
  }
  const double ref_sd = static_cast<double>(
      std::ldexp(std::sqrt(var / static_cast<long double>(v.size())), exp));

  const ZScore z = MomentsOf(v.data(), static_cast<int64_t>(v.size())).Scale();
  EXPECT_NEAR(z.mean, static_cast<double>(mean),
              1e-15 * std::fabs(static_cast<double>(mean)) + 1e-320)
      << label;
  ASSERT_GT(ref_sd, 0.0) << label;
  EXPECT_NEAR(z.stddev / ref_sd, 1.0, 1e-9) << label;
}

TEST(ExactMomentsTest, AccurateOnHardInputs) {
  std::mt19937_64 gen(5);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const int n = 4000;
  std::vector<double> subnormal(n), huge(n), mixed(n), offset(n);
  for (int i = 0; i < n; ++i) {
    subnormal[i] = std::ldexp(std::floor(u01(gen) * 4503599627370496.0), -1074);
    huge[i] = 1e300 * (1.0 + u01(gen));
    mixed[i] = std::ldexp(u01(gen) - 0.5, static_cast<int>(u01(gen) * 80) - 40);
    offset[i] = 1e6 + u01(gen);
  }
  ExpectMatchesReference(subnormal, "subnormal");
  ExpectMatchesReference(huge, "near 1e300");
  ExpectMatchesReference(mixed, "mixed signs");
  ExpectMatchesReference(offset, "1e6 + U(0,1)");
  // |mean| >> stddev: a naive sum(x^2)/n - mean^2 in double cancels to
  // noise here.
  const ZScore z = MomentsOf(offset.data(), n).Scale();
  EXPECT_GT(z.stddev, 0.25);
  EXPECT_LT(z.stddev, 0.33);
}

TEST(ExactMomentsTest, NonFiniteInputsGiveADefinedResult) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExactMoments m;
  for (double x : {1.0, 2.0, 4.0}) m.Add(x);
  const ExactMoments finite = m;

  m.Add(inf);
  EXPECT_EQ(m.Scale().mean, inf);
  EXPECT_TRUE(std::isnan(m.Scale().stddev));
  m.Add(-inf);
  EXPECT_TRUE(std::isnan(m.Scale().mean));
  m.Remove(inf);
  EXPECT_EQ(m.Scale().mean, -inf);
  m.Remove(-inf);
  m.Add(nan);
  EXPECT_TRUE(std::isnan(m.Scale().mean));
  EXPECT_TRUE(std::isnan(m.Scale().stddev));
  EXPECT_TRUE(std::isnan(m.Scale()(1.0)));
  m.Remove(nan);
  ExpectSameScale(m, finite, "non-finite removed");

  // Extremes of the finite range deposit without overflow.
  ExactMoments extremes;
  for (double x : {std::numeric_limits<double>::max(),
                   -std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::min()}) {
    extremes.Add(x);
  }
  const ZScore z = extremes.Scale();
  EXPECT_TRUE(std::isfinite(z.mean));
  EXPECT_TRUE(std::isfinite(z.stddev));
  EXPECT_GT(z.stddev, 0.0);
  EXPECT_EQ(ExactMoments().Scale().stddev, 0.0);
}

SparseMatrix TriangleWithTail() {
  return SparseMatrix::FromEdges(
      5, {Edge{0, 1}, Edge{1, 2}, Edge{0, 2}, Edge{2, 3}, Edge{3, 4}}, true);
}

TEST(StructureResidualTest, ExactAndSampledAgreeOnRanking) {
  SparseMatrix adj = TriangleWithTail();
  Rng init_rng(1);
  Tensor z = RandomNormal(5, 4, 0, 1, &init_rng);
  std::vector<double> exact = StructureResidualExact(adj, z);
  std::vector<double> sampled = StructureResidual(adj, z, 200, /*seed=*/2);
  // With enough samples the two estimates converge (all nodes here have
  // few non-neighbours).
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(sampled[i], exact[i], 0.15);
}

TEST(StructureResidualTest, LaneInvariantAndEqualToServingStreams) {
  // 600 nodes (more than one pool chunk), sparse random edges, and one hub
  // that neighbours all but two nodes so the sampler's fallback pad runs.
  const int n = 600;
  Rng edge_rng(21);
  std::vector<Edge> edges;
  for (int k = 0; k < 1500; ++k) {
    const int u = static_cast<int>(edge_rng.UniformInt(n));
    const int v = static_cast<int>(edge_rng.UniformInt(n));
    if (u != v && u != 0 && v != 0) edges.push_back(Edge{u, v});
  }
  for (int v = 1; v < n - 2; ++v) edges.push_back(Edge{0, v});
  const SparseMatrix adj = SparseMatrix::FromEdges(n, edges, true);
  Rng init_rng(22);
  const Tensor z = RandomNormal(n, 8, 0, 1, &init_rng);
  const uint64_t seed = NegativeStreamSeed(/*base=*/23, /*view=*/1, 0);
  const int negatives = 16;

  SetNumThreads(1);
  const std::vector<double> reference =
      StructureResidual(adj, z, negatives, seed);
  for (int lanes : {2, 4}) {
    SetNumThreads(lanes);
    const std::vector<double> got = StructureResidual(adj, z, negatives, seed);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], reference[i]) << "lanes=" << lanes << " node " << i;
    }
  }
  SetNumThreads(1);

  // Per node: the serving engine's draw from the node's own stream against
  // its mutable adjacency, combined the way it combines a residual.
  const serve::DynamicAdjacency dyn(adj);
  auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
  for (int i = 0; i < n; ++i) {
    double edge_err = 0.0;
    for (int j : dyn.neighbors(i)) {
      edge_err += 1.0 - sigmoid(z.RowDot(i, z, j));
    }
    std::vector<int> negs;
    NodeNegatives(dyn, i, dyn.degree(i), negatives, seed, &negs);
    ASSERT_EQ(negs.size(), static_cast<size_t>(negatives)) << "node " << i;
    double leak = 0.0;
    for (int u : negs) {
      EXPECT_FALSE(dyn.Has(i, u)) << "node " << i << " negative " << u;
      leak += sigmoid(z.RowDot(i, z, u));
    }
    leak /= static_cast<double>(negs.size());
    const int degree = dyn.degree(i);
    const double want = (degree > 0 ? edge_err / degree : 0.0) + leak;
    EXPECT_EQ(reference[i], want) << "node " << i;
  }
}

TEST(StructureResidualTest, ChainedTermsEqualOneRowDotAtATime) {
  // EdgeError, LeakTerms and NodeResidualTerms run their dots four at a
  // time (DotChains); each term must still equal the one-RowDot-at-a-time
  // sum bit for bit, for every group remainder: degrees 0-9 and 0-17
  // negatives, at an even and an odd width.
  auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
  for (int d : {48, 7}) {
    const int n = 40;
    Rng rng(31 + d);
    const Tensor z = RandomNormal(n, d, 0, 0.7, &rng);
    for (int degree = 0; degree <= 9; ++degree) {
      std::vector<int> neighbors(degree);
      for (int& j : neighbors) j = static_cast<int>(rng.UniformInt(n));
      double want_edge = 0.0;
      for (int j : neighbors) want_edge += 1.0 - sigmoid(z.RowDot(3, z, j));
      const double edge_err = EdgeError(z, 3, neighbors.data(), degree);
      EXPECT_TRUE(SameBits(edge_err, want_edge))
          << "d=" << d << " degree=" << degree;
      for (int count = 0; count <= 17; ++count) {
        std::vector<int> negatives(count);
        for (int& u : negatives) u = static_cast<int>(rng.UniformInt(n));
        std::vector<double> leak(count, -1.0);
        LeakTerms(z, 3, negatives.data(), count, leak.data());
        double want_leak = 0.0;
        for (int k = 0; k < count; ++k) {
          const double term = sigmoid(z.RowDot(3, z, negatives[k]));
          ASSERT_TRUE(SameBits(leak[k], term))
              << "d=" << d << " count=" << count << " k=" << k;
          want_leak += term;
        }
        if (count > 0) want_leak /= count;
        const ResidualTerms terms =
            NodeResidualTerms(z, 3, neighbors.data(), degree, negatives);
        EXPECT_EQ(terms.degree, degree);
        EXPECT_TRUE(SameBits(terms.edge_err, want_edge))
            << "d=" << d << " degree=" << degree << " count=" << count;
        EXPECT_TRUE(SameBits(terms.leak, want_leak))
            << "d=" << d << " degree=" << degree << " count=" << count;
      }
    }
  }
}

TEST(StructureResidualTest, PerfectEmbeddingScoresLow) {
  // Embeddings engineered so that edges have large positive dots and
  // non-edges negative: two well-separated clusters.
  SparseMatrix adj = SparseMatrix::FromEdges(
      4, {Edge{0, 1}, Edge{2, 3}}, true);
  Tensor z(4, 2);
  z.at(0, 0) = 3.0f;
  z.at(1, 0) = 3.0f;
  z.at(2, 1) = 3.0f;
  z.at(3, 1) = 3.0f;
  std::vector<double> residual = StructureResidualExact(adj, z);
  for (double r : residual) EXPECT_LT(r, 0.8);

  // Breaking node 0's embedding raises its residual above the others.
  z.at(0, 0) = -3.0f;
  std::vector<double> broken = StructureResidualExact(adj, z);
  EXPECT_GT(broken[0], residual[0] + 0.5);
}

TEST(StructureResidualTest, IsolatedNodeOnlyLeaks) {
  SparseMatrix adj = SparseMatrix::FromEdges(3, {Edge{1, 2}}, true);
  Tensor z = Tensor::Full(3, 2, 0.0f);
  std::vector<double> residual = StructureResidual(adj, z, 10, /*seed=*/3);
  // Zero embeddings: sigmoid(0) = 0.5 leak; node 0 has no edge-error term.
  EXPECT_NEAR(residual[0], 0.5, 1e-6);
}

TEST(ComputeScoresTest, CombinesViewsAndBranches) {
  MultiplexGraph g = MakeTiny(5);
  Rng init_rng(4);
  ViewScoring full;
  full.attr_recon = g.attributes();  // perfect recon -> zero attr part
  for (int r = 0; r < g.num_relations(); ++r) {
    full.embeddings.push_back(
        RandomNormal(g.num_nodes(), 8, 0, 1, &init_rng));
  }
  Rng rng(6);
  std::vector<double> scores =
      ComputeAnomalyScores(g, {full}, 0.5f, 8, &rng);
  EXPECT_EQ(scores.size(), static_cast<size_t>(g.num_nodes()));
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(ComputeScoresTest, AttrOnlyViewUsesAttrBranch) {
  MultiplexGraph g = MakeTiny(7);
  ViewScoring attr_only;
  Rng init_rng(8);
  attr_only.attr_recon =
      RandomNormal(g.num_nodes(), g.feature_dim(), 0, 1, &init_rng);
  Rng rng(9);
  std::vector<double> scores =
      ComputeAnomalyScores(g, {attr_only}, 0.5f, 8, &rng);
  // Standardised single-component scores: non-constant.
  const auto [mn, mx] = std::minmax_element(scores.begin(), scores.end());
  EXPECT_LT(*mn, *mx);
}

TEST(ComputeScoresTest, WorseReconstructionRanksHigher) {
  MultiplexGraph g = MakeTiny(11);
  ViewScoring view;
  view.attr_recon = g.attributes();
  // Corrupt the reconstruction of node 3 only.
  for (int d = 0; d < g.feature_dim(); ++d) {
    view.attr_recon.at(3, d) += 10.0f;
  }
  Rng rng(12);
  std::vector<double> scores =
      ComputeAnomalyScores(g, {view}, 1.0f, 0, &rng);
  const int argmax = static_cast<int>(
      std::max_element(scores.begin(), scores.end()) - scores.begin());
  EXPECT_EQ(argmax, 3);
}

}  // namespace
}  // namespace umgad
