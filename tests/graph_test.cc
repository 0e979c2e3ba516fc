#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/graph_ops.h"
#include "graph/multiplex_graph.h"
#include "tensor/init.h"

namespace umgad {
namespace {

MultiplexGraph TwoLayerGraph() {
  Rng rng(1);
  Tensor x = RandomNormal(6, 4, 0, 1, &rng);
  SparseMatrix a = SparseMatrix::FromEdges(
      6, {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}}, true);
  SparseMatrix b =
      SparseMatrix::FromEdges(6, {Edge{3, 4}, Edge{4, 5}}, true);
  auto result = MultiplexGraph::Create("test", x, {a, b}, {"r1", "r2"},
                                       {0, 0, 1, 0, 0, 1});
  UMGAD_CHECK(result.ok());
  return std::move(result).value();
}

TEST(MultiplexGraphTest, CreateValidGraph) {
  MultiplexGraph g = TwoLayerGraph();
  EXPECT_EQ(g.num_nodes(), 6);
  EXPECT_EQ(g.num_relations(), 2);
  EXPECT_EQ(g.feature_dim(), 4);
  EXPECT_EQ(g.num_edges(0), 3);
  EXPECT_EQ(g.num_edges(1), 2);
  EXPECT_EQ(g.total_edges(), 5);
  EXPECT_EQ(g.num_anomalies(), 2);
  EXPECT_EQ(g.relation_name(1), "r2");
  EXPECT_NE(g.Summary().find("|V|=6"), std::string::npos);
}

TEST(MultiplexGraphTest, RejectsNoLayers) {
  Rng rng(2);
  auto result = MultiplexGraph::Create("bad", RandomNormal(3, 2, 0, 1, &rng),
                                       {}, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultiplexGraphTest, RejectsShapeMismatch) {
  Rng rng(3);
  SparseMatrix wrong = SparseMatrix::FromEdges(4, {Edge{0, 1}}, true);
  auto result = MultiplexGraph::Create(
      "bad", RandomNormal(6, 2, 0, 1, &rng), {wrong}, {"r"});
  EXPECT_FALSE(result.ok());
}

TEST(MultiplexGraphTest, RejectsAsymmetricLayer) {
  Rng rng(4);
  SparseMatrix asym =
      SparseMatrix::FromCoo(3, 3, {0}, {1}, {1.0f});  // (0,1) only
  auto result = MultiplexGraph::Create(
      "bad", RandomNormal(3, 2, 0, 1, &rng), {asym}, {"r"});
  EXPECT_FALSE(result.ok());
}

TEST(MultiplexGraphTest, RejectsNonFiniteValuesNamingTheFirst) {
  Rng rng(7);
  SparseMatrix a = SparseMatrix::FromEdges(3, {Edge{0, 1}, Edge{1, 2}}, true);
  Tensor x = RandomNormal(3, 2, 0, 1, &rng);
  x.at(2, 1) = std::numeric_limits<float>::infinity();
  x.at(2, 0) = std::numeric_limits<float>::quiet_NaN();
  auto bad_attr = MultiplexGraph::Create("bad", x, {a}, {"r"});
  ASSERT_FALSE(bad_attr.ok());
  EXPECT_EQ(bad_attr.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_attr.status().message().find("attribute (2, 0)"),
            std::string::npos)
      << bad_attr.status().message();

  SparseMatrix w = SparseMatrix::FromCoo(
      3, 3, {0, 1, 1, 2}, {1, 0, 2, 1},
      {1.0f, 1.0f, std::numeric_limits<float>::quiet_NaN(), 1.0f});
  auto bad_weight = MultiplexGraph::Create(
      "bad", RandomNormal(3, 2, 0, 1, &rng), {a, w}, {"r", "w"});
  ASSERT_FALSE(bad_weight.ok());
  EXPECT_NE(bad_weight.status().message().find(
                "layer 1 (w) has a non-finite weight at (1, 2)"),
            std::string::npos)
      << bad_weight.status().message();
}

TEST(MultiplexGraphTest, RejectsBadLabels) {
  Rng rng(5);
  SparseMatrix a = SparseMatrix::FromEdges(3, {Edge{0, 1}}, true);
  auto short_labels = MultiplexGraph::Create(
      "bad", RandomNormal(3, 2, 0, 1, &rng), {a}, {"r"}, {0, 1});
  EXPECT_FALSE(short_labels.ok());
  auto bad_values = MultiplexGraph::Create(
      "bad", RandomNormal(3, 2, 0, 1, &rng), {a}, {"r"}, {0, 2, 0});
  EXPECT_FALSE(bad_values.ok());
}

TEST(MultiplexGraphTest, RejectsNameCountMismatch) {
  Rng rng(6);
  SparseMatrix a = SparseMatrix::FromEdges(3, {Edge{0, 1}}, true);
  auto result = MultiplexGraph::Create(
      "bad", RandomNormal(3, 2, 0, 1, &rng), {a}, {"r1", "r2"});
  EXPECT_FALSE(result.ok());
}

TEST(GraphOpsTest, FlattenUnionsLayers) {
  MultiplexGraph g = TwoLayerGraph();
  SparseMatrix flat = FlattenToSingleView(g);
  EXPECT_TRUE(flat.Has(0, 1));
  EXPECT_TRUE(flat.Has(4, 5));
  EXPECT_TRUE(flat.Has(3, 4));
  EXPECT_EQ(flat.nnz(), 10);  // 5 undirected edges
}

TEST(GraphOpsTest, SampleEdgeMaskRatio) {
  Rng rng(7);
  std::vector<Edge> edges;
  for (int i = 0; i < 100; ++i) edges.push_back(Edge{i, (i + 1) % 100});
  SparseMatrix adj = SparseMatrix::FromEdges(100, edges, true);
  EdgeMask mask = SampleEdgeMask(adj, 0.4, &rng);
  EXPECT_EQ(mask.masked.size(), 40u);
  // Removed edges are gone in both directions.
  for (const Edge& e : mask.masked) {
    EXPECT_FALSE(mask.remaining.Has(e.src, e.dst));
    EXPECT_FALSE(mask.remaining.Has(e.dst, e.src));
  }
  EXPECT_EQ(mask.remaining.nnz(), adj.nnz() - 80);
}

TEST(GraphOpsTest, SampleEdgeMaskZeroAndFull) {
  Rng rng(8);
  SparseMatrix adj = SparseMatrix::FromEdges(
      5, {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}}, true);
  EdgeMask none = SampleEdgeMask(adj, 0.0, &rng);
  EXPECT_TRUE(none.masked.empty());
  EXPECT_EQ(none.remaining.nnz(), adj.nnz());
  EdgeMask all = SampleEdgeMask(adj, 1.0, &rng);
  EXPECT_EQ(all.masked.size(), 3u);
  EXPECT_EQ(all.remaining.nnz(), 0);
}

TEST(GraphOpsTest, RemoveEdgesKeepsOthers) {
  SparseMatrix adj = SparseMatrix::FromEdges(
      4, {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}}, true);
  SparseMatrix out = RemoveEdges(adj, {Edge{1, 2}});
  EXPECT_TRUE(out.Has(0, 1));
  EXPECT_FALSE(out.Has(1, 2));
  EXPECT_FALSE(out.Has(2, 1));
  EXPECT_TRUE(out.Has(2, 3));
}

TEST(GraphOpsTest, RemoveIncidentEdges) {
  SparseMatrix adj = SparseMatrix::FromEdges(
      5, {Edge{0, 1}, Edge{1, 2}, Edge{3, 4}}, true);
  EdgeMask mask = RemoveIncidentEdges(adj, {1});
  EXPECT_FALSE(mask.remaining.Has(0, 1));
  EXPECT_FALSE(mask.remaining.Has(1, 2));
  EXPECT_TRUE(mask.remaining.Has(3, 4));
  EXPECT_EQ(mask.masked.size(), 2u);
}

// ---------------------------------------------------------------------------
// CSR builder oracle: RemoveEdges, RemoveIncidentEdges and
// NormalizedWithSelfLoops write their CSR straight from the parent's sorted
// rows. The reference below is the construction they replaced — COO
// triplets through SparseMatrix::FromCoo — and every output must match it
// in row_ptr, col_idx and value bits.
// ---------------------------------------------------------------------------

SparseMatrix RemoveEdgesViaCoo(const SparseMatrix& adj,
                               const std::vector<Edge>& edges) {
  std::unordered_set<int64_t> drop;
  const int64_t n = adj.rows();
  auto key = [n](int a, int b) { return static_cast<int64_t>(a) * n + b; };
  for (const Edge& e : edges) {
    drop.insert(key(e.src, e.dst));
    drop.insert(key(e.dst, e.src));
  }
  std::vector<int> rows;
  std::vector<int> cols;
  std::vector<float> vals;
  for (int i = 0; i < adj.rows(); ++i) {
    for (int64_t k = adj.row_ptr()[i]; k < adj.row_ptr()[i + 1]; ++k) {
      if (drop.count(key(i, adj.col_idx()[k])) > 0) continue;
      rows.push_back(i);
      cols.push_back(adj.col_idx()[k]);
      vals.push_back(adj.values()[k]);
    }
  }
  return SparseMatrix::FromCoo(adj.rows(), adj.cols(), rows, cols, vals);
}

EdgeMask RemoveIncidentEdgesViaCoo(const SparseMatrix& adj,
                                   const std::vector<int>& nodes) {
  std::vector<char> in_set(adj.rows(), 0);
  for (int v : nodes) in_set[v] = 1;
  EdgeMask mask;
  std::vector<int> rows;
  std::vector<int> cols;
  std::vector<float> vals;
  for (int i = 0; i < adj.rows(); ++i) {
    for (int64_t k = adj.row_ptr()[i]; k < adj.row_ptr()[i + 1]; ++k) {
      const int j = adj.col_idx()[k];
      if (in_set[i] || in_set[j]) {
        if (i <= j) mask.masked.push_back(Edge{i, j});
        continue;
      }
      rows.push_back(i);
      cols.push_back(j);
      vals.push_back(adj.values()[k]);
    }
  }
  mask.remaining =
      SparseMatrix::FromCoo(adj.rows(), adj.cols(), rows, cols, vals);
  return mask;
}

SparseMatrix NormalizedViaCoo(const SparseMatrix& adj) {
  const int n = adj.rows();
  std::vector<double> deg = adj.RowSums();
  for (int i = 0; i < n; ++i) deg[i] += 1.0;
  auto inv_sqrt = [&](int i) { return 1.0 / std::sqrt(deg[i]); };
  std::vector<int> rows;
  std::vector<int> cols;
  std::vector<float> vals;
  for (int i = 0; i < n; ++i) {
    for (int64_t k = adj.row_ptr()[i]; k < adj.row_ptr()[i + 1]; ++k) {
      const int j = adj.col_idx()[k];
      rows.push_back(i);
      cols.push_back(j);
      vals.push_back(static_cast<float>(adj.values()[k] * inv_sqrt(i) *
                                        inv_sqrt(j)));
    }
    rows.push_back(i);
    cols.push_back(i);
    vals.push_back(static_cast<float>(inv_sqrt(i) * inv_sqrt(i)));
  }
  return SparseMatrix::FromCoo(n, n, rows, cols, vals);
}

void ExpectSameCsr(const SparseMatrix& got, const SparseMatrix& want,
                   const std::string& label) {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  ASSERT_EQ(got.nnz(), want.nnz()) << label;
  for (int i = 0; i <= got.rows(); ++i) {
    ASSERT_EQ(got.row_ptr()[i], want.row_ptr()[i]) << label << " row " << i;
  }
  for (int64_t k = 0; k < got.nnz(); ++k) {
    ASSERT_EQ(got.col_idx()[k], want.col_idx()[k]) << label << " entry " << k;
    uint32_t a = 0;
    uint32_t b = 0;
    std::memcpy(&a, &got.values()[k], sizeof a);
    std::memcpy(&b, &want.values()[k], sizeof b);
    ASSERT_EQ(a, b) << label << " value bits of entry " << k;
  }
}

/// A random weighted square matrix whose row i has exactly i % 10 stored
/// entries (so every degree 0..9 occurs), about a third of them self
/// loops where the row has any, and nodes i % 10 == 0 fully isolated (no
/// row lists them). `symmetric` adds every entry's reverse, summing the
/// weights of pairs drawn both ways.
SparseMatrix RandomWeightedGraph(int n, uint64_t seed, bool symmetric) {
  Rng rng(seed);
  std::vector<int> rows;
  std::vector<int> cols;
  std::vector<float> vals;
  for (int i = 0; i < n; ++i) {
    const int degree = i % 10;
    std::vector<int> picked;
    if (degree > 0 && rng.UniformInt(3) == 0) picked.push_back(i);
    while (static_cast<int>(picked.size()) < degree) {
      const int j = static_cast<int>(rng.UniformInt(n));
      if (j % 10 == 0) continue;
      if (std::find(picked.begin(), picked.end(), j) != picked.end()) continue;
      picked.push_back(j);
    }
    for (int j : picked) {
      const float w = static_cast<float>(0.25 + rng.Uniform() * 2.0);
      rows.push_back(i);
      cols.push_back(j);
      vals.push_back(w);
      if (symmetric && j != i) {
        rows.push_back(j);
        cols.push_back(i);
        vals.push_back(w);
      }
    }
  }
  return SparseMatrix::FromCoo(n, n, rows, cols, vals);
}

TEST(GraphOpsTest, FilteredOperatorsMatchCooConstruction) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (bool symmetric : {false, true}) {
      const int n = 40 + static_cast<int>(seed) * 7;
      const SparseMatrix adj = RandomWeightedGraph(n, seed, symmetric);
      const std::string tag = "seed " + std::to_string(seed) +
                              (symmetric ? " symmetric" : " directed");
      Rng rng(seed * 1000 + 17);
      int self_loops = 0;
      for (int i = 0; i < n; ++i) self_loops += adj.Has(i, i) ? 1 : 0;
      ASSERT_GT(self_loops, 0) << tag;

      // Removal list: stored entries in both orientations, absent pairs,
      // duplicates, and (i, i) for nodes with and without a self loop.
      std::vector<Edge> removal;
      const std::vector<Edge> stored = adj.ToEdges();
      for (int k = 0; k < n / 2; ++k) {
        const Edge e = stored[rng.UniformInt(stored.size())];
        removal.push_back(rng.UniformInt(2) == 0 ? e : Edge{e.dst, e.src});
        const int a = static_cast<int>(rng.UniformInt(n));
        const int b = static_cast<int>(rng.UniformInt(n));
        removal.push_back(Edge{a, b});
        if (k % 3 == 0) {
          removal.push_back(removal[rng.UniformInt(removal.size())]);
        }
        if (k % 4 == 0) removal.push_back(Edge{a, a});
      }
      ExpectSameCsr(RemoveEdges(adj, removal), RemoveEdgesViaCoo(adj, removal),
                    tag + " RemoveEdges");
      ExpectSameCsr(RemoveEdges(adj, {}), adj, tag + " RemoveEdges(none)");
      ExpectSameCsr(RemoveEdges(adj, stored), RemoveEdgesViaCoo(adj, stored),
                    tag + " RemoveEdges(all)");

      // Incident removal: isolated nodes, duplicates, and an empty list.
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<int> nodes;
        for (int k = 0; k < trial * n / 4; ++k) {
          nodes.push_back(static_cast<int>(rng.UniformInt(n)));
          if (k % 5 == 0) nodes.push_back(nodes.back());
        }
        const EdgeMask got = RemoveIncidentEdges(adj, nodes);
        const EdgeMask want = RemoveIncidentEdgesViaCoo(adj, nodes);
        const std::string label =
            tag + " RemoveIncidentEdges trial " + std::to_string(trial);
        ExpectSameCsr(got.remaining, want.remaining, label);
        ASSERT_EQ(got.masked.size(), want.masked.size()) << label;
        for (size_t k = 0; k < got.masked.size(); ++k) {
          EXPECT_EQ(got.masked[k].src, want.masked[k].src) << label;
          EXPECT_EQ(got.masked[k].dst, want.masked[k].dst) << label;
        }
        ExpectSameCsr(got.remaining.NormalizedWithSelfLoops(),
                      NormalizedViaCoo(want.remaining),
                      label + " normalized");
      }

      ExpectSameCsr(adj.NormalizedWithSelfLoops(), NormalizedViaCoo(adj),
                    tag + " NormalizedWithSelfLoops");
      const EdgeMask masked = SampleEdgeMask(adj, 0.3, &rng);
      ExpectSameCsr(masked.remaining, RemoveEdgesViaCoo(adj, masked.masked),
                    tag + " SampleEdgeMask");
      ExpectSameCsr(masked.remaining.NormalizedWithSelfLoops(),
                    NormalizedViaCoo(masked.remaining),
                    tag + " SampleEdgeMask normalized");
    }
  }
}

TEST(GraphOpsTest, KHopNeighborhood) {
  SparseMatrix adj = SparseMatrix::FromEdges(
      6, {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}, Edge{4, 5}}, true);
  EXPECT_EQ(KHopNeighborhood(adj, 0, 0), (std::vector<int>{0}));
  EXPECT_EQ(KHopNeighborhood(adj, 0, 1), (std::vector<int>{0, 1}));
  EXPECT_EQ(KHopNeighborhood(adj, 0, 2), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(KHopNeighborhood(adj, 0, 10), (std::vector<int>{0, 1, 2, 3}));
}

TEST(GraphOpsTest, SampleNonNeighborsExcludesNeighbors) {
  Rng rng(9);
  SparseMatrix adj = SparseMatrix::FromEdges(
      20, {Edge{0, 1}, Edge{0, 2}, Edge{0, 3}}, true);
  std::vector<int> negs;
  SampleNonNeighbors(adj, 0, 10, &rng, &negs);
  EXPECT_EQ(negs.size(), 10u);
  for (int v : negs) {
    EXPECT_NE(v, 0);
    EXPECT_FALSE(adj.Has(0, v));
  }
}

TEST(GraphOpsTest, SampleNonNeighborsDenseRowFallback) {
  // Node 0 is connected to everyone: fallback must still return `count`
  // ids (arbitrary but valid).
  Rng rng(10);
  std::vector<Edge> edges;
  for (int i = 1; i < 6; ++i) edges.push_back(Edge{0, i});
  SparseMatrix adj = SparseMatrix::FromEdges(6, edges, true);
  std::vector<int> negs;
  SampleNonNeighbors(adj, 0, 3, &rng, &negs);
  EXPECT_EQ(negs.size(), 3u);
}

TEST(GraphOpsTest, SampleNonNeighborsFallbackStaysOffNeighbours) {
  // Node 0 neighbours every node but 999: rejection finds ~1 non-neighbour
  // in its attempts, and the rest must be padded with non-neighbours too
  // (999, the only one), never with edges.
  Rng rng(11);
  std::vector<Edge> edges;
  for (int i = 1; i < 999; ++i) edges.push_back(Edge{0, i});
  SparseMatrix adj = SparseMatrix::FromEdges(1000, edges, true);
  std::vector<int> negs;
  SampleNonNeighbors(adj, 0, 16, &rng, &negs);
  EXPECT_EQ(negs.size(), 16u);
  for (int v : negs) EXPECT_EQ(v, 999);
}

}  // namespace
}  // namespace umgad
