#include <limits>

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
