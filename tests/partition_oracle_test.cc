// Differential oracle for partitioned training (src/graph/partition/):
// attaching a partition-derived RowBlocks schedule is a *cache schedule
// only* — every kernel that consumes it (SparseMatrix::Multiply /
// MultiplyTransposed, the GAT edge-softmax forward/backward, and the three
// loss closures) must produce the same floats as the flat engine, for any
// block count P, UMGAD_THREADS, and arena mode. Every comparison here is
// MaxAbsDiff == 0. Also pins the partitioner's structural invariants (DBH
// and HDRF, including skewed-degree and empty-relation graphs), the
// PartitionedCsr materialisation contract, and end-to-end fitted scores
// across P x threads x arena.

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/umgad.h"
#include "graph/datasets.h"
#include "graph/partition/partitioner.h"
#include "nn/loss.h"
#include "oracle_harness.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace umgad {
namespace {

using ::umgad::testing::ExpectBitIdentical;
using ::umgad::testing::Tensors;

Tensor Rand(int r, int c, uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  return RandomNormal(r, c, 0.0, scale, &rng);
}

std::shared_ptr<const RowBlocks> Partition(const MultiplexGraph& graph,
                                           int p, PartitionMethod method) {
  PartitionOptions options;
  options.num_blocks = p;
  options.method = method;
  options.seed = 7;
  Result<VertexPartition> part = PartitionGraph(graph, options);
  UMGAD_CHECK(part.ok());
  return part.value().blocks;
}

/// A hub-and-spokes graph (every edge incident to node 0) plus an empty
/// second relation: the degree-skew worst case for edge balance and the
/// no-edges corner for the streaming pass.
MultiplexGraph MakeStarWithEmptyRelation(int n) {
  std::vector<Edge> star;
  for (int v = 1; v < n; ++v) star.push_back(Edge{0, v});
  std::vector<SparseMatrix> layers;
  layers.push_back(SparseMatrix::FromEdges(n, star, /*symmetrize=*/true));
  layers.push_back(SparseMatrix::FromEdges(n, {}, /*symmetrize=*/true));
  Rng rng(3);
  auto graph =
      MultiplexGraph::Create("star", RandomNormal(n, 4, 0.0, 1.0, &rng),
                             std::move(layers), {"star", "empty"});
  UMGAD_CHECK(graph.ok());
  return *std::move(graph);
}

/// Forward + Backward of a scalar loss over fresh leaves; returns the loss
/// value followed by every leaf's gradient (rebuilt per call, as the
/// harness requires).
Tensors LossOutputs(
    const std::vector<Tensor>& inputs,
    const std::function<ag::VarPtr(const std::vector<ag::VarPtr>&)>& build) {
  std::vector<ag::VarPtr> leaves;
  leaves.reserve(inputs.size());
  for (const Tensor& t : inputs) leaves.push_back(ag::Leaf(t));
  ag::VarPtr loss = build(leaves);
  ag::Backward(loss);
  Tensors out{loss->value()};
  for (const auto& leaf : leaves) out.push_back(leaf->grad());
  return out;
}

// ---------------------------------------------------------------------------
// Partitioner invariants
// ---------------------------------------------------------------------------

void CheckScheduleInvariants(const RowBlocks& blocks, int n, int p,
                             const std::string& label) {
  ASSERT_EQ(blocks.num_blocks, p) << label;
  ASSERT_EQ(static_cast<int>(blocks.block_ptr.size()), p + 1) << label;
  ASSERT_EQ(static_cast<int>(blocks.order.size()), n) << label;
  ASSERT_EQ(static_cast<int>(blocks.block_of.size()), n) << label;
  EXPECT_EQ(blocks.block_ptr.front(), 0) << label;
  EXPECT_EQ(blocks.block_ptr.back(), n) << label;
  std::vector<int> seen(n, 0);
  for (int b = 0; b < p; ++b) {
    ASSERT_LE(blocks.block_ptr[b], blocks.block_ptr[b + 1]) << label;
    for (int64_t k = blocks.block_ptr[b]; k < blocks.block_ptr[b + 1]; ++k) {
      const int row = blocks.order[k];
      ASSERT_GE(row, 0) << label;
      ASSERT_LT(row, n) << label;
      ++seen[row];
      EXPECT_EQ(blocks.block_of[row], b) << label << " row " << row;
      if (k > blocks.block_ptr[b]) {
        // Ascending within a block: the serial order per worker.
        EXPECT_LT(blocks.order[k - 1], row) << label;
      }
    }
  }
  for (int row = 0; row < n; ++row) {
    EXPECT_EQ(seen[row], 1) << label << " row " << row;
  }
}

TEST(PartitionInvariantsTest, ScheduleCoversEveryRowExactlyOnce) {
  const MultiplexGraph graph = MakeTiny(123);
  int64_t total_edges = 0;
  for (int r = 0; r < graph.num_relations(); ++r) {
    total_edges += graph.layer(r).nnz();
  }
  for (PartitionMethod method :
       {PartitionMethod::kDbh, PartitionMethod::kHdrf}) {
    for (int p : {1, 2, 8}) {
      PartitionOptions options;
      options.num_blocks = p;
      options.method = method;
      options.seed = 7;
      Result<VertexPartition> part = PartitionGraph(graph, options);
      ASSERT_TRUE(part.ok()) << part.status().ToString();
      const std::string label = std::string(PartitionMethodName(method)) +
                                " p=" + std::to_string(p);
      CheckScheduleInvariants(*part.value().blocks, graph.num_nodes(), p,
                              label);
      const PartitionStats& stats = part.value().stats;
      EXPECT_EQ(stats.num_blocks, p) << label;
      EXPECT_EQ(stats.total_edges, total_edges) << label;
      EXPECT_GE(stats.replication_factor, 1.0) << label;
      EXPECT_LE(stats.replication_factor, static_cast<double>(p)) << label;
      EXPECT_GE(stats.edge_balance, 1.0) << label;
      EXPECT_GE(stats.row_balance, 1.0) << label;
      EXPECT_LE(stats.max_block_edges, total_edges) << label;
      if (p == 1) {
        EXPECT_EQ(stats.replication_factor, 1.0) << label;
        EXPECT_EQ(stats.edge_balance, 1.0) << label;
        EXPECT_EQ(stats.max_block_edges, total_edges) << label;
      }

      // Deterministic: a second identical call yields the same schedule.
      Result<VertexPartition> again = PartitionGraph(graph, options);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again.value().blocks->order, part.value().blocks->order)
          << label;
    }
  }
}

TEST(PartitionInvariantsTest, SkewedDegreesAndEmptyRelations) {
  const MultiplexGraph star = MakeStarWithEmptyRelation(129);
  for (PartitionMethod method :
       {PartitionMethod::kDbh, PartitionMethod::kHdrf}) {
    PartitionOptions options;
    options.num_blocks = 4;
    options.method = method;
    Result<VertexPartition> part = PartitionGraph(star, options);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    const std::string label = PartitionMethodName(method);
    CheckScheduleInvariants(*part.value().blocks, star.num_nodes(), 4,
                            label);
    const PartitionStats& stats = part.value().stats;
    EXPECT_EQ(stats.total_edges, star.layer(0).nnz()) << label;
    // Both heuristics anchor a star's edges at the low-degree leaves (DBH
    // hashes the leaf, HDRF's balance term spreads them), so the hub must
    // not collapse the edge partition onto one block.
    EXPECT_GE(stats.edge_balance, 1.0) << label;
    EXPECT_LT(stats.edge_balance, 2.0) << label;
    EXPECT_LT(stats.max_block_edges, stats.total_edges) << label;
  }

  // All-empty relations: no edges to stream; every vertex is isolated and
  // falls back to the v % P round-robin, still a valid schedule.
  std::vector<SparseMatrix> layers;
  layers.push_back(SparseMatrix::FromEdges(9, {}, /*symmetrize=*/true));
  Rng rng(5);
  auto empty =
      MultiplexGraph::Create("empty", RandomNormal(9, 2, 0.0, 1.0, &rng),
                             std::move(layers), {"none"});
  ASSERT_TRUE(empty.ok());
  PartitionOptions options;
  options.num_blocks = 3;
  Result<VertexPartition> part = PartitionGraph(*empty, options);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  CheckScheduleInvariants(*part.value().blocks, 9, 3, "all-empty");
  EXPECT_EQ(part.value().stats.total_edges, 0);

  // Invalid block counts are rejected.
  options.num_blocks = 0;
  EXPECT_FALSE(PartitionGraph(*empty, options).ok());
  options.num_blocks = -4;
  EXPECT_FALSE(PartitionGraph(*empty, options).ok());
}

TEST(PartitionInvariantsTest, PartitionedCsrRoundTripsTheMatrix) {
  const MultiplexGraph graph = MakeTiny(123);
  const SparseMatrix adj = graph.layer(0).NormalizedWithSelfLoops();
  const int n = adj.rows();
  for (int p : {2, 8}) {
    std::shared_ptr<const RowBlocks> blocks =
        Partition(graph, p, PartitionMethod::kDbh);
    Result<PartitionedCsr> built = BuildPartitionedCsr(adj, *blocks);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const PartitionedCsr& pc = built.value();
    ASSERT_EQ(static_cast<int>(pc.blocks.size()), p);

    std::vector<int> row_seen(n, 0);
    int64_t total_locals = 0;
    for (int b = 0; b < p; ++b) {
      const PartitionedCsr::Block& blk = pc.blocks[b];
      ASSERT_EQ(blk.row_ptr.size(), blk.rows.size() + 1);
      ASSERT_EQ(blk.col_idx.size(), blk.values.size());
      ASSERT_EQ(blk.num_owned, static_cast<int>(blk.rows.size()));
      total_locals += static_cast<int64_t>(blk.locals.size());
      // Owned locals lead and mirror `rows`; ghosts follow, each span
      // ascending in global id.
      for (size_t k = 0; k < blk.rows.size(); ++k) {
        EXPECT_EQ(blk.locals[k], blk.rows[k]);
        EXPECT_EQ(blocks->block_of[blk.rows[k]], b);
        ++row_seen[blk.rows[k]];
        if (k > 0) {
          EXPECT_LT(blk.rows[k - 1], blk.rows[k]);
        }
      }
      for (size_t k = blk.rows.size() + 1; k < blk.locals.size(); ++k) {
        EXPECT_LT(blk.locals[k - 1], blk.locals[k]);
      }
      // The sub-CSR reproduces the owned rows entry for entry under the
      // locals mapping, in the original column order.
      for (size_t i = 0; i < blk.rows.size(); ++i) {
        const int row = blk.rows[i];
        const int64_t begin = adj.row_ptr()[row];
        const int64_t end = adj.row_ptr()[row + 1];
        ASSERT_EQ(blk.row_ptr[i + 1] - blk.row_ptr[i], end - begin);
        for (int64_t k = begin; k < end; ++k) {
          const int64_t local_k = blk.row_ptr[i] + (k - begin);
          const int local_col = blk.col_idx[local_k];
          ASSERT_GE(local_col, 0);
          ASSERT_LT(local_col, static_cast<int>(blk.locals.size()));
          EXPECT_EQ(blk.locals[local_col], adj.col_idx()[k]);
          EXPECT_EQ(blk.values[local_k], adj.values()[k]);
        }
      }
    }
    for (int row = 0; row < n; ++row) EXPECT_EQ(row_seen[row], 1);
    EXPECT_EQ(pc.replication_factor,
              static_cast<double>(total_locals) / static_cast<double>(n));
    EXPECT_GE(pc.replication_factor, 1.0);
    EXPECT_GT(pc.MaxWorkingSetBytes(48), 0);
  }
}

// ---------------------------------------------------------------------------
// Kernel bit-identity: SpMM forward/backward
// ---------------------------------------------------------------------------

class PartitionedKernels : public ::testing::TestWithParam<int> {};

TEST_P(PartitionedKernels, SpmmMatchesFlat) {
  const int p = GetParam();
  const MultiplexGraph graph = MakeTiny(123);
  const int n = graph.num_nodes();
  const SparseMatrix flat = graph.layer(0).NormalizedWithSelfLoops();
  SparseMatrix blocked = graph.layer(0).NormalizedWithSelfLoops();
  blocked.AttachRowBlocks(Partition(graph, p, PartitionMethod::kDbh));
  const Tensor x = Rand(n, 24, 11);
  ExpectBitIdentical(
      "spmm_forward p=" + std::to_string(p),
      [&] { return Tensors{blocked.Multiply(x)}; },
      [&] { return Tensors{flat.MultiplyNaive(x)}; });
  ExpectBitIdentical(
      "spmm_backward p=" + std::to_string(p),
      [&] { return Tensors{blocked.MultiplyTransposed(x)}; },
      [&] { return Tensors{flat.MultiplyTransposedNaive(x)}; });
}

TEST_P(PartitionedKernels, EdgeSoftmaxMatchesNaive) {
  const int p = GetParam();
  const MultiplexGraph graph = MakeTiny(123);
  const int n = graph.num_nodes();
  const int d = 16;
  auto adj = std::make_shared<const SparseMatrix>(
      graph.layer(1).NormalizedWithSelfLoops());
  adj->AttachRowBlocks(Partition(graph, p, PartitionMethod::kHdrf));
  Tensor x = Rand(n, graph.feature_dim(), 59, 0.5);
  Tensor w = Rand(graph.feature_dim(), d, 73, 0.5);
  Tensor a_src = Rand(1, d, 61, 0.5);
  Tensor a_dst = Rand(1, d, 67, 0.5);
  Tensor probe = Rand(n, d, 71);
  // The blocked kernels read adj->row_blocks(); the naive twins ignore it,
  // so this pins the full forward + backward chain against the flat
  // serial oracle with the schedule attached.
  auto run = [&](bool naive) {
    return [&, naive]() -> Tensors {
      ag::VarPtr xv = ag::Leaf(x);
      ag::VarPtr wv = ag::Leaf(w);
      ag::VarPtr as = ag::Leaf(a_src);
      ag::VarPtr ad = ag::Leaf(a_dst);
      ag::VarPtr out = naive
                           ? ag::GatAttentionNaive(xv, wv, as, ad, adj, 0.2f)
                           : ag::GatAttention(xv, wv, as, ad, adj, 0.2f);
      ag::Retain(out);  // read after Backward
      ag::Backward(ag::Sum(ag::Hadamard(out, ag::Constant(probe))));
      return Tensors{out->value(), xv->grad(), wv->grad(), as->grad(),
                     ad->grad()};
    };
  };
  ExpectBitIdentical("edge_softmax p=" + std::to_string(p), run(false),
                     run(true));
}

// ---------------------------------------------------------------------------
// Kernel bit-identity: the three loss closures
// ---------------------------------------------------------------------------

TEST_P(PartitionedKernels, ScaledCosineLossMatchesNaive) {
  const int p = GetParam();
  const MultiplexGraph graph = MakeTiny(123);
  const int n = graph.num_nodes();
  std::shared_ptr<const RowBlocks> blocks =
      Partition(graph, p, PartitionMethod::kDbh);
  Tensor recon = Rand(n, 12, 11);
  Tensor target = Rand(n, 12, 13);
  std::vector<int> idx;
  for (int i = 0; i < n; i += 2) idx.push_back(i);
  ExpectBitIdentical(
      "scaled_cosine p=" + std::to_string(p),
      [&] {
        return LossOutputs({recon}, [&](const auto& v) {
          return ag::ScaledCosineLoss(v[0], target, idx, 2.0f, blocks);
        });
      },
      [&] {
        return LossOutputs({recon}, [&](const auto& v) {
          return ag::ScaledCosineLossNaive(v[0], target, idx, 2.0f);
        });
      });
}

TEST_P(PartitionedKernels, MaskedEdgeSoftmaxCeMatchesNaive) {
  const int p = GetParam();
  const MultiplexGraph graph = MakeTiny(123);
  const int n = graph.num_nodes();
  std::shared_ptr<const RowBlocks> blocks =
      Partition(graph, p, PartitionMethod::kDbh);
  Tensor z = Rand(n, 16, 23, 0.5);
  Rng rng(29);
  std::vector<ag::EdgeCandidateSet> sets =
      nn::RandomEdgeCandidates(n, 150, 4, &rng);
  ExpectBitIdentical(
      "masked_edge_softmax_ce p=" + std::to_string(p),
      [&] {
        return LossOutputs({z}, [&](const auto& v) {
          return ag::MaskedEdgeSoftmaxCE(v[0], sets, blocks);
        });
      },
      [&] {
        return LossOutputs({z}, [&](const auto& v) {
          return ag::MaskedEdgeSoftmaxCENaive(v[0], sets);
        });
      });
}

TEST_P(PartitionedKernels, DualContrastiveLossMatchesNaive) {
  const int p = GetParam();
  const MultiplexGraph graph = MakeTiny(123);
  const int n = graph.num_nodes();
  std::shared_ptr<const RowBlocks> blocks =
      Partition(graph, p, PartitionMethod::kHdrf);
  Tensor zo = Rand(n, 16, 31, 0.4);
  Tensor za = Rand(n, 16, 37, 0.4);
  Rng rng(41);
  std::vector<int> neg = nn::SampleContrastiveNegatives(n, &rng);
  ExpectBitIdentical(
      "dual_contrastive p=" + std::to_string(p),
      [&] {
        return LossOutputs({zo, za}, [&](const auto& v) {
          return ag::DualContrastiveLoss(v[0], v[1], neg, blocks);
        });
      },
      [&] {
        return LossOutputs({zo, za}, [&](const auto& v) {
          return ag::DualContrastiveLossNaive(v[0], v[1], neg);
        });
      });
}

INSTANTIATE_TEST_SUITE_P(BlockCounts, PartitionedKernels,
                         ::testing::Values(1, 2, 8));

// ---------------------------------------------------------------------------
// End-to-end: fitted scores across P x threads x arena
// ---------------------------------------------------------------------------

TEST(PartitionEndToEndTest, FittedScoresBitIdenticalAcrossPartitions) {
  UmgadConfig config;
  config.epochs = 2;
  config.hidden_dim = 8;
  config.mask_repeats = 1;
  config.num_subgraphs = 1;
  config.subgraph_size = 4;
  config.num_score_negatives = 2;
  config.seed = 5;

  const MultiplexGraph graph = MakeTiny(123);
  const bool prev_arena = ArenaEnabled();
  SetNumThreads(1);
  SetArenaEnabled(true);
  config.partitions = 0;  // flat engine: the reference
  std::vector<double> reference;
  {
    UmgadModel model(config);
    ASSERT_TRUE(model.Fit(graph).ok());
    reference = model.scores();
  }

  const ::umgad::testing::OracleSweep sweep;  // {1, 4} x arena on/off
  for (bool arena : sweep.arena_modes) {
    for (int threads : sweep.thread_counts) {
      for (int p : {1, 2, 8}) {
        SetArenaEnabled(arena);
        SetNumThreads(threads);
        config.partitions = p;
        config.partition_method =
            p == 2 ? PartitionMethod::kHdrf : PartitionMethod::kDbh;
        UmgadModel model(config);
        ASSERT_TRUE(model.Fit(graph).ok());
        const std::vector<double>& got = model.scores();
        ASSERT_EQ(got.size(), reference.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i], reference[i])
              << "p=" << p << " threads=" << threads
              << " arena=" << (arena ? 1 : 0) << " node " << i;
        }
      }
    }
  }
  SetNumThreads(1);
  SetArenaEnabled(prev_arena);
}

}  // namespace
}  // namespace umgad
