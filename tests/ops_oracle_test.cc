// Differential tests for the parallel edge-softmax backward and the three
// row-partitioned loss closures against their kept-serial oracles
// (GatAttentionNaive / *LossNaive / EdgeSoftmaxBackwardNaive), across
// UMGAD_THREADS x UMGAD_ARENA through the shared harness. These are the
// acceptance tests of the "no float may change" contract: every comparison
// is MaxAbsDiff == 0, never a tolerance.

#include <algorithm>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
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

SparseMatrix RandomAdj(int n, int edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> e;
  for (int k = 0; k < edges; ++k) {
    int u = static_cast<int>(rng.UniformInt(n));
    int v = static_cast<int>(rng.UniformInt(n));
    if (u != v) e.push_back(Edge{u, v});
  }
  return SparseMatrix::FromEdges(n, e, /*symmetrize=*/true);
}

/// Forward + Backward of a scalar loss over fresh leaves; returns the loss
/// value followed by every leaf's gradient. Rebuilt from scratch per call,
/// as the harness requires.
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
// ScaledCosineLoss
// ---------------------------------------------------------------------------

struct CosShape {
  int rows;
  int cols;
  int stride;  // every stride-th row lands in idx
};

class ScaledCosineOracle : public ::testing::TestWithParam<CosShape> {};

TEST_P(ScaledCosineOracle, BitIdenticalToNaive) {
  const CosShape shape = GetParam();
  const int rows = shape.rows;
  const int cols = shape.cols;
  const int stride = shape.stride;
  Tensor recon = Rand(rows, cols, 11);
  Tensor target = Rand(rows, cols, 13);
  std::vector<int> idx;
  for (int i = 0; i < rows; i += stride) idx.push_back(i);
  for (float eta : {1.0f, 2.0f}) {
    ExpectBitIdentical(
        "scaled_cosine",
        [&] {
          return LossOutputs({recon}, [&](const auto& v) {
            return ag::ScaledCosineLoss(v[0], target, idx, eta);
          });
        },
        [&] {
          return LossOutputs({recon}, [&](const auto& v) {
            return ag::ScaledCosineLossNaive(v[0], target, idx, eta);
          });
        });
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ScaledCosineOracle,
                         ::testing::Values(CosShape{5, 4, 2},     // tiny
                                           CosShape{256, 48, 1},  // grain edge
                                           CosShape{700, 48, 2},  // crosses it
                                           CosShape{301, 7, 3}));

TEST(ScaledCosineOracleTest, DuplicateRowsFallBackToSerial) {
  // Duplicate targets alias the scatter; the kernel must detect them and
  // reproduce the serial accumulation exactly.
  Tensor recon = Rand(40, 8, 17);
  Tensor target = Rand(40, 8, 19);
  std::vector<int> idx = {3, 7, 3, 12, 7, 3, 30, 12};
  ExpectBitIdentical(
      "scaled_cosine_dup",
      [&] {
        return LossOutputs({recon}, [&](const auto& v) {
          return ag::ScaledCosineLoss(v[0], target, idx, 2.0f);
        });
      },
      [&] {
        return LossOutputs({recon}, [&](const auto& v) {
          return ag::ScaledCosineLossNaive(v[0], target, idx, 2.0f);
        });
      });
}

// ---------------------------------------------------------------------------
// MaskedEdgeSoftmaxCE
// ---------------------------------------------------------------------------

struct EdgeCeShape {
  int n;
  int d;
  int sets;
  int negatives;
};

class EdgeSoftmaxCeOracle : public ::testing::TestWithParam<EdgeCeShape> {};

TEST_P(EdgeSoftmaxCeOracle, BitIdenticalToNaive) {
  const EdgeCeShape shape = GetParam();
  const int n = shape.n;
  const int d = shape.d;
  Tensor z = Rand(n, d, 23, 0.5);
  Rng rng(29);
  // Random sets alias sources and candidates across sets — the worst case
  // for the ownership scatter.
  std::vector<ag::EdgeCandidateSet> sets =
      nn::RandomEdgeCandidates(n, shape.sets, shape.negatives, &rng);
  ExpectBitIdentical(
      "masked_edge_softmax_ce",
      [&] {
        return LossOutputs({z}, [&](const auto& v) {
          return ag::MaskedEdgeSoftmaxCE(v[0], sets);
        });
      },
      [&] {
        return LossOutputs({z}, [&](const auto& v) {
          return ag::MaskedEdgeSoftmaxCENaive(v[0], sets);
        });
      });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EdgeSoftmaxCeOracle,
    ::testing::Values(EdgeCeShape{6, 3, 4, 2},       // tiny, heavy aliasing
                      EdgeCeShape{64, 16, 300, 4},   // many sets, few rows
                      EdgeCeShape{400, 32, 120, 6},  // training-like
                      EdgeCeShape{1000, 48, 256, 4}));

// ---------------------------------------------------------------------------
// DualContrastiveLoss
// ---------------------------------------------------------------------------

struct DualShape {
  int n;
  int d;
};

class DualContrastiveOracle : public ::testing::TestWithParam<DualShape> {};

TEST_P(DualContrastiveOracle, BitIdenticalToNaive) {
  const DualShape shape = GetParam();
  const int n = shape.n;
  const int d = shape.d;
  Tensor zo = Rand(n, d, 31, 0.4);
  Tensor za = Rand(n, d, 37, 0.4);
  Rng rng(41);
  std::vector<int> neg = nn::SampleContrastiveNegatives(n, &rng);
  ExpectBitIdentical(
      "dual_contrastive",
      [&] {
        return LossOutputs({zo, za}, [&](const auto& v) {
          return ag::DualContrastiveLoss(v[0], v[1], neg);
        });
      },
      [&] {
        return LossOutputs({zo, za}, [&](const auto& v) {
          return ag::DualContrastiveLossNaive(v[0], v[1], neg);
        });
      });
}

INSTANTIATE_TEST_SUITE_P(Shapes, DualContrastiveOracle,
                         ::testing::Values(DualShape{3, 4},    // degenerate
                                           DualShape{256, 24},  // grain edge
                                           DualShape{700, 16},  // crosses it
                                           DualShape{90, 48}));

TEST(DualContrastiveOracleTest, SkewedNegativesShareOneRow) {
  // All negatives collapse onto two rows: the scatter's most contended
  // shape, and the one where an unordered reduction would drift first.
  // (Row 9 draws itself — excluded by the real samplers, but the kernel's
  // tie ordering must still match the serial loop.)
  const int n = 300;
  Tensor zo = Rand(n, 12, 43, 0.4);
  Tensor za = Rand(n, 12, 47, 0.4);
  std::vector<int> neg(n);
  for (int i = 0; i < n; ++i) neg[i] = (i % 2 == 0 && i != 8) ? 8 : 9;
  ExpectBitIdentical(
      "dual_contrastive_skew",
      [&] {
        return LossOutputs({zo, za}, [&](const auto& v) {
          return ag::DualContrastiveLoss(v[0], v[1], neg);
        });
      },
      [&] {
        return LossOutputs({zo, za}, [&](const auto& v) {
          return ag::DualContrastiveLossNaive(v[0], v[1], neg);
        });
      });
}

// ---------------------------------------------------------------------------
// GatAttention / edge-softmax backward
// ---------------------------------------------------------------------------

struct GatShape {
  int n;
  int d;
  /// Random pairs, or 0 for the degree ladder: row i holds i % 10
  /// distinct columns and no self loop is added, so every degree 0..9
  /// occurs and the backward's four-edge blocks, their tails and rows
  /// shorter than a block all run. Negative: DG-Fin-like, n / 2 random
  /// undirected pairs and no self loops, so the mean degree is ~1 and about
  /// a third of the rows are isolated; the four-dot groups then span rows,
  /// and most pool chunks end inside a group.
  int edges;
};

SparseMatrix DegreeLadderAdj(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> rows;
  std::vector<int> cols;
  for (int i = 0; i < n; ++i) {
    std::vector<int> picked;
    while (static_cast<int>(picked.size()) < i % 10) {
      const int j = static_cast<int>(rng.UniformInt(n));
      if (std::find(picked.begin(), picked.end(), j) == picked.end()) {
        picked.push_back(j);
      }
    }
    for (int j : picked) {
      rows.push_back(i);
      cols.push_back(j);
    }
  }
  return SparseMatrix::FromCoo(n, n, rows, cols,
                               std::vector<float>(rows.size(), 1.0f));
}

class GatAttentionOracle : public ::testing::TestWithParam<GatShape> {};

TEST_P(GatAttentionOracle, BitIdenticalToNaive) {
  const GatShape shape = GetParam();
  const int n = shape.n;
  const int d = shape.d;
  const int f = d + 3;
  auto adj = std::make_shared<const SparseMatrix>(
      shape.edges == 0  ? DegreeLadderAdj(n, 53)
      : shape.edges < 0 ? RandomAdj(n, n / 2, 53)
                        : RandomAdj(n, shape.edges, 53).NormalizedWithSelfLoops());
  Tensor x = Rand(n, f, 59, 0.5);
  Tensor w = Rand(f, d, 73, 0.5);
  Tensor a_src = Rand(1, d, 61, 0.5);
  Tensor a_dst = Rand(1, d, 67, 0.5);
  Tensor probe = Rand(n, d, 71);
  // Outputs: the layer's forward, then the grads of x / W / a_src / a_dst
  // under a random upstream gradient (loss = sum(out .* probe)).
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
  ExpectBitIdentical("gat_attention", run(false), run(true));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GatAttentionOracle,
    ::testing::Values(GatShape{5, 3, 8},       // tiny
                      GatShape{300, 32, 1200},  // crosses the row grain
                      GatShape{600, 24, 300},   // mostly isolated nodes
                      GatShape{1000, 48, 4000},
                      GatShape{300, 7, 0},     // degrees 0-9, odd d
                      GatShape{3001, 48, -1},  // DG-Fin-like, mean degree ~1
                      GatShape{1003, 5, -1})); // ... odd d, few chunks

TEST(GatAttentionOracleTest, ConstantFeaturesSkipDh) {
  // x as a Constant. With W constant too, no projection gradient is wanted,
  // so io.dh == nullptr inside the backward kernels and only the attention
  // vectors receive gradients; with W a leaf (a first layer), dH is built
  // and passed to W alone.
  const int n = 200;
  const int f = 11;
  const int d = 16;
  auto adj = std::make_shared<const SparseMatrix>(
      RandomAdj(n, 900, 73).NormalizedWithSelfLoops());
  Tensor x = Rand(n, f, 79, 0.5);
  Tensor w = Rand(f, d, 101, 0.5);
  Tensor probe = Rand(n, d, 83);
  Tensor a_src = Rand(1, d, 89, 0.5);
  Tensor a_dst = Rand(1, d, 97, 0.5);
  for (bool w_leaf : {false, true}) {
    auto run = [&](bool naive) {
      return [&, naive]() -> Tensors {
        ag::VarPtr xv = ag::Constant(x);
        ag::VarPtr wv = w_leaf ? ag::Leaf(w) : ag::Constant(w);
        ag::VarPtr as = ag::Leaf(a_src);
        ag::VarPtr ad = ag::Leaf(a_dst);
        ag::VarPtr out = naive
                             ? ag::GatAttentionNaive(xv, wv, as, ad, adj, 0.2f)
                             : ag::GatAttention(xv, wv, as, ad, adj, 0.2f);
        ag::Retain(out);  // read after Backward
        ag::Backward(ag::Sum(ag::Hadamard(out, ag::Constant(probe))));
        Tensors got{out->value(), as->grad(), ad->grad()};
        if (w_leaf) got.push_back(wv->grad());
        return got;
      };
    };
    ExpectBitIdentical(
        w_leaf ? "gat_attention_const_x" : "gat_attention_const_xw",
        run(false), run(true));
  }
}

TEST(EdgeSoftmaxKernelTest, BackwardAccumulatesBitIdentically) {
  // Kernel-level differential, off the tape: real forward state, a random
  // upstream gradient, and accumulators pre-filled with random values to
  // pin the += semantics of both kernels.
  const int n = 350;
  const int d = 20;
  SparseMatrix adj = RandomAdj(n, 1400, 101).NormalizedWithSelfLoops();
  Tensor h = Rand(n, d, 103, 0.5);
  Tensor a_src = Rand(1, d, 107, 0.5);
  Tensor a_dst = Rand(1, d, 109, 0.5);
  Tensor g = Rand(n, d, 113);

  Tensor out;
  std::vector<float> alpha;
  std::vector<char> pos;
  ag::EdgeSoftmaxForwardNaive(adj, 0.2f, h, a_src, a_dst, &out, &alpha, &pos);

  auto run = [&](bool naive) {
    return [&, naive]() -> Tensors {
      Tensor dh = Rand(n, d, 127);
      Tensor das = Rand(1, d, 131);
      Tensor dad = Rand(1, d, 137);
      ag::EdgeSoftmaxGrads io;
      io.g = &g;
      io.h = &h;
      io.a_src = &a_src;
      io.a_dst = &a_dst;
      io.dh = &dh;
      io.da_src = &das;
      io.da_dst = &dad;
      if (naive) {
        ag::EdgeSoftmaxBackwardNaive(adj, 0.2f, alpha, pos, io);
      } else {
        ag::EdgeSoftmaxBackward(adj, 0.2f, alpha, pos, io);
      }
      return Tensors{dh, das, dad};
    };
  };
  ExpectBitIdentical("edge_softmax_backward", run(false), run(true));
}

TEST(EdgeSoftmaxKernelTest, ForwardParallelMatchesNaive) {
  const int n = 500;
  const int d = 24;
  SparseMatrix adj = RandomAdj(n, 2000, 139).NormalizedWithSelfLoops();
  Tensor h = Rand(n, d, 149, 0.5);
  Tensor a_src = Rand(1, d, 151, 0.5);
  Tensor a_dst = Rand(1, d, 157, 0.5);
  auto run = [&](bool naive) {
    return [&, naive]() -> Tensors {
      Tensor out;
      std::vector<float> alpha;
      std::vector<char> pos;
      if (naive) {
        ag::EdgeSoftmaxForwardNaive(adj, 0.2f, h, a_src, a_dst, &out, &alpha,
                                    &pos);
      } else {
        ag::EdgeSoftmaxForward(adj, 0.2f, h, a_src, a_dst, &out, &alpha,
                               &pos);
      }
      Tensor alpha_t(1, static_cast<int>(alpha.size()));
      for (size_t k = 0; k < alpha.size(); ++k) {
        alpha_t.data()[k] = alpha[k];
      }
      return Tensors{out, alpha_t};
    };
  };
  ExpectBitIdentical("edge_softmax_forward", run(false), run(true));
}

}  // namespace
}  // namespace umgad
