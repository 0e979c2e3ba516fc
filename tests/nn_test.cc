#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/gat.h"
#include "nn/gcn.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "oracle_harness.h"
#include "tensor/init.h"

namespace umgad {
namespace {

std::shared_ptr<const SparseMatrix> RingGraph(int n) {
  std::vector<Edge> edges;
  for (int i = 0; i < n; ++i) edges.push_back(Edge{i, (i + 1) % n});
  return std::make_shared<const SparseMatrix>(
      SparseMatrix::FromEdges(n, edges, true).NormalizedWithSelfLoops());
}

TEST(LinearTest, ForwardShapeAndBias) {
  Rng rng(1);
  nn::Linear layer(4, 3, &rng);
  Tensor x = RandomNormal(5, 4, 0, 1, &rng);
  ag::VarPtr y = layer.Forward(ag::Constant(x));
  EXPECT_EQ(y->value().rows(), 5);
  EXPECT_EQ(y->value().cols(), 3);
  // weight (4x3) + bias (1x3)
  EXPECT_EQ(layer.ParameterCount(), 4 * 3 + 3);
}

TEST(LinearTest, NoBiasVariant) {
  Rng rng(2);
  nn::Linear layer(4, 3, &rng, /*bias=*/false);
  EXPECT_EQ(layer.ParameterCount(), 12);
}

TEST(ModuleTest, ParametersIncludeChildren) {
  Rng rng(3);
  nn::SgcConv conv(6, 4, /*hops=*/1, nn::Activation::kRelu, &rng);
  EXPECT_EQ(conv.Parameters().size(), 2u);  // W + b
  EXPECT_EQ(conv.ParameterCount(), 6 * 4 + 4);
}

TEST(GcnTest, ForwardShape) {
  Rng rng(4);
  auto adj = RingGraph(6);
  nn::SgcConv conv(3, 5, /*hops=*/1, nn::Activation::kNone, &rng);
  Tensor x = RandomNormal(6, 3, 0, 1, &rng);
  ag::VarPtr y = conv.Forward(adj, ag::Constant(x));
  EXPECT_EQ(y->value().rows(), 6);
  EXPECT_EQ(y->value().cols(), 5);
  EXPECT_TRUE(y->value().AllFinite());
}

TEST(GcnTest, ReluClampsNegative) {
  Rng rng(5);
  auto adj = RingGraph(4);
  nn::SgcConv conv(2, 3, /*hops=*/1, nn::Activation::kRelu, &rng);
  Tensor x = RandomNormal(4, 2, 0, 1, &rng);
  ag::VarPtr y = conv.Forward(adj, ag::Constant(x));
  EXPECT_GE(y->value().Min(), 0.0);
}

TEST(GcnTest, DroppedIntermediatesKeepGradientsBitEqual) {
  // SgcConv::Forward drops its MatMul and Spmm values once the next op is
  // built. Its gradients (and output) must match the same chain composed by
  // hand, which keeps every intermediate until Backward.
  Rng rng(9);
  auto adj = RingGraph(30);
  Tensor x = RandomNormal(30, 5, 0, 1, &rng);
  Tensor probe = RandomNormal(30, 4, 0, 1, &rng);
  for (int hops : {0, 1, 2}) {
    nn::SgcConv conv(5, 4, hops, nn::Activation::kRelu, &rng);
    const ag::VarPtr w = conv.Parameters()[0];
    const ag::VarPtr b = conv.Parameters()[1];
    auto run = [&](bool by_hand) {
      return [&, by_hand]() -> umgad::testing::Tensors {
        ag::VarPtr in = ag::Leaf(x);
        ag::VarPtr out;
        if (by_hand) {
          ag::VarPtr h = ag::MatMul(in, w);
          for (int l = 0; l < hops; ++l) h = ag::Spmm(adj, h);
          out = ag::Relu(ag::AddRowBroadcast(h, b));
        } else {
          out = conv.Forward(adj, in);
        }
        w->ZeroGrad();
        b->ZeroGrad();
        ag::Retain(out);  // read after Backward
        ag::Backward(ag::Sum(ag::Hadamard(out, ag::Constant(probe))));
        return {out->value(), in->grad(), w->grad(), b->grad()};
      };
    };
    umgad::testing::ExpectBitIdentical(
        "sgc hops=" + std::to_string(hops), run(false), run(true));
  }
}

TEST(SgcTest, ZeroHopsIsLinear) {
  Rng rng(6);
  auto adj = RingGraph(5);
  nn::SgcConv conv(3, 3, /*hops=*/0, nn::Activation::kNone, &rng);
  Tensor x = RandomNormal(5, 3, 0, 1, &rng);
  // With 0 hops the adjacency must not matter.
  ag::VarPtr y1 = conv.Forward(adj, ag::Constant(x));
  ag::VarPtr y2 = conv.Forward(RingGraph(5), ag::Constant(x));
  EXPECT_LT(MaxAbsDiff(y1->value(), y2->value()), 1e-6);
}

TEST(SgcTest, HopsPropagate) {
  Rng rng(7);
  auto adj = RingGraph(8);
  nn::SgcConv conv1(2, 4, 1, nn::Activation::kNone, &rng);
  Tensor x = RandomNormal(8, 2, 0, 1, &rng);
  ag::VarPtr y = conv1.Forward(adj, ag::Constant(x));
  EXPECT_TRUE(y->value().AllFinite());
}

TEST(GatTest, ForwardShapeAndFinite) {
  Rng rng(8);
  auto adj = RingGraph(7);
  nn::GatConv conv(3, 4, nn::Activation::kElu, &rng);
  Tensor x = RandomNormal(7, 3, 0, 1, &rng);
  ag::VarPtr y = conv.Forward(adj, ag::Constant(x));
  EXPECT_EQ(y->value().rows(), 7);
  EXPECT_EQ(y->value().cols(), 4);
  EXPECT_TRUE(y->value().AllFinite());
}

TEST(GatTest, AttentionIsConvexCombination) {
  // With identity weights (d_in == d_out forced via training-free check):
  // each output row is a convex combination of projected neighbour rows,
  // so outputs stay within the min/max envelope of h = x W.
  Rng rng(9);
  auto adj = RingGraph(6);
  nn::GatConv conv(3, 3, nn::Activation::kNone, &rng);
  Tensor x = RandomNormal(6, 3, 0, 1, &rng);
  ag::VarPtr y = conv.Forward(adj, ag::Constant(x));
  EXPECT_TRUE(y->value().AllFinite());
}

TEST(ActivateTest, AllVariantsFinite) {
  Rng rng(10);
  Tensor x = RandomNormal(3, 3, 0, 2, &rng);
  for (auto act : {nn::Activation::kNone, nn::Activation::kRelu,
                   nn::Activation::kLeakyRelu, nn::Activation::kElu,
                   nn::Activation::kTanh}) {
    ag::VarPtr y = nn::Activate(ag::Constant(x), act);
    EXPECT_TRUE(y->value().AllFinite());
  }
}

// --------------------------- Optimisers -----------------------------------

/// Minimise ||W - target||^2; both optimisers must reduce the loss.
template <typename Opt>
double OptimizeQuadratic(Opt&& opt, const ag::VarPtr& w,
                         const Tensor& target, int steps) {
  double last = 0.0;
  for (int s = 0; s < steps; ++s) {
    opt.ZeroGrad();
    ag::VarPtr loss = ag::MseLoss(w, target);
    last = loss->value().scalar();
    ag::Backward(loss);
    opt.Step();
  }
  return last;
}

TEST(OptimizerTest, SgdConverges) {
  Rng rng(11);
  ag::VarPtr w = ag::Leaf(RandomNormal(3, 3, 0, 1, &rng));
  Tensor target = RandomNormal(3, 3, 0, 1, &rng);
  const double initial = ag::MseLoss(w, target)->value().scalar();
  nn::Sgd sgd({w}, 0.5f);
  const double final_loss = OptimizeQuadratic(sgd, w, target, 50);
  EXPECT_LT(final_loss, initial * 0.01);
}

TEST(OptimizerTest, AdamConverges) {
  Rng rng(12);
  ag::VarPtr w = ag::Leaf(RandomNormal(3, 3, 0, 1, &rng));
  Tensor target = RandomNormal(3, 3, 0, 1, &rng);
  const double initial = ag::MseLoss(w, target)->value().scalar();
  nn::Adam adam({w}, 0.1f);
  const double final_loss = OptimizeQuadratic(adam, w, target, 100);
  EXPECT_LT(final_loss, initial * 0.01);
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Rng rng(13);
  ag::VarPtr w = ag::Leaf(Tensor::Full(2, 2, 1.0f));
  nn::Sgd sgd({w}, 0.1f, /*weight_decay=*/1.0f);
  // Gradient-free steps: decay alone shrinks the parameter.
  for (int s = 0; s < 5; ++s) {
    sgd.ZeroGrad();
    ag::Backward(ag::ScalarMul(ag::Sum(w), 0.0f));
    sgd.Step();
  }
  EXPECT_LT(w->value().at(0, 0), 1.0f);
}

TEST(OptimizerTest, StepWithoutGradIsNoop) {
  ag::VarPtr w = ag::Leaf(Tensor::Full(2, 2, 2.0f));
  nn::Adam adam({w}, 0.5f);
  adam.Step();  // no backward happened
  EXPECT_EQ(w->value().at(0, 0), 2.0f);
}

// ------------------------------ loss helpers ------------------------------

TEST(LossTest, BuildEdgeCandidatesShape) {
  Rng rng(14);
  SparseMatrix adj = SparseMatrix::FromEdges(
      10, {Edge{0, 1}, Edge{2, 3}, Edge{4, 5}}, true);
  std::vector<ag::EdgeCandidateSet> sets = nn::BuildEdgeCandidates(
      {Edge{0, 1}, Edge{2, 3}}, adj, 4, &rng);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].src, 0);
  EXPECT_EQ(sets[0].cands[0], 1);
  EXPECT_EQ(sets[0].cands.size(), 5u);
  // Negatives must not be neighbours of src.
  for (size_t c = 1; c < sets[0].cands.size(); ++c) {
    EXPECT_FALSE(adj.Has(0, sets[0].cands[c]));
  }
}

TEST(LossTest, ContrastiveNegativesAvoidSelf) {
  Rng rng(15);
  std::vector<int> neg = nn::SampleContrastiveNegatives(50, &rng);
  ASSERT_EQ(neg.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(neg[i], i);
    EXPECT_GE(neg[i], 0);
    EXPECT_LT(neg[i], 50);
  }
}

TEST(LossTest, ConvexCombineInterpolates) {
  ag::VarPtr a = ag::Constant(Tensor::Full(1, 1, 2.0f));
  ag::VarPtr b = ag::Constant(Tensor::Full(1, 1, 10.0f));
  EXPECT_NEAR(nn::ConvexCombine(a, b, 0.25f)->value().scalar(), 8.0f, 1e-5);
}

// -------------------- loss-gradient finite differences ---------------------
// Per-element central-difference checks of the three training losses'
// row-partitioned tape backward, run at both thread counts. float32
// arithmetic bounds the achievable agreement, hence the loose tolerances.

using LossBuildFn =
    std::function<ag::VarPtr(const std::vector<ag::VarPtr>& leaves)>;

void CheckLossGradients(const std::vector<Tensor>& inputs,
                        const LossBuildFn& build, double eps = 5e-3,
                        double rel_tol = 5e-2, double abs_tol = 2e-3) {
  auto eval = [&](const std::vector<Tensor>& xs) -> double {
    std::vector<ag::VarPtr> ls;
    ls.reserve(xs.size());
    for (const Tensor& t : xs) ls.push_back(ag::Leaf(t));
    return build(ls)->value().scalar();
  };
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    std::vector<ag::VarPtr> leaves;
    leaves.reserve(inputs.size());
    for (const Tensor& t : inputs) leaves.push_back(ag::Leaf(t));
    ag::VarPtr loss = build(leaves);
    ASSERT_EQ(loss->value().size(), 1);
    ag::Backward(loss);
    for (size_t p = 0; p < inputs.size(); ++p) {
      for (int64_t i = 0; i < inputs[p].size(); ++i) {
        std::vector<Tensor> plus = inputs;
        std::vector<Tensor> minus = inputs;
        plus[p].data()[i] += static_cast<float>(eps);
        minus[p].data()[i] -= static_cast<float>(eps);
        const double numeric = (eval(plus) - eval(minus)) / (2.0 * eps);
        const double exact = leaves[p]->grad().data()[i];
        const double err = std::abs(numeric - exact);
        const double scale = std::max(std::abs(numeric), std::abs(exact));
        EXPECT_LE(err, abs_tol + rel_tol * scale)
            << "threads " << threads << " param " << p << " element " << i
            << ": numeric=" << numeric << " analytic=" << exact;
      }
    }
  }
  SetNumThreads(1);
}

TEST(LossGradientTest, ScaledCosineCentralDifferences) {
  Rng rng(21);
  Tensor recon = RandomNormal(6, 4, 0, 1, &rng);
  Tensor target = RandomNormal(6, 4, 0, 1, &rng);
  CheckLossGradients({recon}, [&](const auto& v) {
    return ag::ScaledCosineLoss(v[0], target, {0, 2, 3, 5}, 2.0f);
  });
}

TEST(LossGradientTest, MaskedEdgeSoftmaxCeCentralDifferences) {
  Rng rng(22);
  // Candidate sets built the way training builds them: from masked edges of
  // a real graph, negatives sampled among non-neighbours.
  SparseMatrix adj = SparseMatrix::FromEdges(
      8, {Edge{0, 1}, Edge{2, 3}, Edge{4, 5}, Edge{1, 6}}, true);
  std::vector<ag::EdgeCandidateSet> sets = nn::BuildEdgeCandidates(
      {Edge{0, 1}, Edge{2, 3}, Edge{1, 6}}, adj, 3, &rng);
  Tensor z = RandomNormal(8, 3, 0, 0.5, &rng);
  CheckLossGradients({z}, [&](const auto& v) {
    return ag::MaskedEdgeSoftmaxCE(v[0], sets);
  });
}

TEST(LossGradientTest, DualContrastiveCentralDifferences) {
  Rng rng(23);
  std::vector<int> neg = nn::SampleContrastiveNegatives(5, &rng);
  Tensor zo = RandomNormal(5, 4, 0, 0.4, &rng);
  Tensor za = RandomNormal(5, 4, 0, 0.4, &rng);
  CheckLossGradients({zo, za}, [&](const auto& v) {
    return ag::DualContrastiveLoss(v[0], v[1], neg);
  });
}

// ------------------- GAT layer vs kept-serial oracle -----------------------

TEST(GatTest, ForwardMatchesNaiveOracleBitIdentically) {
  // Module-level differential: the full layer (projection + parallel
  // edge-softmax attention + activation) against ForwardNaive, forward and
  // backward, across thread counts and arena modes.
  Rng rng(24);
  auto adj = RingGraph(40);
  nn::GatConv conv(5, 6, nn::Activation::kElu, &rng);
  Tensor x = RandomNormal(40, 5, 0, 1, &rng);
  Tensor probe = RandomNormal(40, 6, 0, 1, &rng);
  auto run = [&](bool naive) {
    return [&, naive]() -> umgad::testing::Tensors {
      ag::VarPtr out = naive ? conv.ForwardNaive(adj, ag::Constant(x))
                             : conv.Forward(adj, ag::Constant(x));
      for (const auto& p : conv.Parameters()) p->ZeroGrad();
      ag::Retain(out);  // read after Backward
      ag::Backward(ag::Sum(ag::Hadamard(out, ag::Constant(probe))));
      umgad::testing::Tensors result{out->value()};
      for (const auto& p : conv.Parameters()) result.push_back(p->grad());
      return result;
    };
  };
  umgad::testing::ExpectBitIdentical("gat_conv", run(false), run(true));
}

}  // namespace
}  // namespace umgad
