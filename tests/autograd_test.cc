#include <cmath>
#include <cstring>
#include <functional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/pool.h"

namespace umgad {
namespace ag {
namespace {

/// Reduce an arbitrary-shape op output to a scalar with a fixed random
/// probe so every output element influences the loss with a distinct
/// weight: loss = sum(out .* probe).
VarPtr ToScalar(const VarPtr& v, const Tensor& probe) {
  return Sum(Hadamard(v, Constant(probe)));
}

using BuildFn =
    std::function<VarPtr(const std::vector<VarPtr>& leaves)>;

/// Central-difference gradient check of `build` at `inputs`. float32
/// arithmetic bounds the achievable agreement, hence the loose tolerances.
void CheckGradients(const std::vector<Tensor>& inputs, const BuildFn& build,
                    double eps = 1e-2, double rel_tol = 5e-2,
                    double abs_tol = 2e-3) {
  // Analytic gradients.
  std::vector<VarPtr> leaves;
  leaves.reserve(inputs.size());
  for (const Tensor& t : inputs) leaves.push_back(Leaf(t));
  VarPtr loss = build(leaves);
  ASSERT_EQ(loss->value().size(), 1);
  Backward(loss);
  std::vector<Tensor> analytic;
  for (const auto& leaf : leaves) analytic.push_back(leaf->grad());

  auto eval = [&](const std::vector<Tensor>& xs) -> double {
    std::vector<VarPtr> ls;
    for (const Tensor& t : xs) ls.push_back(Leaf(t));
    return build(ls)->value().scalar();
  };

  for (size_t p = 0; p < inputs.size(); ++p) {
    for (int64_t i = 0; i < inputs[p].size(); ++i) {
      std::vector<Tensor> plus = inputs;
      std::vector<Tensor> minus = inputs;
      plus[p].data()[i] += static_cast<float>(eps);
      minus[p].data()[i] -= static_cast<float>(eps);
      const double numeric = (eval(plus) - eval(minus)) / (2.0 * eps);
      const double exact = analytic[p].data()[i];
      const double err = std::abs(numeric - exact);
      const double scale = std::max(std::abs(numeric), std::abs(exact));
      EXPECT_LE(err, abs_tol + rel_tol * scale)
          << "param " << p << " element " << i << ": numeric=" << numeric
          << " analytic=" << exact;
    }
  }
}

Tensor Rand(int r, int c, uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  return RandomNormal(r, c, 0.0, scale, &rng);
}

/// Same shape and the same bits (MaxAbsDiff would equate -0 and +0).
bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::shared_ptr<const SparseMatrix> SmallGraph(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (int k = 0; k < 3 * n; ++k) {
    int u = static_cast<int>(rng.UniformInt(n));
    int v = static_cast<int>(rng.UniformInt(n));
    if (u != v) edges.push_back(Edge{u, v});
  }
  return std::make_shared<const SparseMatrix>(
      SparseMatrix::FromEdges(n, edges, true).NormalizedWithSelfLoops());
}

TEST(AutogradTest, AddGradient) {
  Tensor probe = Rand(3, 4, 99);
  CheckGradients({Rand(3, 4, 1), Rand(3, 4, 2)}, [&](const auto& v) {
    return ToScalar(Add(v[0], v[1]), probe);
  });
}

TEST(AutogradTest, SubGradient) {
  Tensor probe = Rand(3, 4, 98);
  CheckGradients({Rand(3, 4, 3), Rand(3, 4, 4)}, [&](const auto& v) {
    return ToScalar(Sub(v[0], v[1]), probe);
  });
}

TEST(AutogradTest, AddNGradient) {
  Tensor probe = Rand(2, 3, 97);
  CheckGradients({Rand(2, 3, 5), Rand(2, 3, 6), Rand(2, 3, 7)},
                 [&](const auto& v) {
                   return ToScalar(AddN({v[0], v[1], v[2]}), probe);
                 });
}

TEST(AutogradTest, HadamardGradient) {
  Tensor probe = Rand(3, 3, 96);
  CheckGradients({Rand(3, 3, 8), Rand(3, 3, 9)}, [&](const auto& v) {
    return ToScalar(Hadamard(v[0], v[1]), probe);
  });
}

TEST(AutogradTest, ScalarMulGradient) {
  Tensor probe = Rand(2, 5, 95);
  CheckGradients({Rand(2, 5, 10)}, [&](const auto& v) {
    return ToScalar(ScalarMul(v[0], -1.7f), probe);
  });
}

TEST(AutogradTest, MatMulGradient) {
  Tensor probe = Rand(3, 4, 94);
  CheckGradients({Rand(3, 5, 11), Rand(5, 4, 12)}, [&](const auto& v) {
    return ToScalar(MatMul(v[0], v[1]), probe);
  });
}

TEST(AutogradTest, SpmmGradient) {
  auto s = SmallGraph(6, 42);
  Tensor probe = Rand(6, 3, 93);
  CheckGradients({Rand(6, 3, 13)}, [&](const auto& v) {
    return ToScalar(Spmm(s, v[0]), probe);
  });
}

TEST(AutogradTest, AddRowBroadcastGradient) {
  Tensor probe = Rand(4, 3, 92);
  CheckGradients({Rand(4, 3, 14), Rand(1, 3, 15)}, [&](const auto& v) {
    return ToScalar(AddRowBroadcast(v[0], v[1]), probe);
  });
}

TEST(AutogradTest, ActivationGradients) {
  Tensor probe = Rand(3, 3, 91);
  for (auto fn : {+[](const VarPtr& x) { return Relu(x); },
                  +[](const VarPtr& x) { return LeakyRelu(x, 0.2f); },
                  +[](const VarPtr& x) { return Sigmoid(x); },
                  +[](const VarPtr& x) { return Tanh(x); },
                  +[](const VarPtr& x) { return Elu(x, 1.0f); }}) {
    CheckGradients({Rand(3, 3, 16, 0.8)}, [&](const auto& v) {
      return ToScalar(fn(v[0]), probe);
    });
  }
}

TEST(AutogradTest, RowL2NormalizeGradient) {
  Tensor probe = Rand(4, 3, 90);
  CheckGradients(
      {Rand(4, 3, 17)},
      [&](const auto& v) { return ToScalar(RowL2Normalize(v[0]), probe); },
      /*eps=*/5e-3);
}

TEST(AutogradTest, GatherRowsGradient) {
  Tensor probe = Rand(4, 3, 89);
  CheckGradients({Rand(5, 3, 18)}, [&](const auto& v) {
    return ToScalar(GatherRows(v[0], {0, 2, 2, 4}), probe);
  });
}

TEST(AutogradTest, MaskRowsGradient) {
  Tensor probe = Rand(5, 3, 88);
  CheckGradients({Rand(5, 3, 19), Rand(1, 3, 20)}, [&](const auto& v) {
    return ToScalar(MaskRows(v[0], {1, 3}, v[1]), probe);
  });
}

TEST(AutogradTest, SimplexWeightedSumGradient) {
  Tensor probe = Rand(3, 3, 87);
  CheckGradients(
      {Rand(3, 3, 21), Rand(3, 3, 22), Rand(1, 2, 23)},
      [&](const auto& v) {
        return ToScalar(SimplexWeightedSum({v[0], v[1]}, v[2]), probe);
      });
}

TEST(AutogradTest, SumAndMeanGradients) {
  CheckGradients({Rand(3, 4, 24)},
                 [&](const auto& v) { return Sum(v[0]); });
  CheckGradients({Rand(3, 4, 25)},
                 [&](const auto& v) { return Mean(v[0]); });
}

TEST(AutogradTest, ScaledCosineLossGradient) {
  Tensor target = Rand(5, 4, 26);
  for (float eta : {1.0f, 2.0f, 3.0f}) {
    CheckGradients(
        {Rand(5, 4, 27)},
        [&](const auto& v) {
          return ScaledCosineLoss(v[0], target, {0, 2, 4}, eta);
        },
        /*eps=*/5e-3);
  }
}

TEST(AutogradTest, MseLossGradient) {
  Tensor target = Rand(4, 3, 28);
  CheckGradients({Rand(4, 3, 29)}, [&](const auto& v) {
    return MseLoss(v[0], target);
  });
  CheckGradients({Rand(4, 3, 30)}, [&](const auto& v) {
    return MseLoss(v[0], target, {1, 3});
  });
}

TEST(AutogradTest, MaskedEdgeSoftmaxCEGradient) {
  std::vector<EdgeCandidateSet> sets = {
      {0, {1, 2, 3}},
      {2, {4, 0, 1}},
  };
  CheckGradients(
      {Rand(5, 3, 31, 0.5)},
      [&](const auto& v) { return MaskedEdgeSoftmaxCE(v[0], sets); },
      /*eps=*/5e-3);
}

TEST(AutogradTest, PairDotBceLossGradient) {
  std::vector<float> labels = {1.0f, 0.0f, 1.0f};
  CheckGradients(
      {Rand(3, 4, 32, 0.5), Rand(3, 4, 33, 0.5)},
      [&](const auto& v) { return PairDotBceLoss(v[0], v[1], labels); },
      /*eps=*/5e-3);
}

TEST(AutogradTest, DualContrastiveLossGradient) {
  std::vector<int> neg = {2, 0, 1};
  CheckGradients(
      {Rand(3, 4, 34, 0.4), Rand(3, 4, 35, 0.4)},
      [&](const auto& v) { return DualContrastiveLoss(v[0], v[1], neg); },
      /*eps=*/5e-3);
}

TEST(AutogradTest, GatAttentionGradient) {
  auto adj = SmallGraph(5, 77);
  Tensor probe = Rand(5, 3, 86);
  CheckGradients(
      {Rand(5, 3, 36, 0.5), Rand(1, 3, 37, 0.5), Rand(1, 3, 38, 0.5)},
      [&](const auto& v) {
        return ToScalar(GatAttention(v[0], v[1], v[2], adj, 0.2f), probe);
      },
      /*eps=*/5e-3);
}

TEST(AutogradTest, SharedSubexpressionAccumulates) {
  // loss = sum(x .* x) => dl/dx = 2x. Exercises the diamond topology.
  Tensor x = Rand(3, 3, 39);
  VarPtr leaf = Leaf(x);
  VarPtr loss = Sum(Hadamard(leaf, leaf));
  Backward(loss);
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(leaf->grad().data()[i], 2.0f * x.data()[i], 1e-4);
  }
}

TEST(AutogradTest, ParameterReusedAcrossBranches) {
  // loss = sum(W) + 2*sum(W) accumulated through two branches.
  Tensor w = Rand(2, 2, 40);
  VarPtr leaf = Leaf(w);
  VarPtr loss = Add(Sum(leaf), ScalarMul(Sum(leaf), 2.0f));
  Backward(loss);
  for (int64_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(leaf->grad().data()[i], 3.0f, 1e-5);
  }
}

TEST(AutogradTest, ConstantsReceiveNoGradient) {
  VarPtr c = Constant(Rand(2, 2, 41));
  VarPtr leaf = Leaf(Rand(2, 2, 42));
  VarPtr loss = Sum(Hadamard(c, leaf));
  Backward(loss);
  EXPECT_TRUE(leaf->has_grad());
  EXPECT_FALSE(c->has_grad());
}

TEST(AutogradTest, ZeroGradResets) {
  VarPtr leaf = Leaf(Rand(2, 2, 43));
  Backward(Sum(leaf));
  EXPECT_GT(leaf->grad().SquaredNorm(), 0.0);
  leaf->ZeroGrad();
  EXPECT_EQ(leaf->grad().SquaredNorm(), 0.0);
}

TEST(AutogradTest, BackwardTwiceAccumulates) {
  VarPtr leaf = Leaf(Rand(2, 2, 44));
  Backward(Sum(leaf));
  Backward(Sum(leaf));
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(leaf->grad().data()[i], 2.0f, 1e-5);
  }
}

// A second sweep over the same graph adds each op's contribution once; a
// stale intermediate gradient would give the leaf 2 + 4 = 6.
TEST(AutogradTest, BackwardTwiceThroughOpsAccumulatesOnce) {
  VarPtr leaf = Leaf(Rand(2, 2, 45));
  VarPtr loss = Sum(ScalarMul(leaf, 2.0f));
  Backward(loss);
  Backward(loss);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(leaf->grad().data()[i], 4.0f);
  }
}

// ---------------------------------------------------------------------------
// Arena tape: reuse across steps, arena on/off equivalence, steady-state
// allocation accounting, and thread-count invariance of the parallel
// backward sweep.
// ---------------------------------------------------------------------------

/// One training-step-shaped graph over persistent leaves: two branches
/// sharing W (so backward has cross-branch accumulation), an Spmm, and a
/// fused loss. Returns the loss root.
VarPtr StepGraph(const VarPtr& w, const VarPtr& bias, const Tensor& x,
                 const std::shared_ptr<const SparseMatrix>& adj) {
  VarPtr h = MatMul(Constant(x), w);
  h = AddRowBroadcast(h, bias);
  VarPtr branch_a = Relu(Spmm(adj, h));
  VarPtr branch_b = Tanh(MatMul(Constant(x), w));
  return Add(Mean(Hadamard(branch_a, branch_a)),
             ScalarMul(Mean(Hadamard(branch_b, branch_b)), 0.5f));
}

TEST(TapeTest, ResetReuseIsBitIdentical) {
  auto adj = SmallGraph(12, 51);
  Tensor x = Rand(12, 6, 52);
  VarPtr w = Leaf(Rand(6, 6, 53));
  VarPtr bias = Leaf(Rand(1, 6, 54));

  Tape::Global().Reset();
  Backward(StepGraph(w, bias, x, adj));
  Tensor gw = w->grad();
  Tensor gb = bias->grad();

  for (int step = 0; step < 3; ++step) {
    // Persistent leaves survive the rewind; the rebuilt graph must land on
    // recycled buffers/slabs and reproduce the gradients exactly.
    Tape::Global().Reset();
    w->ZeroGrad();
    bias->ZeroGrad();
    Backward(StepGraph(w, bias, x, adj));
    EXPECT_EQ(MaxAbsDiff(w->grad(), gw), 0.0) << "step " << step;
    EXPECT_EQ(MaxAbsDiff(bias->grad(), gb), 0.0) << "step " << step;
  }
}

TEST(TapeTest, SteadyStateStepsAllocateNothing) {
  const bool prev_arena = ArenaEnabled();
  SetArenaEnabled(true);
  // One lane: the exact-zero claim is deterministic only when the per-step
  // allocation pattern is (see the matching note in determinism_test.cc).
  SetNumThreads(1);
  auto adj = SmallGraph(20, 61);
  Tensor x = Rand(20, 8, 62);
  VarPtr w = Leaf(Rand(8, 8, 63));
  VarPtr bias = Leaf(Rand(1, 8, 64));

  // Warm-up: first steps may grow the pool and the node slabs.
  for (int step = 0; step < 2; ++step) {
    Tape::Global().Reset();
    w->ZeroGrad();
    bias->ZeroGrad();
    Backward(StepGraph(w, bias, x, adj));
  }
  const TensorPool::Stats pool0 = TensorPool::Global().stats();
  const Tape::Stats tape0 = Tape::Global().stats();
  for (int step = 0; step < 5; ++step) {
    Tape::Global().Reset();
    w->ZeroGrad();
    bias->ZeroGrad();
    Backward(StepGraph(w, bias, x, adj));
  }
  const TensorPool::Stats pool1 = TensorPool::Global().stats();
  const Tape::Stats tape1 = Tape::Global().stats();
  EXPECT_EQ(pool1.fresh_buffers, pool0.fresh_buffers)
      << "steady-state steps must reuse pooled tensor buffers";
  EXPECT_EQ(pool1.fresh_bytes, pool0.fresh_bytes);
  EXPECT_EQ(tape1.node_slabs, tape0.node_slabs)
      << "steady-state steps must reuse node slabs";
  EXPECT_GT(pool1.reused_buffers, pool0.reused_buffers);
  SetArenaEnabled(prev_arena);
}

TEST(TapeTest, ArenaOffMatchesArenaOn) {
  auto adj = SmallGraph(15, 71);
  Tensor x = Rand(15, 5, 72);

  const bool prev_arena = ArenaEnabled();
  Tensor grads[2];
  double losses[2];
  for (int mode = 0; mode < 2; ++mode) {
    SetArenaEnabled(mode == 1);
    Tape::Global().Reset();
    VarPtr w = Leaf(Rand(5, 5, 73));
    VarPtr bias = Leaf(Rand(1, 5, 74));
    VarPtr loss = StepGraph(w, bias, x, adj);
    Backward(loss);
    losses[mode] = loss->value().scalar();
    grads[mode] = w->grad();
  }
  SetArenaEnabled(prev_arena);
  EXPECT_EQ(losses[0], losses[1]);
  EXPECT_EQ(MaxAbsDiff(grads[0], grads[1]), 0.0);
}

TEST(TapeTest, BackwardBitIdenticalAcrossThreadCounts) {
  auto adj = SmallGraph(40, 81);
  Tensor x = Rand(40, 16, 82);
  VarPtr w = Leaf(Rand(16, 16, 83));
  VarPtr bias = Leaf(Rand(1, 16, 84));

  // A wide graph (many independent branches sharing w) so the batched
  // scheduler actually runs multi-node batches.
  auto build = [&]() {
    std::vector<VarPtr> terms;
    for (int b = 0; b < 6; ++b) {
      VarPtr h = MatMul(Constant(x), w);
      h = AddRowBroadcast(h, bias);
      h = b % 2 == 0 ? Relu(Spmm(adj, h)) : Sigmoid(Spmm(adj, h));
      terms.push_back(Mean(Hadamard(h, h)));
    }
    return AddN(terms);
  };

  SetNumThreads(1);
  Tape::Global().Reset();
  w->ZeroGrad();
  bias->ZeroGrad();
  Backward(build());
  Tensor gw1 = w->grad();
  Tensor gb1 = bias->grad();

  SetNumThreads(4);
  Tape::Global().Reset();
  w->ZeroGrad();
  bias->ZeroGrad();
  Backward(build());
  EXPECT_EQ(MaxAbsDiff(w->grad(), gw1), 0.0);
  EXPECT_EQ(MaxAbsDiff(bias->grad(), gb1), 0.0);
  SetNumThreads(1);
}

TEST(TapeTest, BackwardReleasesOpGradients) {
  const bool prev_arena = ArenaEnabled();
  SetArenaEnabled(true);
  // One lane keeps the pool's acquire/release sequence fixed.
  SetNumThreads(1);
  constexpr int kRows = 32;
  constexpr int kCols = 8;
  const int64_t buffer_bytes =
      static_cast<int64_t>(kRows) * kCols * sizeof(float);

  // A chain of same-shape ops: op k's gradient is last written when op k+1
  // runs, so after op k runs its buffer can feed op k-1's gradient.
  struct Run {
    Tensor leaf_grad;
    int64_t backward_fresh_bytes;
  };
  auto run = [&](int chain, bool trim) {
    Tape::Global().Reset();
    if (trim) TensorPool::Global().Trim();
    VarPtr leaf = Leaf(Rand(kRows, kCols, 95));
    std::vector<VarPtr> ops;
    VarPtr h = leaf;
    for (int k = 0; k < chain; ++k) {
      h = k % 2 == 0 ? Tanh(h) : ScalarMul(h, 0.9f);
      ops.push_back(h);
    }
    VarPtr root = Mean(h);
    const int64_t fresh_before = TensorPool::Global().stats().fresh_bytes;
    Backward(root);
    Run out{leaf->grad(),
            TensorPool::Global().stats().fresh_bytes - fresh_before};
    for (const VarPtr& op : ops) EXPECT_FALSE(op->has_grad()) << op->op();
    EXPECT_TRUE(leaf->has_grad());
    EXPECT_TRUE(root->has_grad());
    return out;
  };

  const Run fresh = run(16, /*trim=*/true);
  // The same graph on recycled buffers: released gradients come back
  // zeroed, so the leaf gradient is bit-equal to the fresh-tape run.
  const Run recycled = run(16, /*trim=*/false);
  EXPECT_EQ(MaxAbsDiff(recycled.leaf_grad, fresh.leaf_grad), 0.0);

  // A few live gradient buffers, however long the chain (keeping them all
  // costs one buffer per op).
  EXPECT_LE(fresh.backward_fresh_bytes, 4 * buffer_bytes);
  EXPECT_LE(run(64, /*trim=*/true).backward_fresh_bytes, 4 * buffer_bytes);
  Tape::Global().Reset();
  SetArenaEnabled(prev_arena);
}

TEST(TapeTest, BackwardReleasesDeadValues) {
  // One graph through matmul, spmm, gat_attention, mask_rows, simplex
  // fusion and every loss op. After Backward only the root, the leaves, the
  // constants and the Retain()ed node hold values, and the leaf gradients
  // are bit-equal to the same graph with every op value kept.
  constexpr int n = 24;
  constexpr int f = 6;
  constexpr int d = 8;
  auto adj = SmallGraph(n, 101);
  const Tensor x_value = Rand(n, f, 102);
  const Tensor target = Rand(n, f, 103);
  const std::vector<int> rows = {0, 3, 5, 8, 13, 21};
  std::vector<EdgeCandidateSet> sets;
  for (int i = 0; i < n; i += 4) sets.push_back({i, {(i + 1) % n, i, 7}});
  std::vector<int> neg(n);
  for (int i = 0; i < n; ++i) neg[i] = (i + 5) % n;

  struct Run {
    std::vector<Tensor> grads;
    std::vector<VarPtr> leaves, constants, ops;
    VarPtr root, retained;
  };
  auto run = [&](bool retain_all) {
    Tape::Global().Reset();
    Run out;
    auto leaf = [&](int r, int c, uint64_t seed) {
      out.leaves.push_back(Leaf(Rand(r, c, seed, 0.5)));
      return out.leaves.back();
    };
    auto op = [&](VarPtr v) {
      out.ops.push_back(retain_all ? Retain(v) : v);
      return v;
    };
    VarPtr w = leaf(f, d, 104);
    VarPtr bias = leaf(1, d, 105);
    VarPtr token = leaf(1, f, 106);
    VarPtr a_src = leaf(1, d, 107);
    VarPtr a_dst = leaf(1, d, 108);
    VarPtr logits = leaf(1, 2, 109);
    VarPtr w_out = leaf(d, f, 110);
    VarPtr x = Constant(x_value);
    out.constants.push_back(x);

    VarPtr masked = op(MaskRows(x, {1, 4, 7}, token));
    VarPtr h = op(AddRowBroadcast(op(MatMul(masked, w)), bias));
    VarPtr att = op(GatAttention(op(Spmm(adj, h)), a_src, a_dst, adj, 0.2f));
    VarPtr other = op(Tanh(op(Spmm(adj, op(MatMul(x, w))))));
    VarPtr fused = op(SimplexWeightedSum({att, other}, logits));
    VarPtr recon = op(MatMul(fused, w_out));
    std::vector<VarPtr> terms = {
        op(ScaledCosineLoss(recon, target, rows, 2.0f)),
        op(MseLoss(recon, target, rows)),
        op(MaskedEdgeSoftmaxCE(fused, sets)),
        op(PairDotBceLoss(op(GatherRows(fused, {0, 2, 4})),
                          op(GatherRows(fused, {1, 3, 9})), {1.0f, 0.0f, 1.0f})),
        op(ScalarMul(op(DualContrastiveLoss(op(RowL2Normalize(att)),
                                            op(RowL2Normalize(other)), neg)),
                     0.5f))};
    out.root = op(AddN(terms));
    out.retained = retain_all ? nullptr : Retain(fused);
    Backward(out.root);
    for (const VarPtr& l : out.leaves) out.grads.push_back(l->grad());
    return out;
  };

  for (bool arena : {true, false}) {
    const bool prev_arena = ArenaEnabled();
    SetArenaEnabled(arena);
    const Run kept = run(/*retain_all=*/true);
    for (const VarPtr& v : kept.ops) EXPECT_FALSE(v->value().empty());
    const std::vector<Tensor> kept_grads = kept.grads;

    const Run released = run(/*retain_all=*/false);
    for (const VarPtr& v : released.ops) {
      if (v == released.root || v == released.retained) {
        EXPECT_FALSE(v->value().empty()) << v->op();
      } else {
        EXPECT_TRUE(v->value().empty()) << v->op();
      }
    }
    EXPECT_EQ(released.root->value().size(), 1);
    EXPECT_EQ(released.retained->value().rows(), n);
    for (const VarPtr& v : released.leaves) EXPECT_FALSE(v->value().empty());
    for (const VarPtr& v : released.constants) {
      EXPECT_EQ(MaxAbsDiff(v->value(), x_value), 0.0);
    }
    ASSERT_EQ(released.grads.size(), kept_grads.size());
    for (size_t i = 0; i < kept_grads.size(); ++i) {
      EXPECT_GT(kept_grads[i].SquaredNorm(), 0.0) << "leaf " << i;
      EXPECT_TRUE(BitEqual(released.grads[i], kept_grads[i]))
          << "leaf " << i << " arena " << arena;
    }
    Tape::Global().Reset();
    SetArenaEnabled(prev_arena);
  }
}

TEST(TapeTest, PersistentConstantSurvivesReset) {
  VarPtr frozen = PersistentConstant(Rand(1, 3, 91));
  Tensor before = frozen->value();
  Tape::Global().Reset();
  EXPECT_EQ(MaxAbsDiff(frozen->value(), before), 0.0);
  EXPECT_FALSE(frozen->requires_grad());
}

TEST(TapeTest, ParamScopeReclaimsPersistentLeaves) {
  const int64_t baseline = Tape::Global().stats().persistent_nodes;
  {
    ParamScope scope;
    VarPtr w = Leaf(Rand(4, 4, 101));
    VarPtr frozen = PersistentConstant(Rand(4, 4, 102));
    EXPECT_EQ(Tape::Global().stats().persistent_nodes, baseline + 2);
    // Scoped leaves behave like any other: forward + backward works and
    // the transient graph still dies at Reset as usual.
    Backward(Sum(MatMul(frozen, w)));
    EXPECT_EQ(w->grad().rows(), 4);
    Tape::Global().Reset();
    // VarPtr is non-owning; simply stop using the handles past this point.
  }
  EXPECT_EQ(Tape::Global().stats().persistent_nodes, baseline);

  // Enough leaves to cross slab boundaries: the rewind must walk the
  // whole suffix, not just the tail slab.
  {
    ParamScope scope;
    std::vector<VarPtr> leaves;
    for (int i = 0; i < 300; ++i) leaves.push_back(Leaf(Rand(1, 1, 200 + i)));
    EXPECT_EQ(Tape::Global().stats().persistent_nodes, baseline + 300);
    leaves.clear();
  }
  EXPECT_EQ(Tape::Global().stats().persistent_nodes, baseline);
}

TEST(TapeTest, ParamScopesNestLifo) {
  const int64_t baseline = Tape::Global().stats().persistent_nodes;
  {
    ParamScope outer;
    VarPtr a = Leaf(Rand(2, 2, 111));
    const Tensor a_before = a->value();
    {
      ParamScope inner;
      VarPtr b = Leaf(Rand(2, 2, 112));
      VarPtr c = Leaf(Rand(2, 2, 113));
      EXPECT_EQ(b->value().rows(), 2);
      EXPECT_EQ(c->value().cols(), 2);
      EXPECT_EQ(Tape::Global().stats().persistent_nodes, baseline + 3);
    }
    // The inner rewind reclaimed exactly its own suffix; the outer
    // scope's leaf is untouched and still readable.
    EXPECT_EQ(Tape::Global().stats().persistent_nodes, baseline + 1);
    EXPECT_EQ(MaxAbsDiff(a->value(), a_before), 0.0);
  }
  EXPECT_EQ(Tape::Global().stats().persistent_nodes, baseline);
}

}  // namespace
}  // namespace ag
}  // namespace umgad
