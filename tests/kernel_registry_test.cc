// Kernel-selection contract (src/tensor/dispatch/): each product runs one
// kernel, the dense ones with the micro-kernel tier cpuid picks, and every
// tier is bit-identical to the serial oracles (MatMulNaive,
// SparseMatrix::MultiplyNaive) for any UMGAD_THREADS x arena combination.
// SetDisabledCpuFeaturesForTest masks AVX2 off, so the baseline tier runs
// here even on machines that do have AVX2; KernelRegistry::Selections()
// must report whichever tier runs.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/umgad.h"
#include "graph/datasets.h"
#include "oracle_harness.h"
#include "tensor/dispatch/cpu_features.h"
#include "tensor/dispatch/matmul_impl.h"
#include "tensor/dispatch/registry.h"
#include "tensor/init.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace umgad {
namespace {

using dispatch::KernelOp;
using dispatch::KernelRegistry;
using dispatch::KernelSelection;
using ::umgad::testing::ExpectBitIdentical;
using ::umgad::testing::Tensors;

Tensor RandomTensor(int r, int c, uint64_t seed) {
  Rng rng(seed);
  return RandomNormal(r, c, 0.0, 1.0, &rng);
}

SparseMatrix RandomSparse(int n, int edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> e;
  for (int i = 0; i < edges; ++i) {
    e.push_back(Edge{static_cast<int>(rng.UniformInt(n)),
                     static_cast<int>(rng.UniformInt(n))});
  }
  return SparseMatrix::FromEdges(n, e, /*symmetrize=*/true);
}

/// True when this build compiled the AVX2 tier and the CPU can run it.
bool HostHasAvx2Tier() {
  return dispatch::Avx2MicroKernels() != nullptr &&
         (dispatch::DetectedCpuFeatures() & dispatch::kFeatAvx2) != 0;
}

/// The feature masks the sweeps run under: the host's own tier, then the
/// baseline tier with AVX2 masked off (the same tier on hosts without it).
struct Tier {
  const char* label;
  unsigned disabled;
};
constexpr Tier kTiers[] = {{"default tier", 0},
                           {"avx2 masked", dispatch::kFeatAvx2}};

/// (m, k, n) dense shapes straddling the 8 x 8 register tiles, the scalar
/// column tail and the 2^15 serial threshold: 15*32*64 falls below it,
/// 16*32*64 sits exactly on it, the rest run on the pool with row and
/// column remainders.
struct Shape {
  int m, k, n;
};
constexpr Shape kShapes[] = {{1, 1, 1},    {15, 32, 64},  {16, 32, 64},
                             {9, 63, 65},  {37, 29, 71},  {8, 64, 128},
                             {67, 48, 129}};
/// Tall-skinny shapes of a node-bound epoch: thousands of rows against
/// 7-65 columns (the GMAE projections and their gradients), and a depth
/// of 5003 for A^T B, whose output is a few row tiles and whose depth runs
/// many slices.
constexpr Shape kTallShapes[] = {{4099, 32, 48}, {4099, 48, 32},
                                 {3001, 25, 7},  {2050, 64, 65},
                                 {7, 5003, 48},  {32, 5003, 48},
                                 {48, 5003, 33}};

std::string ShapeLabel(const Tier& tier, const Shape& s) {
  return std::string(tier.label) + " " + std::to_string(s.m) + "x" +
         std::to_string(s.k) + "x" + std::to_string(s.n);
}

/// The feature mask is process-wide: every test restores it on exit so
/// suites compose.
class KernelRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override { dispatch::SetDisabledCpuFeaturesForTest(0); }
};

KernelSelection SelectionFor(KernelOp op) {
  for (KernelSelection& s : KernelRegistry::Global()->Selections()) {
    if (s.op == op) return s;
  }
  ADD_FAILURE() << "no selection for op " << dispatch::KernelOpName(op);
  return {};
}

// ------------------------- selection report -------------------------------

TEST_F(KernelRegistryTest, EveryOpHasANaiveFloorAndADefaultWinner) {
  // The default kernel is the blocked one, on the widest tier the host has.
  const std::string dense = HostHasAvx2Tier() ? "blocked_avx2" : "blocked";
  EXPECT_EQ(SelectionFor(KernelOp::kMatMul).variant, dense);
  EXPECT_EQ(SelectionFor(KernelOp::kMatMulTransB).variant, dense);
  EXPECT_EQ(SelectionFor(KernelOp::kSpmm).variant, "blocked");

  // The floor: below the small-product shortcut the dense kernels run the
  // naive loop itself, and an empty sparse operator yields zeros.
  Tensor a = RandomTensor(5, 7, 1);
  Tensor b = RandomTensor(7, 3, 2);
  EXPECT_EQ(MaxAbsDiff(MatMul(a, b), MatMulNaive(a, b)), 0.0);
  EXPECT_EQ(MaxAbsDiff(MatMulTransB(a, Transpose(b)), MatMulNaive(a, b)), 0.0);
  SparseMatrix empty = SparseMatrix::FromEdges(7, {}, /*symmetrize=*/true);
  EXPECT_EQ(MaxAbsDiff(empty.Multiply(RandomTensor(7, 3, 3)), Tensor(7, 3)),
            0.0);
}

TEST_F(KernelRegistryTest, RegistryHoldsExactlyTheFloatForwardOps) {
  std::vector<std::string> names;
  for (const KernelSelection& sel : KernelRegistry::Global()->Selections()) {
    names.push_back(dispatch::KernelOpName(sel.op));
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"matmul", "matmul_transb", "spmm"}));
}

TEST_F(KernelRegistryTest, ResolveReturnsNonNullForEveryOp) {
  // Every op reports a named kernel under either tier, in KernelOp order.
  for (const Tier& tier : kTiers) {
    dispatch::SetDisabledCpuFeaturesForTest(tier.disabled);
    const std::vector<KernelSelection> selections =
        KernelRegistry::Global()->Selections();
    ASSERT_EQ(static_cast<int>(selections.size()), dispatch::kNumKernelOps);
    for (int i = 0; i < dispatch::kNumKernelOps; ++i) {
      EXPECT_EQ(selections[i].op, static_cast<KernelOp>(i)) << tier.label;
      EXPECT_NE(dispatch::KernelOpName(selections[i].op), nullptr);
      EXPECT_FALSE(selections[i].variant.empty()) << tier.label;
    }
  }
}

TEST_F(KernelRegistryTest, DisablingAFeatureDemotesTheSelection) {
  if (!HostHasAvx2Tier()) {
    GTEST_SKIP() << "no AVX2 tier on this build/host";
  }
  EXPECT_EQ(SelectionFor(KernelOp::kMatMul).variant, "blocked_avx2");

  dispatch::SetDisabledCpuFeaturesForTest(dispatch::kFeatAvx2);
  EXPECT_EQ(SelectionFor(KernelOp::kMatMul).variant, "blocked");
  EXPECT_EQ(SelectionFor(KernelOp::kMatMulTransB).variant, "blocked");
  EXPECT_EQ(SelectionFor(KernelOp::kSpmm).variant, "blocked");

  dispatch::SetDisabledCpuFeaturesForTest(0);
  EXPECT_EQ(SelectionFor(KernelOp::kMatMul).variant, "blocked_avx2");
  EXPECT_EQ(SelectionFor(KernelOp::kMatMulTransB).variant, "blocked_avx2");
}

// ------------------------- bit-identity -----------------------------------

// The tiers' core promise: switching the micro-kernel ISA never changes a
// single bit. Each tier sweeps the differential harness against the serial
// oracle.

TEST_F(KernelRegistryTest, EveryMatMulVariantIsBitIdenticalToNaive) {
  for (const Tier& tier : kTiers) {
    dispatch::SetDisabledCpuFeaturesForTest(tier.disabled);
    for (const Shape& s : kShapes) {
      Tensor a = RandomTensor(s.m, s.k, 21);
      Tensor b = RandomTensor(s.k, s.n, 22);
      ExpectBitIdentical("matmul " + ShapeLabel(tier, s),
                         [&] { return Tensors{MatMul(a, b)}; },
                         [&] { return Tensors{MatMulNaive(a, b)}; });
    }
  }
}

TEST_F(KernelRegistryTest, TallSkinnyMatMulIsBitIdenticalOnEveryTier) {
  for (const Tier& tier : kTiers) {
    dispatch::SetDisabledCpuFeaturesForTest(tier.disabled);
    for (const Shape& s : kTallShapes) {
      Tensor a = RandomTensor(s.m, s.k, 23);
      Tensor b = RandomTensor(s.k, s.n, 24);
      ExpectBitIdentical("matmul " + ShapeLabel(tier, s),
                         [&] { return Tensors{MatMul(a, b)}; },
                         [&] { return Tensors{MatMulNaive(a, b)}; });
    }
  }
}

TEST_F(KernelRegistryTest, EveryMatMulTransAVariantIsBitIdenticalToNaive) {
  // A^T B reads A^T in place through the kernel's strides: (m, k, n) is
  // the product's shape, so A is stored k x m.
  for (const Tier& tier : kTiers) {
    dispatch::SetDisabledCpuFeaturesForTest(tier.disabled);
    for (const auto* shapes : {&kShapes, &kTallShapes}) {
      for (const Shape& s : *shapes) {
        Tensor a = RandomTensor(s.k, s.m, 25);
        Tensor b = RandomTensor(s.k, s.n, 26);
        ExpectBitIdentical("matmul_transa " + ShapeLabel(tier, s),
                           [&] { return Tensors{MatMulTransA(a, b)}; },
                           [&] { return Tensors{MatMulTransANaive(a, b)}; });
      }
    }
  }
}

TEST_F(KernelRegistryTest, EveryMatMulTransBVariantIsBitIdenticalToNaive) {
  for (const Tier& tier : kTiers) {
    dispatch::SetDisabledCpuFeaturesForTest(tier.disabled);
    for (const Shape& s : kShapes) {
      Tensor a = RandomTensor(s.m, s.k, 31);
      Tensor b = RandomTensor(s.n, s.k, 32);  // row-major weights
      ExpectBitIdentical(
          "matmul_transb " + ShapeLabel(tier, s),
          [&] { return Tensors{MatMulTransB(a, b)}; },
          [&] { return Tensors{MatMulNaive(a, Transpose(b))}; });
    }
  }
}

TEST_F(KernelRegistryTest, EverySpmmVariantIsBitIdenticalToSerial) {
  // Node counts straddle the 64-row parallel grain; feature widths straddle
  // the 64-column panel the dense products use.
  struct SpmmShape {
    int n, edges, d;
  };
  constexpr SpmmShape kSpmmShapes[] = {
      {1, 0, 1}, {63, 200, 37}, {65, 300, 64}, {150, 900, 37}, {700, 4000, 65}};
  for (const Tier& tier : kTiers) {
    dispatch::SetDisabledCpuFeaturesForTest(tier.disabled);
    for (const SpmmShape& s : kSpmmShapes) {
      SparseMatrix sm = RandomSparse(s.n, s.edges, 41);
      Tensor x = RandomTensor(s.n, s.d, 42);
      ExpectBitIdentical(std::string("spmm ") + tier.label + " n=" +
                             std::to_string(s.n) + " d=" + std::to_string(s.d),
                         [&] { return Tensors{sm.Multiply(x)}; },
                         [&] { return Tensors{sm.MultiplyNaive(x)}; });
    }
  }
}

// End to end: a whole UMGAD Fit on the baseline tier scores every node
// exactly as on the AVX2 tier, at whatever UMGAD_THREADS the run uses.
TEST_F(KernelRegistryTest, UmgadFitIsBitIdenticalWithAvx2Masked) {
  if (!HostHasAvx2Tier()) {
    GTEST_SKIP() << "no AVX2 tier on this build/host";
  }
  const MultiplexGraph graph = MakeTiny(5);
  UmgadConfig config;
  config.epochs = 5;
  config.seed = 5;
  auto fit_scores = [&] {
    UmgadModel model(config);
    EXPECT_TRUE(model.Fit(graph).ok());
    return model.scores();
  };
  const std::vector<double> avx2 = fit_scores();
  dispatch::SetDisabledCpuFeaturesForTest(dispatch::kFeatAvx2);
  ASSERT_EQ(SelectionFor(KernelOp::kMatMul).variant, "blocked");
  const std::vector<double> baseline = fit_scores();
  ASSERT_EQ(avx2.size(), static_cast<size_t>(graph.num_nodes()));
  EXPECT_EQ(avx2, baseline);
}

}  // namespace
}  // namespace umgad
