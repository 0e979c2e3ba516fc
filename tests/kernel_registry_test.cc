// Kernel-dispatch registry contract (src/tensor/dispatch/registry.h):
// priority selection over CPU-feature-gated variants, per-op and global
// overrides (SetOverride is the same code path the UMGAD_KERNEL env var
// runs through at startup — the CI cli-smoke leg exercises the env var
// itself across a process boundary), graceful fallback when an override
// needs features the host lacks, and the central invariant that every
// variant of one op is bit-identical to the naive reference for any
// UMGAD_THREADS x arena combination. The feature mask is faked through
// SetDisabledCpuFeaturesForTest, so the fallback paths run even on
// machines that do have AVX2.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "oracle_harness.h"
#include "tensor/dispatch/cpu_features.h"
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
using ::umgad::testing::OracleSweep;
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

/// The registry is a process-wide singleton: every test restores the
/// no-override, no-masked-features state on exit so suites compose.
class KernelRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    KernelRegistry::Global()->ClearOverrides();
    dispatch::SetDisabledCpuFeaturesForTest(0);
  }
};

KernelSelection SelectionFor(KernelOp op) {
  for (KernelSelection& s : KernelRegistry::Global()->Selections()) {
    if (s.op == op) return s;
  }
  ADD_FAILURE() << "no selection for op " << dispatch::KernelOpName(op);
  return {};
}

bool HasVariant(const KernelSelection& sel, const std::string& name) {
  for (const auto& v : sel.variants) {
    if (v.name == name) return true;
  }
  return false;
}

// ------------------------- variant inventory ------------------------------

TEST_F(KernelRegistryTest, EveryOpHasANaiveFloorAndADefaultWinner) {
  const auto selections = KernelRegistry::Global()->Selections();
  ASSERT_EQ(static_cast<int>(selections.size()), dispatch::kNumKernelOps);
  for (const KernelSelection& sel : selections) {
    const std::string op = dispatch::KernelOpName(sel.op);
    EXPECT_TRUE(HasVariant(sel, "naive")) << op;
    EXPECT_FALSE(sel.variant.empty()) << op;
    EXPECT_FALSE(sel.overridden) << op;
    EXPECT_FALSE(sel.fell_back) << op;
    // Variants are reported priority-descending, and the active one is the
    // best whose feature requirements the effective mask satisfies.
    const unsigned have = dispatch::EffectiveCpuFeatures();
    for (size_t i = 1; i < sel.variants.size(); ++i) {
      EXPECT_GE(sel.variants[i - 1].priority, sel.variants[i].priority) << op;
    }
    for (const auto& v : sel.variants) {
      if ((v.required_features & have) == v.required_features) {
        EXPECT_EQ(sel.variant, v.name)
            << op << ": best eligible variant is not the active one";
        break;
      }
    }
  }
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
  KernelRegistry* reg = KernelRegistry::Global();
  for (int i = 0; i < dispatch::kNumKernelOps; ++i) {
    EXPECT_NE(reg->Resolve(static_cast<KernelOp>(i)), nullptr);
  }
}

// ------------------------- overrides --------------------------------------

TEST_F(KernelRegistryTest, BareNameOverridePinsEveryOpThatHasIt) {
  KernelRegistry* reg = KernelRegistry::Global();
  ASSERT_TRUE(reg->SetOverride("naive").ok());
  for (const KernelSelection& sel : reg->Selections()) {
    EXPECT_TRUE(sel.overridden) << dispatch::KernelOpName(sel.op);
    EXPECT_EQ(sel.variant, "naive") << dispatch::KernelOpName(sel.op);
    EXPECT_FALSE(sel.fell_back) << dispatch::KernelOpName(sel.op);
  }
  reg->ClearOverrides();
  for (const KernelSelection& sel : reg->Selections()) {
    EXPECT_FALSE(sel.overridden) << dispatch::KernelOpName(sel.op);
  }
}

TEST_F(KernelRegistryTest, PerOpOverrideListPinsOnlyNamedOps) {
  KernelRegistry* reg = KernelRegistry::Global();
  ASSERT_TRUE(reg->SetOverride("matmul=naive,spmm=naive").ok());
  for (const KernelSelection& sel : reg->Selections()) {
    const bool pinned =
        sel.op == KernelOp::kMatMul || sel.op == KernelOp::kSpmm;
    EXPECT_EQ(sel.overridden, pinned) << dispatch::KernelOpName(sel.op);
    if (pinned) {
      EXPECT_EQ(sel.variant, "naive");
    }
  }
}

TEST_F(KernelRegistryTest, InvalidOverrideRejectsWithoutStateChange) {
  KernelRegistry* reg = KernelRegistry::Global();
  // Unknown variant name (globally and per-op), unknown op name, and a
  // list whose *last* entry is bad — the valid prefix must not stick.
  for (const char* spec :
       {"no_such_variant", "matmul=no_such_variant", "no_such_op=naive",
        "matmul=naive,spmm=no_such_variant", "matmul"}) {
    const Status s = reg->SetOverride(spec);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << spec;
    for (const KernelSelection& sel : reg->Selections()) {
      EXPECT_FALSE(sel.overridden)
          << spec << " leaked into " << dispatch::KernelOpName(sel.op);
    }
  }
}

// ------------------------- feature gating ---------------------------------

TEST_F(KernelRegistryTest, DisablingAFeatureDemotesTheSelection) {
  const KernelSelection before = SelectionFor(KernelOp::kMatMul);
  if (!HasVariant(before, "blocked_avx2") ||
      !(dispatch::EffectiveCpuFeatures() & dispatch::kFeatAvx2)) {
    GTEST_SKIP() << "no feature-gated matmul tier on this build/host";
  }
  EXPECT_EQ(before.variant, "blocked_avx2");

  dispatch::SetDisabledCpuFeaturesForTest(dispatch::kFeatAvx2);
  const KernelSelection masked = SelectionFor(KernelOp::kMatMul);
  EXPECT_EQ(masked.variant, "blocked");
  EXPECT_FALSE(masked.fell_back);  // priority selection, not a fallback

  dispatch::SetDisabledCpuFeaturesForTest(0);
  EXPECT_EQ(SelectionFor(KernelOp::kMatMul).variant, "blocked_avx2");
}

TEST_F(KernelRegistryTest, UnusableOverrideFallsBackGracefully) {
  KernelRegistry* reg = KernelRegistry::Global();
  const KernelSelection sel = SelectionFor(KernelOp::kMatMul);
  if (!HasVariant(sel, "blocked_avx2")) {
    GTEST_SKIP() << "no feature-gated matmul tier on this build";
  }
  // Pinning a variant the (masked) CPU cannot run is accepted — think of a
  // config file shared across heterogeneous hosts — and resolution warns
  // and falls back to the best eligible variant instead of crashing.
  dispatch::SetDisabledCpuFeaturesForTest(dispatch::kFeatAvx2);
  ASSERT_TRUE(reg->SetOverride("matmul=blocked_avx2").ok());

  Tensor a = RandomTensor(19, 23, 11);
  Tensor b = RandomTensor(23, 17, 12);
  const Tensor got = MatMul(a, b);  // must not execute AVX2 code
  EXPECT_EQ(MaxAbsDiff(got, MatMulNaive(a, b)), 0.0);

  // A fell-back pin reports fell_back, not overridden: the active variant
  // is NOT the requested one (inspect --kernels shows "(fallback)").
  const KernelSelection after = SelectionFor(KernelOp::kMatMul);
  EXPECT_FALSE(after.overridden);
  EXPECT_TRUE(after.fell_back);
  EXPECT_EQ(after.variant, "blocked");

  // Restoring the feature makes the pinned variant take effect for real.
  dispatch::SetDisabledCpuFeaturesForTest(0);
  const KernelSelection restored = SelectionFor(KernelOp::kMatMul);
  EXPECT_EQ(restored.variant, "blocked_avx2");
  EXPECT_FALSE(restored.fell_back);
}

// ------------------------- bit-identity -----------------------------------

// The registry's core promise: switching variants never changes a single
// bit. Pin each eligible variant in turn and sweep the differential
// harness against the naive reference.

TEST_F(KernelRegistryTest, EveryMatMulVariantIsBitIdenticalToNaive) {
  // Shapes straddle the 8-row / 64-col micro-kernel tiles and exceed the
  // small-product shortcut (37*29*71 multiplies > 2^15).
  Tensor a = RandomTensor(37, 29, 21);
  Tensor b = RandomTensor(29, 71, 22);
  KernelRegistry* reg = KernelRegistry::Global();
  const unsigned have = dispatch::EffectiveCpuFeatures();
  for (const auto& v : SelectionFor(KernelOp::kMatMul).variants) {
    if ((v.required_features & have) != v.required_features) continue;
    ASSERT_TRUE(reg->SetOverride("matmul=" + v.name).ok());
    ExpectBitIdentical("matmul variant " + v.name,
                       [&] { return Tensors{MatMul(a, b)}; },
                       [&] { return Tensors{MatMulNaive(a, b)}; });
  }
}

TEST_F(KernelRegistryTest, EveryMatMulTransBVariantIsBitIdenticalToNaive) {
  Tensor a = RandomTensor(33, 29, 31);
  Tensor b = RandomTensor(70, 29, 32);  // row-major weights, b.cols == a.cols
  KernelRegistry* reg = KernelRegistry::Global();
  const unsigned have = dispatch::EffectiveCpuFeatures();
  for (const auto& v : SelectionFor(KernelOp::kMatMulTransB).variants) {
    if ((v.required_features & have) != v.required_features) continue;
    ASSERT_TRUE(reg->SetOverride("matmul_transb=" + v.name).ok());
    ExpectBitIdentical(
        "matmul_transb variant " + v.name,
        [&] { return Tensors{MatMulTransB(a, b)}; },
        [&] { return Tensors{MatMulNaive(a, Transpose(b))}; });
  }
}

TEST_F(KernelRegistryTest, EverySpmmVariantIsBitIdenticalToSerial) {
  SparseMatrix s = RandomSparse(150, 900, 41);
  Tensor x = RandomTensor(150, 37, 42);
  KernelRegistry* reg = KernelRegistry::Global();

  ASSERT_TRUE(reg->SetOverride("spmm=naive").ok());
  const Tensor reference = s.Multiply(x);

  const unsigned have = dispatch::EffectiveCpuFeatures();
  for (const auto& v : SelectionFor(KernelOp::kSpmm).variants) {
    if ((v.required_features & have) != v.required_features) continue;
    ASSERT_TRUE(reg->SetOverride("spmm=" + v.name).ok());
    ExpectBitIdentical("spmm variant " + v.name,
                       [&] { return Tensors{s.Multiply(x)}; },
                       [&] { return Tensors{reference}; });
  }
}

}  // namespace
}  // namespace umgad
