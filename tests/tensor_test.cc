#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "oracle_harness.h"
#include "tensor/init.h"
#include "tensor/tensor.h"

namespace umgad {
namespace {

Tensor RandomTensor(int r, int c, uint64_t seed) {
  Rng rng(seed);
  return RandomNormal(r, c, 0.0, 1.0, &rng);
}

TEST(TensorTest, ConstructionAndShape) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.size(), 12);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.at(2, 3), 0.0f);
  EXPECT_EQ(t.ShapeString(), "(3, 4)");
}

TEST(TensorTest, FullAndIdentity) {
  Tensor f = Tensor::Full(2, 2, 3.5f);
  EXPECT_EQ(f.at(1, 1), 3.5f);
  Tensor id = Tensor::Identity(3);
  EXPECT_EQ(id.at(0, 0), 1.0f);
  EXPECT_EQ(id.at(0, 1), 0.0f);
  EXPECT_DOUBLE_EQ(id.Sum(), 3.0);
}

TEST(TensorTest, InPlaceArithmetic) {
  Tensor a = Tensor::Full(2, 2, 1.0f);
  Tensor b = Tensor::Full(2, 2, 2.0f);
  a.AddInPlace(b);
  EXPECT_EQ(a.at(0, 0), 3.0f);
  a.AxpyInPlace(-2.0f, b);
  EXPECT_EQ(a.at(1, 1), -1.0f);
  a.ScaleInPlace(-3.0f);
  EXPECT_EQ(a.at(0, 1), 3.0f);
}

TEST(TensorTest, Reductions) {
  Tensor t(2, 2, {1.0f, -2.0f, 3.0f, -4.0f});
  EXPECT_DOUBLE_EQ(t.Sum(), -2.0);
  EXPECT_DOUBLE_EQ(t.Max(), 3.0);
  EXPECT_DOUBLE_EQ(t.Min(), -4.0);
  EXPECT_DOUBLE_EQ(t.SquaredNorm(), 1 + 4 + 9 + 16);
  EXPECT_TRUE(t.AllFinite());
  t.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(t.AllFinite());
}

TEST(TensorTest, RowNormAndDot) {
  Tensor t(2, 2, {3.0f, 4.0f, 1.0f, 0.0f});
  EXPECT_DOUBLE_EQ(t.RowNorm(0), 5.0);
  EXPECT_DOUBLE_EQ(t.RowDot(0, t, 1), 3.0);
}

TEST(TensorTest, ScalarAccessor) {
  Tensor t(1, 1, {7.0f});
  EXPECT_EQ(t.scalar(), 7.0f);
}

TEST(TensorTest, MatMulHandValues) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorTest, MatMulIdentityIsNoop) {
  Tensor a = RandomTensor(4, 4, 1);
  EXPECT_LT(MaxAbsDiff(MatMul(a, Tensor::Identity(4)), a), 1e-6);
  EXPECT_LT(MaxAbsDiff(MatMul(Tensor::Identity(4), a), a), 1e-6);
}

struct MatShapes {
  int m;
  int k;
  int n;
};

class MatMulProperty : public ::testing::TestWithParam<MatShapes> {};

TEST_P(MatMulProperty, TransposedVariantsAgree) {
  const auto [m, k, n] = GetParam();
  Tensor a = RandomTensor(m, k, 11);
  Tensor b = RandomTensor(k, n, 13);
  Tensor c = MatMul(a, b);
  // A * B == (A * B) via MatMulTransB(A, B^T) and MatMulTransA(A^T, B).
  EXPECT_LT(MaxAbsDiff(c, MatMulTransB(a, Transpose(b))), 1e-4);
  EXPECT_LT(MaxAbsDiff(c, MatMulTransA(Transpose(a), b)), 1e-4);
  // (A * B)^T == B^T * A^T.
  EXPECT_LT(MaxAbsDiff(Transpose(c), MatMul(Transpose(b), Transpose(a))),
            1e-4);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulProperty,
                         ::testing::Values(MatShapes{1, 1, 1},
                                           MatShapes{2, 3, 4},
                                           MatShapes{5, 1, 7},
                                           MatShapes{8, 8, 8},
                                           MatShapes{3, 17, 2},
                                           MatShapes{16, 5, 11}));

// Cross-checks of the blocked/parallel kernels against the naive reference
// loops — through the shared differential-oracle harness, so every shape
// also sweeps UMGAD_THREADS x UMGAD_ARENA — on shapes that exercise every
// edge of the tiling: non-square, odd-size, single row/column, register-tile
// (8 x 8) boundaries and column tails, tall-skinny operands, and depths long
// enough to run many depth slices. MatMul and
// MatMulTransA preserve the reference kernels' ascending-k float
// accumulation, so they must agree bit-exactly; MatMulTransB replaces the
// reference's double accumulation with float, so it gets a small tolerance
// scaled by depth.
class MatMulVsNaive : public ::testing::TestWithParam<MatShapes> {};

TEST_P(MatMulVsNaive, BlockedMatchesNaive) {
  const MatShapes shape = GetParam();
  Tensor a = RandomTensor(shape.m, shape.k, 101);
  Tensor b = RandomTensor(shape.k, shape.n, 103);
  umgad::testing::ExpectBitIdentical(
      "matmul", [&] { return umgad::testing::Tensors{MatMul(a, b)}; },
      [&] { return umgad::testing::Tensors{MatMulNaive(a, b)}; });
}

TEST_P(MatMulVsNaive, TransAMatchesNaive) {
  const MatShapes shape = GetParam();
  Tensor a = RandomTensor(shape.k, shape.m, 107);  // (k,m): A^T is (m,k)
  Tensor b = RandomTensor(shape.k, shape.n, 109);
  umgad::testing::ExpectBitIdentical(
      "matmul_trans_a",
      [&] { return umgad::testing::Tensors{MatMulTransA(a, b)}; },
      [&] { return umgad::testing::Tensors{MatMulTransANaive(a, b)}; });
}

TEST_P(MatMulVsNaive, TransBMatchesNaiveWithinFloatAccumulation) {
  const MatShapes shape = GetParam();
  Tensor a = RandomTensor(shape.m, shape.k, 113);
  Tensor b = RandomTensor(shape.n, shape.k, 127);  // (n,k): B^T is (k,n)
  umgad::testing::OracleSweep sweep;
  sweep.tolerance = 1e-6 * shape.k * 8.0 + 1e-6;
  umgad::testing::ExpectBitIdentical(
      "matmul_trans_b",
      [&] { return umgad::testing::Tensors{MatMulTransB(a, b)}; },
      [&] { return umgad::testing::Tensors{MatMulTransBNaive(a, b)}; },
      sweep);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulVsNaive,
    ::testing::Values(MatShapes{1, 1, 1},        // degenerate
                      MatShapes{7, 13, 9},       // small odd (serial path)
                      MatShapes{64, 64, 64},     // whole 8x8 tiles
                      MatShapes{65, 63, 65},     // one row/column past them
                      MatShapes{129, 65, 200},   // odd rows, 8-row remainder
                      MatShapes{8, 300, 1},      // single output column
                      MatShapes{1, 300, 90},     // single output row
                      MatShapes{250, 3, 250},    // shallow k
                      MatShapes{100, 257, 31},   // column tail, two depth slices
                      MatShapes{1000, 48, 32},   // GMAE projection shape
                      MatShapes{4099, 32, 48},   // tall-skinny X*W
                      MatShapes{4099, 48, 32},   // tall-skinny H*W
                      MatShapes{3001, 25, 7},    // narrow n, column tail
                      MatShapes{2050, 64, 65},   // one column past the tiles
                      MatShapes{7, 5003, 48},    // long depth, < 1 row tile
                      MatShapes{32, 5003, 48},   // long depth (A^T g shape)
                      MatShapes{48, 5003, 32}));

TEST(TensorTest, MatMulWithAnEmptyDimension) {
  // Zero rows, zero depth or zero columns: the kernel must neither divide
  // by the width nor read a row, and a zero depth sums nothing (zeros).
  Tensor c = MatMul(RandomTensor(5, 3, 1), Tensor(3, 0));
  EXPECT_EQ(c.rows(), 5);
  EXPECT_EQ(c.cols(), 0);
  c = MatMul(Tensor(0, 3), RandomTensor(3, 4, 2));
  EXPECT_EQ(c.rows(), 0);
  EXPECT_EQ(c.cols(), 4);
  c = MatMul(Tensor(5, 0), Tensor(0, 4));
  EXPECT_EQ(MaxAbsDiff(c, Tensor(5, 4)), 0.0);
  c = MatMulTransA(Tensor(0, 6), Tensor(0, 2));
  EXPECT_EQ(MaxAbsDiff(c, Tensor(6, 2)), 0.0);
  c = MatMulTransA(RandomTensor(7, 3, 3), Tensor(7, 0));
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.cols(), 0);
}

TEST(TensorTest, MatMulThreadCountInvariance) {
  Tensor a = RandomTensor(143, 77, 131);
  Tensor b = RandomTensor(77, 180, 137);
  SetNumThreads(1);
  Tensor c1 = MatMul(a, b);
  SetNumThreads(4);
  Tensor c4 = MatMul(a, b);
  SetNumThreads(1);
  EXPECT_EQ(MaxAbsDiff(c1, c4), 0.0);
}

TEST(TensorTest, ElementwiseOpsThreadCountInvariance) {
  // Big enough to cross the parallel-dispatch threshold (32k entries).
  Tensor a = RandomTensor(300, 200, 139);
  Tensor b = RandomTensor(300, 200, 149);
  SetNumThreads(4);
  Tensor sum = Add(a, b);
  Tensor had = Hadamard(a, b);
  SetNumThreads(1);
  Tensor sum_serial = Add(a, b);
  Tensor had_serial = Hadamard(a, b);
  EXPECT_EQ(MaxAbsDiff(sum, sum_serial), 0.0);
  EXPECT_EQ(MaxAbsDiff(had, had_serial), 0.0);
}

TEST(TensorTest, TransposeInvolution) {
  Tensor a = RandomTensor(3, 5, 17);
  EXPECT_LT(MaxAbsDiff(Transpose(Transpose(a)), a), 1e-7);
}

TEST(TensorTest, AddSubHadamardScale) {
  Tensor a(1, 3, {1, 2, 3});
  Tensor b(1, 3, {4, 5, 6});
  EXPECT_EQ(Add(a, b).at(0, 2), 9.0f);
  EXPECT_EQ(Sub(b, a).at(0, 0), 3.0f);
  EXPECT_EQ(Hadamard(a, b).at(0, 1), 10.0f);
  EXPECT_EQ(Scale(a, 2.0f).at(0, 2), 6.0f);
}

TEST(TensorTest, GatherRowsPicksRows) {
  Tensor a(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.at(0, 0), 5.0f);
  EXPECT_EQ(g.at(1, 1), 2.0f);
  EXPECT_EQ(g.at(2, 1), 6.0f);
}

TEST(TensorTest, RowL2NormalizeMakesUnitRows) {
  Tensor a = RandomTensor(5, 4, 19);
  Tensor n = RowL2Normalize(a);
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(n.RowNorm(i), 1.0, 1e-5);
}

TEST(TensorTest, RowL2NormalizeKeepsZeroRows) {
  Tensor a(2, 3);
  a.at(1, 0) = 2.0f;
  Tensor n = RowL2Normalize(a);
  EXPECT_EQ(n.at(0, 0), 0.0f);
  EXPECT_NEAR(n.at(1, 0), 1.0f, 1e-6);
}

TEST(TensorTest, RowCosineBounds) {
  Tensor a = RandomTensor(10, 6, 23);
  Tensor b = RandomTensor(10, 6, 29);
  Tensor cos = RowCosine(a, b);
  for (int i = 0; i < 10; ++i) {
    EXPECT_GE(cos.at(i, 0), -1.0001f);
    EXPECT_LE(cos.at(i, 0), 1.0001f);
  }
  Tensor self = RowCosine(a, a);
  for (int i = 0; i < 10; ++i) EXPECT_NEAR(self.at(i, 0), 1.0f, 1e-5);
}

TEST(TensorTest, RowDistances) {
  Tensor a(1, 2, {0.0f, 0.0f});
  Tensor b(1, 2, {3.0f, 4.0f});
  EXPECT_NEAR(RowL2Distance(a, b).at(0, 0), 5.0f, 1e-6);
}

TEST(InitTest, XavierBoundsRespected) {
  Rng rng(31);
  Tensor w = XavierUniform(20, 30, &rng);
  const double bound = std::sqrt(6.0 / 50.0);
  EXPECT_LE(w.Max(), bound + 1e-6);
  EXPECT_GE(w.Min(), -bound - 1e-6);
}

TEST(InitTest, RandomNormalMoments) {
  Rng rng(41);
  Tensor w = RandomNormal(80, 80, 1.0, 0.5, &rng);
  EXPECT_NEAR(w.Sum() / w.size(), 1.0, 0.02);
}

TEST(InitTest, RandomUniformRange) {
  Rng rng(43);
  Tensor w = RandomUniform(30, 30, -2.0, 3.0, &rng);
  EXPECT_GE(w.Min(), -2.0);
  EXPECT_LT(w.Max(), 3.0);
}

}  // namespace
}  // namespace umgad
