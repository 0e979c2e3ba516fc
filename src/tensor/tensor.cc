#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "tensor/dispatch/matmul_impl.h"

namespace umgad {

namespace {

/// Grain sizes for the parallel hot loops (shared with src/tensor/ops.cc
/// via common/thread_pool.h).
constexpr int64_t kElemGrain = kParallelElemGrain;
constexpr int64_t kRowGrain = kParallelRowGrain;

}  // namespace

Tensor Tensor::Full(int rows, int cols, float value) {
  Tensor t(rows, cols);
  t.Fill(value);
  return t;
}

Tensor Tensor::Identity(int n) {
  Tensor t(n, n);
  for (int i = 0; i < n; ++i) t.at(i, i) = 1.0f;
  return t;
}

void Tensor::Fill(float value) {
  std::fill(data_.data(), data_.data() + data_.size(), value);
}

void Tensor::AddInPlace(const Tensor& other) {
  UMGAD_CHECK(SameShape(other));
  const float* src = other.data();
  float* dst = data_.data();
  ParallelFor(size(), kElemGrain, [src, dst](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) dst[i] += src[i];
  });
}

void Tensor::AxpyInPlace(float alpha, const Tensor& other) {
  UMGAD_CHECK(SameShape(other));
  const float* src = other.data();
  float* dst = data_.data();
  ParallelFor(size(), kElemGrain, [src, dst, alpha](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) dst[i] += alpha * src[i];
  });
}

void Tensor::ScaleInPlace(float alpha) {
  float* dst = data_.data();
  ParallelFor(size(), kElemGrain, [dst, alpha](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) dst[i] *= alpha;
  });
}

double Tensor::SquaredNorm() const {
  double acc = 0.0;
  const float* d = data_.data();
  for (size_t i = 0; i < data_.size(); ++i) acc += static_cast<double>(d[i]) * d[i];
  return acc;
}

double Tensor::Sum() const {
  double acc = 0.0;
  const float* d = data_.data();
  for (size_t i = 0; i < data_.size(); ++i) acc += d[i];
  return acc;
}

double Tensor::Max() const {
  UMGAD_CHECK(!data_.empty());
  return *std::max_element(data_.data(), data_.data() + data_.size());
}

double Tensor::Min() const {
  UMGAD_CHECK(!data_.empty());
  return *std::min_element(data_.data(), data_.data() + data_.size());
}

bool Tensor::AllFinite() const {
  const float* d = data_.data();
  for (size_t i = 0; i < data_.size(); ++i) {
    if (!std::isfinite(d[i])) return false;
  }
  return true;
}

double Tensor::RowNorm(int i) const {
  const float* r = row(i);
  double acc = 0.0;
  for (int j = 0; j < cols_; ++j) acc += static_cast<double>(r[j]) * r[j];
  return std::sqrt(acc);
}

double Tensor::RowDot(int i, const Tensor& other, int j) const {
  UMGAD_CHECK_EQ(cols_, other.cols());
  const float* a = row(i);
  const float* b = other.row(j);
  double acc = 0.0;
  for (int c = 0; c < cols_; ++c) acc += static_cast<double>(a[c]) * b[c];
  return acc;
}

std::string Tensor::ShapeString() const {
  return StrFormat("(%d, %d)", rows_, cols_);
}

Tensor MatMulNaive(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.cols(), b.rows());
  const int m = a.rows();
  Tensor c(m, b.cols());
  for (int i = 0; i < m; ++i) MatMulNaiveRow(a.row(i), b, c.row(i));
  return c;
}

void MatMulNaiveRow(const float* a_row, const Tensor& b, float* out) {
  const int n = b.cols();
  // i-k-j loop order: streams over B's rows, cache-friendly for row-major.
  std::fill(out, out + n, 0.0f);
  for (int p = 0; p < b.rows(); ++p) {
    const float av = a_row[p];
    if (av == 0.0f) continue;
    const float* brow = b.row(p);
    for (int j = 0; j < n; ++j) out[j] += av * brow[j];
  }
}

Tensor MatMulTransBNaive(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.cols(), b.cols());
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.rows();
  Tensor c(m, n);
  for (int i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (int j = 0; j < n; ++j) {
      const float* brow = b.row(j);
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += static_cast<double>(arow[p]) * brow[p];
      crow[j] = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor MatMulTransANaive(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.rows(), b.rows());
  const int m = a.cols();
  const int k = a.rows();
  const int n = b.cols();
  Tensor c(m, n);
  for (int p = 0; p < k; ++p) {
    const float* arow = a.row(p);
    const float* brow = b.row(p);
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.row(i);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Dense products run the blocked register-tiled core
// (dispatch/blocked_matmul.cc; design notes in docs/PERFORMANCE.md) with the
// micro-kernel tier cpuid picks (docs/ARCHITECTURE.md §13). Both tiers
// accumulate each C element in ascending-k order by exactly one thread, so
// the product is bit-identical to MatMulNaive on any host and invariant to
// UMGAD_THREADS.
// ---------------------------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.cols(), b.rows());
  return dispatch::BlockedMatMul(a, b, dispatch::ActiveMicroKernels());
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.cols(), b.cols());
  return MatMul(a, Transpose(b));
}

// A^T B stays a direct transpose + plain product; it only runs on the
// training tape (gradient accumulation).
Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.rows(), b.rows());
  return MatMul(Transpose(a), b);
}

Tensor Transpose(const Tensor& a) {
  Tensor t(a.cols(), a.rows());
  const int rows = a.rows();
  const int cols = a.cols();
  if (a.size() < kElemGrain) {
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < cols; ++j) t.at(j, i) = a.at(i, j);
    }
    return t;
  }
  // Cache-blocked 64x64 tiles, parallel over output row blocks (= input
  // column blocks); tiles are disjoint so the partition is race-free.
  constexpr int kTile = 64;
  const int col_blocks = (cols + kTile - 1) / kTile;
  ParallelFor(col_blocks, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t bj = b0; bj < b1; ++bj) {
      const int j0 = static_cast<int>(bj) * kTile;
      const int j1 = std::min(cols, j0 + kTile);
      for (int i0 = 0; i0 < rows; i0 += kTile) {
        const int i1 = std::min(rows, i0 + kTile);
        for (int i = i0; i < i1; ++i) {
          const float* arow = a.row(i);
          for (int j = j0; j < j1; ++j) {
            t.row(j)[i] = arow[j];
          }
        }
      }
    }
  });
  return t;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  c.AddInPlace(b);
  return c;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  c.AxpyInPlace(-1.0f, b);
  return c;
}

Tensor Hadamard(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK(a.SameShape(b));
  Tensor c = a;
  float* cd = c.data();
  const float* bd = b.data();
  for (int64_t i = 0; i < c.size(); ++i) cd[i] *= bd[i];
  return c;
}

Tensor Scale(const Tensor& a, float alpha) {
  Tensor c = a;
  c.ScaleInPlace(alpha);
  return c;
}

Tensor GatherRows(const Tensor& a, const std::vector<int>& idx) {
  Tensor out(static_cast<int>(idx.size()), a.cols());
  for (size_t i = 0; i < idx.size(); ++i) {
    UMGAD_CHECK(idx[i] >= 0 && idx[i] < a.rows());
    std::copy(a.row(idx[i]), a.row(idx[i]) + a.cols(),
              out.row(static_cast<int>(i)));
  }
  return out;
}

Tensor RowL2Normalize(const Tensor& a, float eps) {
  Tensor out = a;
  ParallelFor(a.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < r1; ++i) {
      double norm = a.RowNorm(i);
      if (norm < eps) continue;
      float inv = static_cast<float>(1.0 / norm);
      float* r = out.row(i);
      for (int j = 0; j < a.cols(); ++j) r[j] *= inv;
    }
  });
  return out;
}

Tensor RowCosine(const Tensor& a, const Tensor& b, float eps) {
  UMGAD_CHECK(a.SameShape(b));
  Tensor out(a.rows(), 1);
  ParallelFor(a.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < r1; ++i) {
      double denom = a.RowNorm(i) * b.RowNorm(i);
      out.at(i, 0) = denom < eps
                         ? 0.0f
                         : static_cast<float>(a.RowDot(i, b, i) / denom);
    }
  });
  return out;
}

Tensor RowL2Distance(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK(a.SameShape(b));
  Tensor out(a.rows(), 1);
  ParallelFor(a.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < r1; ++i) {
      out.at(i, 0) = RowL2DistanceOf(a.row(i), b.row(i), a.cols());
    }
  });
  return out;
}

float RowL2DistanceOf(const float* a, const float* b, int d) {
  double acc = 0.0;
  for (int j = 0; j < d; ++j) {
    const double diff = static_cast<double>(a[j]) - b[j];
    acc += diff * diff;
  }
  return static_cast<float>(std::sqrt(acc));
}

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK(a.SameShape(b));
  double m = 0.0;
  const float* da = a.data();
  const float* db = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(da[i]) - db[i]));
  }
  return m;
}

}  // namespace umgad
