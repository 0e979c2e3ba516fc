#include "tensor/sparse.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/thread_pool.h"
#include "graph/io/io_limits.h"

namespace umgad {

namespace {

/// Rows per parallel SpMM chunk. The pool oversubscribes chunks 4x over
/// lanes, so skewed degree distributions still balance.
constexpr int64_t kSpmmRowGrain = 64;

/// Rows per parallel CSR-validation chunk (pure read scan, memory bound).
constexpr int64_t kValidateRowGrain = 4096;

/// FromCsr's validation. The row scan is parallel (chunks of rows are
/// independent once the chunk's starting offset passes its own bounds
/// check), with the first failing row re-diagnosed serially so the Status
/// message is deterministic across thread counts. Each chunk is one flat
/// cursor walk — row_ptr read once per row, columns once each — so the
/// scan runs at memory bandwidth. It never reads outside [0, nnz) of
/// col_idx: the cursor only advances to offsets already proven <= nnz.
Status ValidateCsr(int rows, int cols, ConstSpan<int64_t> row_ptr,
                   ConstSpan<int> col_idx, size_t values_size) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative CSR dimensions");
  }
  // Shared overflow guard (io_limits.h): the loaders hand this validator
  // attacker-controlled dimensions, and downstream consumers form rows x
  // cols products (dense bounds, per-block partition bookkeeping), so the
  // product must fit int64 before any per-row scan runs.
  if (io_limits::CheckedElemCount(rows, cols,
                                  std::numeric_limits<int64_t>::max()) < 0) {
    return Status::InvalidArgument("CSR dimension product overflows");
  }
  if (row_ptr.size() != static_cast<size_t>(rows) + 1) {
    return Status::InvalidArgument("row_ptr size must be rows + 1");
  }
  if (col_idx.size() != values_size) {
    return Status::InvalidArgument("col_idx/values size mismatch");
  }
  const int64_t nnz = static_cast<int64_t>(col_idx.size());
  if (row_ptr.front() != 0 || row_ptr.back() != nnz) {
    return Status::InvalidArgument("row_ptr must span [0, nnz]");
  }
  std::atomic<int64_t> first_bad{std::numeric_limits<int64_t>::max()};
  ParallelFor(rows, kValidateRowGrain, [&](int64_t r0, int64_t r1) {
    auto record = [&](int64_t i) {
      int64_t seen = first_bad.load(std::memory_order_relaxed);
      while (i < seen && !first_bad.compare_exchange_weak(
                             seen, i, std::memory_order_relaxed)) {
      }
    };
    int64_t k = row_ptr[r0];
    if (k < 0 || k > nnz) {
      record(r0);
      return;
    }
    for (int64_t i = r0; i < r1; ++i) {
      const int64_t end = row_ptr[i + 1];
      if (end < k || end > nnz) {
        record(i);
        return;
      }
      int prev = -1;
      for (; k < end; ++k) {
        const int c = col_idx[k];
        // c <= prev subsumes c < 0 on a row's first column (prev == -1).
        if (c <= prev || c >= cols) {
          record(i);
          return;
        }
        prev = c;
      }
    }
  });
  const int64_t bad = first_bad.load(std::memory_order_relaxed);
  if (bad == std::numeric_limits<int64_t>::max()) return Status::OK();
  // Serial re-diagnosis of the lowest failing row: same error strings, in
  // the same precedence, as the historical serial loop. A slice escaping
  // [0, nnz] implies a row_ptr decrease somewhere (back() == nnz), which the
  // historical loop reported as non-monotonic.
  const int i = static_cast<int>(bad);
  const int64_t begin = row_ptr[i];
  const int64_t end = row_ptr[i + 1];
  if (begin > end || begin < 0 || end > nnz) {
    return Status::InvalidArgument("row_ptr is not monotonic");
  }
  for (int64_t k = begin; k < end; ++k) {
    if (col_idx[k] < 0 || col_idx[k] >= cols) {
      return Status::OutOfRange("CSR column index out of range");
    }
    if (k > begin && col_idx[k] <= col_idx[k - 1]) {
      return Status::InvalidArgument(
          "CSR columns must be strictly ascending within each row");
    }
  }
  return Status::InvalidArgument("row_ptr is not monotonic");
}

}  // namespace

SparseMatrix SparseMatrix::FromCoo(int rows, int cols,
                                   const std::vector<int>& coo_rows,
                                   const std::vector<int>& coo_cols,
                                   const std::vector<float>& values) {
  UMGAD_CHECK_EQ(coo_rows.size(), coo_cols.size());
  UMGAD_CHECK_EQ(coo_rows.size(), values.size());
  const size_t nnz_in = coo_rows.size();

  std::vector<size_t> order(nnz_in);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (coo_rows[a] != coo_rows[b]) return coo_rows[a] < coo_rows[b];
    return coo_cols[a] < coo_cols[b];
  });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(nnz_in);
  m.values_.reserve(nnz_in);

  int prev_r = -1;
  int prev_c = -1;
  for (size_t k = 0; k < nnz_in; ++k) {
    const int r = coo_rows[order[k]];
    const int c = coo_cols[order[k]];
    const float v = values[order[k]];
    UMGAD_CHECK(r >= 0 && r < rows && c >= 0 && c < cols);
    if (r == prev_r && c == prev_c) {
      m.values_.back() += v;  // merge duplicates
      continue;
    }
    m.col_idx_.push_back(c);
    m.values_.push_back(v);
    m.row_ptr_[r + 1] += 1;
    prev_r = r;
    prev_c = c;
  }
  for (int i = 0; i < rows; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];
  return m;
}

SparseMatrix SparseMatrix::FromEdges(int n, const std::vector<Edge>& edges,
                                     bool symmetrize) {
  std::vector<int> r;
  std::vector<int> c;
  r.reserve(edges.size() * (symmetrize ? 2 : 1));
  c.reserve(r.capacity());
  for (const Edge& e : edges) {
    r.push_back(e.src);
    c.push_back(e.dst);
    if (symmetrize && e.src != e.dst) {
      r.push_back(e.dst);
      c.push_back(e.src);
    }
  }
  std::vector<float> v(r.size(), 1.0f);
  SparseMatrix m = FromCoo(n, n, r, c, v);
  // Clamp merged duplicates back to 1 so the result stays a 0/1 adjacency.
  for (auto& val : m.values_) val = 1.0f;
  return m;
}

Result<SparseMatrix> SparseMatrix::FromCsr(int rows, int cols,
                                           std::vector<int64_t> row_ptr,
                                           std::vector<int> col_idx,
                                           std::vector<float> values) {
  UMGAD_RETURN_IF_ERROR(
      ValidateCsr(rows, cols, row_ptr, col_idx, values.size()));
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

SparseMatrix SparseMatrix::Identity(int n) {
  SparseMatrix m;
  m.rows_ = n;
  m.cols_ = n;
  m.row_ptr_.resize(n + 1);
  m.col_idx_.resize(n);
  m.values_.assign(n, 1.0f);
  for (int i = 0; i < n; ++i) {
    m.row_ptr_[i] = i;
    m.col_idx_[i] = i;
  }
  m.row_ptr_[n] = n;
  return m;
}

bool SparseMatrix::Has(int i, int j) const {
  UMGAD_CHECK(i >= 0 && i < rows_);
  auto begin = col_idx_.begin() + row_ptr_[i];
  auto end = col_idx_.begin() + row_ptr_[i + 1];
  return std::binary_search(begin, end, j);
}

// Row-partitioned: each output row is produced by exactly one task with the
// serial per-row nonzero order, so results are invariant to the thread count
// and to the schedule — flat row ranges, or block-affine when a partition
// schedule is attached (each lane then walks whole blocks whose
// neighbourhoods stay cache-resident).
Tensor SparseMatrix::Multiply(const Tensor& x) const {
  UMGAD_CHECK_EQ(cols_, x.rows());
  const int d = x.cols();
  Tensor y(rows_, d);
  const std::shared_ptr<const RowBlocks> blocks = row_blocks();
  ForEachRowBlocked(rows_, blocks.get(), kSpmmRowGrain, [&](int i) {
    float* yrow = y.row(i);
    for (int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const float v = values_[k];
      const float* xrow = x.row(col_idx_[k]);
      for (int j = 0; j < d; ++j) yrow[j] += v * xrow[j];
    }
  });
  return y;
}

// The seed's serial CSR row sweep, kept as the oracle Multiply is pinned
// against.
Tensor SparseMatrix::MultiplyNaive(const Tensor& x) const {
  UMGAD_CHECK_EQ(cols_, x.rows());
  const int d = x.cols();
  Tensor y(rows_, d);
  for (int i = 0; i < rows_; ++i) {
    float* yrow = y.row(i);
    for (int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const float v = values_[k];
      const float* xrow = x.row(col_idx_[k]);
      for (int j = 0; j < d; ++j) yrow[j] += v * xrow[j];
    }
  }
  return y;
}

// The seed's serial scatter loop: the CSR walk scatters into
// y.row(col_idx_[k]), so a partition over *input* rows would race on output
// rows. Kept as the oracle the parallel kernel is pinned against.
Tensor SparseMatrix::MultiplyTransposedNaive(const Tensor& x) const {
  UMGAD_CHECK_EQ(rows_, x.rows());
  const int d = x.cols();
  Tensor y(cols_, d);
  for (int i = 0; i < rows_; ++i) {
    const float* xrow = x.row(i);
    for (int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const float v = values_[k];
      float* yrow = y.row(col_idx_[k]);
      for (int j = 0; j < d; ++j) yrow[j] += v * xrow[j];
    }
  }
  return y;
}

void SparseMatrix::EnsureTransposedIndex() const {
  // Lock-free publication via the shared_ptr atomic free functions: builds
  // on *different* matrices (each epoch's K x R perturbed operators hit
  // their first backward concurrently) proceed fully in parallel, and
  // cached reads are a single acquire load. Two threads racing on the same
  // matrix may both build; compare-exchange keeps the first — the content
  // is deterministic, so the duplicate is merely discarded work.
  if (std::atomic_load_explicit(&transposed_, std::memory_order_acquire)) {
    return;
  }
  // Counting-sort transpose. Walking rows in ascending order keeps each
  // column bucket sorted by original row index, which is exactly the order
  // the serial scatter loop adds contributions to that output row — the
  // parallel kernel below therefore reproduces its floats bit-for-bit.
  auto t = std::make_shared<TransposedIndex>();
  t->col_ptr.assign(cols_ + 1, 0);
  const int64_t nz = nnz();
  for (int64_t k = 0; k < nz; ++k) t->col_ptr[col_idx_[k] + 1] += 1;
  for (int c = 0; c < cols_; ++c) t->col_ptr[c + 1] += t->col_ptr[c];
  t->row_idx.resize(nz);
  t->values.resize(nz);
  std::vector<int64_t> fill(t->col_ptr.begin(), t->col_ptr.end() - 1);
  for (int i = 0; i < rows_; ++i) {
    for (int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const int64_t dst = fill[col_idx_[k]]++;
      t->row_idx[dst] = i;
      t->values[dst] = values_[k];
    }
  }
  std::shared_ptr<const TransposedIndex> expected;
  std::atomic_compare_exchange_strong(&transposed_, &expected,
                                      std::shared_ptr<const TransposedIndex>(
                                          std::move(t)));
}

void SparseMatrix::EnsureIncomingIndex() const {
  // Same lock-free publication scheme as EnsureTransposedIndex(). The
  // counting-sort over ascending rows keeps each node's incoming bucket in
  // ascending source-row order — equivalently ascending CSR position, the
  // order a serial all-rows sweep scatters into that node.
  if (std::atomic_load_explicit(&incoming_, std::memory_order_acquire)) {
    return;
  }
  auto t = std::make_shared<IncomingIndex>();
  t->node_ptr.assign(cols_ + 1, 0);
  const int64_t nz = nnz();
  for (int64_t k = 0; k < nz; ++k) t->node_ptr[col_idx_[k] + 1] += 1;
  for (int c = 0; c < cols_; ++c) t->node_ptr[c + 1] += t->node_ptr[c];
  t->src.resize(nz);
  t->edge.resize(nz);
  std::vector<int64_t> fill(t->node_ptr.begin(), t->node_ptr.end() - 1);
  for (int i = 0; i < rows_; ++i) {
    for (int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const int64_t dst = fill[col_idx_[k]]++;
      t->src[dst] = i;
      t->edge[dst] = k;
    }
  }
  std::shared_ptr<const IncomingIndex> expected;
  std::atomic_compare_exchange_strong(
      &incoming_, &expected,
      std::shared_ptr<const IncomingIndex>(std::move(t)));
}

std::shared_ptr<const SparseMatrix::IncomingIndex>
SparseMatrix::incoming_index() const {
  EnsureIncomingIndex();
  return std::atomic_load_explicit(&incoming_, std::memory_order_acquire);
}

void SparseMatrix::AttachRowBlocks(
    std::shared_ptr<const RowBlocks> blocks) const {
  UMGAD_CHECK(blocks == nullptr ||
              static_cast<int64_t>(blocks->block_of.size()) == rows_);
  std::atomic_store_explicit(&blocks_, std::move(blocks),
                             std::memory_order_release);
}

Tensor SparseMatrix::MultiplyTransposed(const Tensor& x) const {
  UMGAD_CHECK_EQ(rows_, x.rows());
  EnsureTransposedIndex();
  const std::shared_ptr<const TransposedIndex> t =
      std::atomic_load_explicit(&transposed_, std::memory_order_acquire);
  const int d = x.cols();
  Tensor y(cols_, d);
  // Row-partitioned over *output* rows (= original columns): each output
  // row is produced by exactly one task in ascending original-row order,
  // so results are bit-identical to MultiplyTransposedNaive and invariant
  // to UMGAD_THREADS and the schedule (flat or block-affine; square
  // operators reuse the row schedule for their columns).
  const std::shared_ptr<const RowBlocks> blocks = row_blocks();
  ForEachRowBlocked(cols_, blocks.get(), kSpmmRowGrain, [&](int c) {
    float* yrow = y.row(c);
    for (int64_t k = t->col_ptr[c]; k < t->col_ptr[c + 1]; ++k) {
      const float v = t->values[k];
      const float* xrow = x.row(t->row_idx[k]);
      for (int j = 0; j < d; ++j) yrow[j] += v * xrow[j];
    }
  });
  return y;
}

std::vector<double> SparseMatrix::RowSums() const {
  std::vector<double> sums(rows_, 0.0);
  for (int i = 0; i < rows_; ++i) {
    for (int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      sums[i] += values_[k];
    }
  }
  return sums;
}

SparseMatrix SparseMatrix::NormalizedWithSelfLoops() const {
  UMGAD_CHECK_EQ(rows_, cols_);
  const int n = rows_;
  // 1 / sqrt of the degrees of (S + I).
  std::vector<double> inv_sqrt = RowSums();
  for (int i = 0; i < n; ++i) {
    inv_sqrt[i] = 1.0 / std::sqrt(inv_sqrt[i] + 1.0);
  }

  // Each row is already sorted, so the output is written in place: the
  // self loop goes before the first column above i, or is added onto an
  // existing (i, i) entry — the same float sum a COO duplicate merge makes.
  SparseMatrix m;
  m.rows_ = n;
  m.cols_ = n;
  m.row_ptr_.assign(n + 1, 0);
  m.col_idx_.resize(nnz() + n);
  m.values_.resize(nnz() + n);
  int* out_col = m.col_idx_.data();
  float* out_val = m.values_.data();
  int64_t w = 0;
  for (int i = 0; i < n; ++i) {
    const float self = static_cast<float>(inv_sqrt[i] * inv_sqrt[i]);
    bool placed = false;
    for (int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const int j = col_idx_[k];
      float v = static_cast<float>(values_[k] * inv_sqrt[i] * inv_sqrt[j]);
      if (!placed && j >= i) {
        placed = true;
        if (j == i) {
          v += self;
        } else {
          out_col[w] = i;
          out_val[w++] = self;
        }
      }
      out_col[w] = j;
      out_val[w++] = v;
    }
    if (!placed) {
      out_col[w] = i;
      out_val[w++] = self;
    }
    m.row_ptr_[i + 1] = w;
  }
  m.col_idx_.resize(w);
  m.values_.resize(w);
  return m;
}

SparseMatrix SparseMatrix::WithoutEntries(const std::vector<char>& drop) const {
  UMGAD_CHECK_EQ(static_cast<int64_t>(drop.size()), nnz());
  SparseMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  m.row_ptr_.assign(rows_ + 1, 0);
  const int64_t kept =
      nnz() - std::count_if(drop.begin(), drop.end(),
                            [](char flag) { return flag != 0; });
  m.col_idx_.resize(kept);
  m.values_.resize(kept);
  int64_t w = 0;
  for (int i = 0; i < rows_; ++i) {
    for (int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (drop[k]) continue;
      m.col_idx_[w] = col_idx_[k];
      m.values_[w++] = values_[k];
    }
    m.row_ptr_[i + 1] = w;
  }
  return m;
}

SparseMatrix SparseMatrix::RowNormalized() const {
  std::vector<double> deg = RowSums();
  SparseMatrix m = *this;
  for (int i = 0; i < rows_; ++i) {
    if (deg[i] <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / deg[i]);
    for (int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      m.values_[k] *= inv;
    }
  }
  return m;
}

std::vector<Edge> SparseMatrix::ToEdges() const {
  std::vector<Edge> out;
  out.reserve(nnz());
  for (int i = 0; i < rows_; ++i) {
    for (int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      out.push_back(Edge{i, col_idx_[k]});
    }
  }
  return out;
}

Tensor SparseMatrix::ToDense() const {
  Tensor d(rows_, cols_);
  for (int i = 0; i < rows_; ++i) {
    for (int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      d.at(i, col_idx_[k]) += values_[k];
    }
  }
  return d;
}

}  // namespace umgad
