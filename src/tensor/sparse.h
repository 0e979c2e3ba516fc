#ifndef UMGAD_TENSOR_SPARSE_H_
#define UMGAD_TENSOR_SPARSE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "tensor/tensor.h"

namespace umgad {

/// An undirected or directed edge (row, col) used by COO builders.
struct Edge {
  int src = 0;
  int dst = 0;
};

/// A cache-blocked row schedule derived from a graph partition (built by
/// src/graph/partition/, attached via SparseMatrix::AttachRowBlocks): every
/// row belongs to exactly one of `num_blocks` blocks, and `order` lists all
/// rows grouped by block, ascending within each block. Hot kernels iterate
/// blocks on the pool instead of flat row ranges (ForEachRowRun), so a
/// worker's working set stays block-local. This is purely an *iteration
/// schedule*: each row is still produced by exactly one task with its
/// per-row arithmetic in the unchanged serial order, which keeps blocked
/// and flat execution bit-identical (the PR 2/4 determinism rules).
struct RowBlocks {
  int num_blocks = 0;
  /// Size num_blocks + 1: block b owns order[block_ptr[b], block_ptr[b+1]).
  std::vector<int64_t> block_ptr;
  /// All rows, grouped by block, ascending within each block.
  std::vector<int> order;
  /// Size rows: the owning block of each row.
  std::vector<int> block_of;
};

/// The rows one task of ForEachRowRun walks, in its order: rows
/// [first, first + count) of a flat range, or order[first, first + count)
/// of a block-affine schedule.
struct RowRun {
  const int* order = nullptr;  // null for a flat range
  int64_t first = 0;
  int64_t count = 0;

  int operator[](int64_t k) const {
    return order != nullptr ? order[first + k] : static_cast<int>(first + k);
  }
};

/// Hands every task of the row schedule its whole run of rows: flat
/// grain-sized row ranges when `blocks` is null or does not cover n (the
/// classic oversubscribed schedule), block-affine otherwise (one task per
/// span of blocks walking their owned rows, so a pool lane processes whole
/// blocks). For kernels that carry work from one row to the next within a
/// task; fn(run) must only write the run's row-exclusive state.
template <typename Fn>
void ForEachRowRun(int64_t n, const RowBlocks* blocks, int64_t grain,
                   Fn&& fn) {
  if (blocks != nullptr && blocks->num_blocks > 0 &&
      static_cast<int64_t>(blocks->block_of.size()) == n) {
    const RowBlocks& b = *blocks;
    ParallelFor(b.num_blocks, 1, [&](int64_t p0, int64_t p1) {
      fn(RowRun{b.order.data(), b.block_ptr[p0],
                b.block_ptr[p1] - b.block_ptr[p0]});
    });
    return;
  }
  ParallelFor(n, grain, [&](int64_t r0, int64_t r1) {
    fn(RowRun{nullptr, r0, r1 - r0});
  });
}

/// Runs fn(row) once for every row in [0, n), on ForEachRowRun's schedule.
/// fn must only write row-exclusive state; per-row work is identical under
/// both schedules, so results are bit-identical for any UMGAD_THREADS /
/// block count.
template <typename Fn>
void ForEachRowBlocked(int64_t n, const RowBlocks* blocks, int64_t grain,
                       Fn&& fn) {
  ForEachRowRun(n, blocks, grain, [&](const RowRun& run) {
    for (int64_t k = 0; k < run.count; ++k) fn(run[k]);
  });
}

/// Compressed-sparse-row float matrix. Used for adjacency matrices and their
/// normalised variants; values default to 1.0 for unweighted graphs.
///
/// CSR is immutable after construction — graph perturbations (edge masking,
/// subgraph removal) build new instances, mirroring how the paper recreates
/// perturbed subgraphs per masking repeat.
class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) {}

  /// Build from COO triplets. Duplicate (r,c) entries are summed. Entries
  /// are sorted by (row, col).
  static SparseMatrix FromCoo(int rows, int cols,
                              const std::vector<int>& coo_rows,
                              const std::vector<int>& coo_cols,
                              const std::vector<float>& values);

  /// Unweighted adjacency from an edge list. If `symmetrize` is true every
  /// edge is inserted in both directions (self-duplicates collapse).
  static SparseMatrix FromEdges(int n, const std::vector<Edge>& edges,
                                bool symmetrize);

  /// Adopt raw CSR arrays without re-sorting (DynamicAdjacency's
  /// snapshots). Validates the invariants every other constructor
  /// guarantees — monotonic row_ptr covering all of col_idx/values, and
  /// strictly ascending in-range columns within each row — and returns an
  /// error Status for malformed input instead of constructing a matrix
  /// that would break those invariants downstream.
  static Result<SparseMatrix> FromCsr(int rows, int cols,
                                      std::vector<int64_t> row_ptr,
                                      std::vector<int> col_idx,
                                      std::vector<float> values);

  /// Adopt CSR arrays the matrix does not own — the `.umgb` parse's view
  /// straight into a loaded image's section. Runs the same validation as
  /// FromCsr; `payload` keeps the backing storage (the file mapping or the
  /// owned file buffer) alive for as long as this matrix — or any
  /// copy-on-write descendant that still shares the view — exists. The
  /// matrix is read-only like every other; mutating factories
  /// (RowNormalized) transparently materialise an owned copy first.
  static Result<SparseMatrix> FromBorrowedCsr(
      int rows, int cols, ConstSpan<int64_t> row_ptr, ConstSpan<int> col_idx,
      ConstSpan<float> values, std::shared_ptr<const void> payload);

  static SparseMatrix Identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }

  /// True when the CSR arrays alias external storage (FromBorrowedCsr) and
  /// are kept alive by the payload rather than owned vectors.
  bool borrowed() const { return payload_ != nullptr; }

  ConstSpan<int64_t> row_ptr() const { return row_ptr_; }
  ConstSpan<int> col_idx() const { return col_idx_; }
  ConstSpan<float> values() const { return values_; }

  int RowNnz(int i) const {
    return static_cast<int>(row_ptr_[i + 1] - row_ptr_[i]);
  }

  /// Iterate columns/values of row i: [begin, end) indices into
  /// col_idx()/values().
  std::pair<int64_t, int64_t> RowRange(int i) const {
    return {row_ptr_[i], row_ptr_[i + 1]};
  }

  /// True if entry (i, j) is present (binary search within the row).
  bool Has(int i, int j) const;

  /// Dense Y = S * X. Shapes: (m,n) x (n,d) -> (m,d).
  ///
  /// Row-parallel (block-affine when row blocks are attached): each output
  /// row is owned by one thread and accumulates its nonzeros in CSR order,
  /// so results are bit-identical to MultiplyNaive for any UMGAD_THREADS.
  /// This is the Spmm forward kernel.
  Tensor Multiply(const Tensor& x) const;

  /// The seed's serial row sweep, kept as the cross-check oracle for tests
  /// and benches.
  Tensor MultiplyNaive(const Tensor& x) const;

  /// Dense Y = S^T * X. Shapes: (m,n)^T x (m,d) -> (n,d).
  ///
  /// Row-parallel like Multiply(): the first call builds (and caches) a
  /// transposed CSR index so each *output* row is owned by one thread, with
  /// contributions accumulated in ascending original-row order — exactly
  /// the serial scatter order, so results are bit-identical to
  /// MultiplyTransposedNaive for any UMGAD_THREADS. This is the Spmm
  /// backward kernel (see ops.cc).
  Tensor MultiplyTransposed(const Tensor& x) const;

  /// The seed's serial scatter loop, kept as the cross-check oracle for
  /// tests and benches.
  Tensor MultiplyTransposedNaive(const Tensor& x) const;

  /// Build the cached transposed index now (otherwise built lazily on the
  /// first MultiplyTransposed call; concurrent first calls may duplicate
  /// the build, the first publication wins).
  void EnsureTransposedIndex() const;

  /// Per-node incoming-edge index: for each node j, the stored entries
  /// (i -> j) in ascending source-row order, with each entry's position in
  /// the CSR arrays (`col_idx()`/`values()` order). Because the CSR itself
  /// is sorted by (row, col), ascending source order per node is exactly
  /// ascending CSR position — the order in which a serial sweep over all
  /// rows touches that node.
  ///
  /// This is the write-ownership map for backward kernels whose serial form
  /// scatters into per-destination rows (the GAT edge-softmax backward in
  /// tensor/ops.cc): partitioning by destination node makes every write
  /// exclusive to one thread while the ascending-source order reproduces
  /// the serial accumulation bit-for-bit.
  struct IncomingIndex {
    std::vector<int64_t> node_ptr;  // size cols() + 1
    std::vector<int> src;           // size nnz: source row per incoming edge
    std::vector<int64_t> edge;      // size nnz: CSR position of the edge
  };

  /// Build the cached incoming-edge index now (same lazy/concurrent
  /// publication contract as EnsureTransposedIndex()).
  void EnsureIncomingIndex() const;

  /// The incoming-edge index, building it on first use.
  std::shared_ptr<const IncomingIndex> incoming_index() const;

  /// Attach a cache-blocked row schedule (normally the one VertexPartition
  /// built for the whole MultiplexGraph — see src/graph/partition/):
  /// Multiply / MultiplyTransposed and the GAT edge-softmax kernels in
  /// tensor/ops.cc then iterate rows block-affinely instead of as flat row
  /// ranges. `blocks->block_of` must cover rows() (square operators reuse
  /// the same schedule for output columns); null detaches. Logically const
  /// like the lazy caches — attaching never changes any kernel's floats,
  /// only its iteration schedule — and published with the same shared_ptr
  /// atomics, so prewarm-time attachment cannot race readers. Copies drop
  /// the attachment.
  void AttachRowBlocks(std::shared_ptr<const RowBlocks> blocks) const;

  /// The attached block schedule, or null when running flat.
  std::shared_ptr<const RowBlocks> row_blocks() const {
    return std::atomic_load_explicit(&blocks_, std::memory_order_acquire);
  }

  /// Row sums (weighted degrees) as a length-m vector.
  std::vector<double> RowSums() const;

  /// Symmetrically normalised adjacency with self loops:
  /// D^{-1/2} (S + I) D^{-1/2} where D is the degree of (S + I).
  /// The standard GCN propagation operator.
  SparseMatrix NormalizedWithSelfLoops() const;

  /// This matrix without the stored entries whose `drop` flag (one per
  /// stored entry, CSR order) is nonzero. The kept entries stay in their
  /// sorted order, so the result is written straight from the rows without
  /// a sort; graph perturbations (edge and subgraph masking) build on it.
  SparseMatrix WithoutEntries(const std::vector<char>& drop) const;

  /// Row-stochastic normalisation D^{-1} S (used by RWR and some baselines).
  SparseMatrix RowNormalized() const;

  /// All stored entries as COO edges (upper+lower; one per stored entry).
  std::vector<Edge> ToEdges() const;

  /// Dense copy (tests and small-graph scoring only).
  Tensor ToDense() const;

  // Copies drop the lazy caches; a copy of a borrowed matrix stays borrowed
  // (it shares the payload keepalive instead of materialising the arrays).
  SparseMatrix(const SparseMatrix& o)
      : rows_(o.rows_), cols_(o.cols_), row_ptr_store_(o.row_ptr_store_),
        col_idx_store_(o.col_idx_store_), values_store_(o.values_store_),
        payload_(o.payload_) {
    if (payload_ != nullptr) {
      row_ptr_ = o.row_ptr_;
      col_idx_ = o.col_idx_;
      values_ = o.values_;
    } else {
      SyncSpans();
    }
  }
  SparseMatrix& operator=(const SparseMatrix& o) {
    if (this != &o) {
      SparseMatrix copy(o);
      *this = std::move(copy);
    }
    return *this;
  }
  SparseMatrix(SparseMatrix&&) = default;
  SparseMatrix& operator=(SparseMatrix&&) = default;

 private:
  /// Re-points the span views at the owned vectors (after any store write).
  void SyncSpans() {
    row_ptr_ = row_ptr_store_;
    col_idx_ = col_idx_store_;
    values_ = values_store_;
  }

  /// Deep-copies borrowed arrays into the owned vectors and drops the
  /// payload. Called by mutating factories before they write; no-op for
  /// owned matrices.
  void MaterializeOwned();
  /// CSR of S^T: per original column, the (row, value) entries in ascending
  /// row order. Built lazily by EnsureTransposedIndex().
  struct TransposedIndex {
    std::vector<int64_t> col_ptr;  // size cols_ + 1
    std::vector<int> row_idx;      // size nnz
    std::vector<float> values;     // size nnz
  };

  int rows_;
  int cols_;
  // Owned storage (empty while borrowing) plus the span views every reader
  // goes through. For owned matrices the spans alias the vectors below; for
  // borrowed ones they alias external storage kept alive by payload_.
  std::vector<int64_t> row_ptr_store_;
  std::vector<int> col_idx_store_;
  std::vector<float> values_store_;
  std::shared_ptr<const void> payload_;
  ConstSpan<int64_t> row_ptr_;
  ConstSpan<int> col_idx_;
  ConstSpan<float> values_;
  // Mutable caches: logically const (derived from the CSR arrays, which are
  // immutable after construction). Concurrent lazy builds use the
  // shared_ptr atomic free functions (acquire load + CAS publication);
  // mutation (assignment) must not race with use, like the CSR arrays
  // themselves.
  mutable std::shared_ptr<const TransposedIndex> transposed_;
  mutable std::shared_ptr<const IncomingIndex> incoming_;
  mutable std::shared_ptr<const RowBlocks> blocks_;
};

}  // namespace umgad

#endif  // UMGAD_TENSOR_SPARSE_H_
