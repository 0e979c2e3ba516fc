#ifndef UMGAD_TENSOR_TENSOR_H_
#define UMGAD_TENSOR_TENSOR_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "tensor/pool.h"

namespace umgad {

/// Value-semantic float storage backed by the global TensorPool: buffers are
/// recycled through size buckets instead of hitting the heap on every
/// construction (see pool.h). Fresh buffers are zero-initialised, matching
/// the std::vector<float> storage this replaces.
///
/// A buffer can also *borrow* read-only external storage (a loaded `.umgb`
/// image's attribute section, mapped or in an owned file buffer): a
/// borrowed buffer holds a keepalive on its owner instead of a pool
/// allocation, rejects every non-const access with UMGAD_CHECK (a mapping
/// is PROT_READ — writes must go through an owned copy), and materialises
/// into a normal pool buffer on copy.
class TensorBuffer {
 public:
  TensorBuffer() noexcept = default;
  explicit TensorBuffer(size_t n)
      : data_(TensorPool::Global().Acquire(n)), size_(n) {}
  /// Uninitialised variant for full overwrites (copies).
  struct Uninit {};
  TensorBuffer(size_t n, Uninit)
      : data_(TensorPool::Global().AcquireUninit(n)), size_(n) {}
  /// Borrowing constructor: view `n` floats at `borrowed`, kept alive by
  /// `owner` (never null). The buffer is read-only from here on.
  TensorBuffer(const float* borrowed, size_t n,
               std::shared_ptr<const void> owner)
      : data_(const_cast<float*>(borrowed)), size_(n),
        owner_(std::move(owner)) {
    UMGAD_CHECK(owner_ != nullptr);
  }
  TensorBuffer(const TensorBuffer& o) : TensorBuffer(o.size_, Uninit{}) {
    if (size_ > 0) std::memcpy(data_, o.data_, size_ * sizeof(float));
  }
  TensorBuffer(TensorBuffer&& o) noexcept
      : data_(o.data_), size_(o.size_), owner_(std::move(o.owner_)) {
    o.data_ = nullptr;
    o.size_ = 0;
  }
  TensorBuffer& operator=(const TensorBuffer& o) {
    if (this == &o) return *this;
    if (owner_ != nullptr || size_ != o.size_) {
      if (owner_ == nullptr) TensorPool::Global().Release(data_, size_);
      owner_.reset();
      size_ = o.size_;
      data_ = TensorPool::Global().AcquireUninit(size_);
    }
    if (size_ > 0) std::memcpy(data_, o.data_, size_ * sizeof(float));
    return *this;
  }
  TensorBuffer& operator=(TensorBuffer&& o) noexcept {
    if (this == &o) return *this;
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    std::swap(owner_, o.owner_);
    return *this;
  }
  ~TensorBuffer() {
    if (owner_ == nullptr) TensorPool::Global().Release(data_, size_);
  }

  /// True when the storage is a read-only view into external memory.
  bool borrowed() const noexcept { return owner_ != nullptr; }

  float* data() noexcept {
    UMGAD_CHECK(owner_ == nullptr);  // writes rejected on borrowed storage
    return data_;
  }
  const float* data() const noexcept { return data_; }
  float& operator[](size_t i) noexcept {
    UMGAD_CHECK(owner_ == nullptr);  // writes rejected on borrowed storage
    return data_[i];
  }
  float operator[](size_t i) const noexcept { return data_[i]; }
  size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

 private:
  float* data_ = nullptr;
  size_t size_ = 0;
  std::shared_ptr<const void> owner_;
};

/// Dense row-major float32 matrix. This is the single dense container used
/// across the library; vectors are represented as 1xN or Nx1 tensors.
///
/// The class is a plain value type (copyable, movable). All shape errors are
/// programmer errors and fail fast via UMGAD_CHECK. Storage is recycled
/// through the global TensorPool.
class Tensor {
 public:
  Tensor() : rows_(0), cols_(0) {}
  Tensor(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols)) {
    UMGAD_CHECK_GE(rows, 0);
    UMGAD_CHECK_GE(cols, 0);
  }
  Tensor(int rows, int cols, const std::vector<float>& data)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols),
              TensorBuffer::Uninit{}) {
    UMGAD_CHECK_EQ(data.size(),
                   static_cast<size_t>(rows) * static_cast<size_t>(cols));
    if (!data.empty()) {
      std::memcpy(data_.data(), data.data(), data.size() * sizeof(float));
    }
  }

  static Tensor Zeros(int rows, int cols) { return Tensor(rows, cols); }
  /// A rows x cols tensor with unspecified values, for a kernel that writes
  /// every element before anything reads one (skips the zero fill).
  static Tensor Uninitialized(int rows, int cols) {
    UMGAD_CHECK_GE(rows, 0);
    UMGAD_CHECK_GE(cols, 0);
    Tensor t;
    t.rows_ = rows;
    t.cols_ = cols;
    t.data_ = TensorBuffer(static_cast<size_t>(rows) * cols,
                           TensorBuffer::Uninit{});
    return t;
  }
  static Tensor Full(int rows, int cols, float value);
  static Tensor Identity(int n);

  /// Read-only view over external row-major storage (a loaded `.umgb`
  /// image's attribute section); `owner` keeps the backing memory alive. All
  /// mutating accessors UMGAD_CHECK-fail until EnsureOwned() materialises a
  /// pool-backed copy; const reads and copies behave like any other tensor.
  static Tensor FromBorrowed(const float* data, int rows, int cols,
                             std::shared_ptr<const void> owner) {
    Tensor t;
    t.rows_ = rows;
    t.cols_ = cols;
    t.data_ = TensorBuffer(data, static_cast<size_t>(rows) * cols,
                           std::move(owner));
    return t;
  }

  /// True when the storage is a borrowed read-only view.
  bool borrowed() const { return data_.borrowed(); }

  /// Copy-on-write escape hatch: replaces borrowed storage with an owned
  /// pool buffer holding the same floats. No-op for owned tensors.
  void EnsureOwned() {
    if (!data_.borrowed()) return;
    TensorBuffer copy(data_);
    data_ = std::move(copy);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }
  bool empty() const { return size() == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(int i) { return data_.data() + static_cast<size_t>(i) * cols_; }
  const float* row(int i) const {
    return data_.data() + static_cast<size_t>(i) * cols_;
  }

  float& at(int i, int j) {
    UMGAD_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i) * cols_ + j];
  }
  float at(int i, int j) const {
    UMGAD_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i) * cols_ + j];
  }

  /// Value of a 1x1 tensor (losses).
  float scalar() const {
    UMGAD_CHECK_EQ(size(), 1);
    return data_[0];
  }

  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  /// this += other (shape must match).
  void AddInPlace(const Tensor& other);
  /// this += alpha * other.
  void AxpyInPlace(float alpha, const Tensor& other);
  /// this *= alpha.
  void ScaleInPlace(float alpha);

  /// Squared Frobenius norm (double accumulation).
  double SquaredNorm() const;
  double Sum() const;
  double Max() const;
  double Min() const;
  bool AllFinite() const;

  /// L2 norm of row i.
  double RowNorm(int i) const;
  /// Dot product of row i with row j of another tensor (same cols).
  double RowDot(int i, const Tensor& other, int j) const;

  std::string ShapeString() const;

 private:
  int rows_;
  int cols_;
  TensorBuffer data_;
};

/// C = A * B. Shapes: (m,k) x (k,n) -> (m,n).
///
/// Large products go through a cache-blocked, register-tiled kernel whose
/// rows are dispatched across the global thread pool (see
/// docs/PERFORMANCE.md). Each output element is accumulated in ascending-k
/// order by exactly one thread, so the result is bit-identical to
/// MatMulNaive and invariant to UMGAD_THREADS.
Tensor MatMul(const Tensor& a, const Tensor& b);
/// C = A * B^T. Shapes: (m,k) x (n,k) -> (m,n). Implemented as
/// MatMul(A, Transpose(B)); accumulates in float like MatMul (the seed's
/// double-accumulation variant survives as MatMulTransBNaive).
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
/// C = A^T * B. Shapes: (k,m) x (k,n) -> (m,n). Runs MatMul's kernel with
/// A^T read in place (no transposed copy), so it is bit-identical to
/// MatMulTransANaive.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// Reference kernels: the seed's single-threaded triple loops, kept as the
/// cross-check oracle for tests and as the "before" case in
/// bench_micro_kernels. MatMulNaive / MatMulTransANaive accumulate in float
/// in ascending-k order (the same per-element order as the blocked kernel);
/// MatMulTransBNaive accumulates each dot product in double.
Tensor MatMulNaive(const Tensor& a, const Tensor& b);
/// Row i of MatMulNaive: out[0, b.cols()) = a_row * b (a_row has b.rows()
/// entries), overwriting out.
void MatMulNaiveRow(const float* a_row, const Tensor& b, float* out);
Tensor MatMulTransBNaive(const Tensor& a, const Tensor& b);
Tensor MatMulTransANaive(const Tensor& a, const Tensor& b);
Tensor Transpose(const Tensor& a);
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Hadamard(const Tensor& a, const Tensor& b);
Tensor Scale(const Tensor& a, float alpha);

/// Rows of `a` gathered by index; out.row(i) = a.row(idx[i]).
Tensor GatherRows(const Tensor& a, const std::vector<int>& idx);

/// Per-row L2 normalisation with epsilon guard; zero rows stay zero.
Tensor RowL2Normalize(const Tensor& a, float eps = 1e-12f);

/// Cosine similarity between corresponding rows of a and b, as Nx1 tensor.
Tensor RowCosine(const Tensor& a, const Tensor& b, float eps = 1e-12f);

/// Per-row Euclidean distance ||a_i - b_i||_2, as Nx1 tensor.
Tensor RowL2Distance(const Tensor& a, const Tensor& b);
/// One row of RowL2Distance: ||a - b||_2 of two length-d rows, accumulated
/// in double and rounded to float.
float RowL2DistanceOf(const float* a, const float* b, int d);

/// Dot products of d-float rows, run up to kChains at a time as independent
/// addition chains. Each dot is the sum, in ascending index and in double,
/// of the exact float x float products — Tensor::RowDot's sum — so every
/// result is bit-identical to a RowDot of the same two rows; only the
/// chains' latencies overlap. Push queues a dot and its result slot; a
/// full group runs at once, Flush runs a partial one. Results are written
/// only when their group runs, so read them after Flush.
class DotChains {
 public:
  static constexpr int kChains = 4;

  explicit DotChains(int d) : d_(d) {}

  void Push(const float* a, const float* b, double* out) {
    a_[count_] = a;
    b_[count_] = b;
    out_[count_] = out;
    if (++count_ == kChains) Flush();
  }
  void Flush();

 private:
  int d_;
  int count_ = 0;
  const float* a_[kChains];
  const float* b_[kChains];
  double* out_[kChains];
};

/// Max |a - b| over all entries (test helper).
double MaxAbsDiff(const Tensor& a, const Tensor& b);

}  // namespace umgad

#endif  // UMGAD_TENSOR_TENSOR_H_
