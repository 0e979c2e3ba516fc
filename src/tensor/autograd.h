#ifndef UMGAD_TENSOR_AUTOGRAD_H_
#define UMGAD_TENSOR_AUTOGRAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace umgad {
namespace ag {

class Node;
class Tape;

/// Handle to an autograd node. Nodes are owned by the process-wide ag::Tape
/// (see below), not by the handle: VarPtr is a plain pointer wrapper — no
/// refcount traffic on the hot op path — that default-constructs to null so
/// it drops into the member/struct slots the old shared_ptr alias filled.
class VarPtr {
 public:
  VarPtr() noexcept : p_(nullptr) {}
  VarPtr(std::nullptr_t) noexcept : p_(nullptr) {}  // NOLINT(runtime/explicit)
  VarPtr(Node* p) noexcept : p_(p) {}               // NOLINT(runtime/explicit)

  Node* operator->() const noexcept { return p_; }
  Node& operator*() const noexcept { return *p_; }
  Node* get() const noexcept { return p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }
  friend bool operator==(const VarPtr& a, const VarPtr& b) noexcept {
    return a.p_ == b.p_;
  }
  friend bool operator!=(const VarPtr& a, const VarPtr& b) noexcept {
    return a.p_ != b.p_;
  }

 private:
  Node* p_;
};

/// Borrowed view of a node's inputs (a pointer array in the tape's arena).
/// operator[] / iteration yield VarPtr by value, so existing call sites
/// (`in[0]->grad()`, range-for) read unchanged.
class InputList {
 public:
  InputList(Node* const* data, uint32_t n) noexcept : data_(data), n_(n) {}

  VarPtr operator[](size_t i) const noexcept { return VarPtr(data_[i]); }
  size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  class Iterator {
   public:
    explicit Iterator(Node* const* p) noexcept : p_(p) {}
    VarPtr operator*() const noexcept { return VarPtr(*p_); }
    Iterator& operator++() noexcept {
      ++p_;
      return *this;
    }
    bool operator!=(const Iterator& o) const noexcept { return p_ != o.p_; }

   private:
    Node* const* p_;
  };
  Iterator begin() const noexcept { return Iterator(data_); }
  Iterator end() const noexcept { return Iterator(data_ + n_); }

 private:
  Node* const* data_;
  uint32_t n_;
};

/// One vertex of the reverse-mode tape: a value, the (lazily allocated)
/// gradient accumulator, and a closure that pushes this node's gradient into
/// its inputs' accumulators. Constructed only by Tape.
///
/// An op node's value may be released before the node dies: by Backward()
/// (see there) or by a layer that knows no closure reads it (nn::SgcConv).
/// The node keeps its shape, so grad() works on a released node.
class Node {
 public:
  Node(Tensor value, bool requires_grad, const char* op)
      : value_(std::move(value)),
        rows_(value_.rows()),
        cols_(value_.cols()),
        requires_grad_(requires_grad),
        op_(op) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Empty once released (see the class comment).
  const Tensor& value() const { return value_; }
  /// For in-place updates of the same shape (optimisers, weight loads) and
  /// for dropping a value no closure reads (assign an empty Tensor).
  Tensor& mutable_value() { return value_; }

  /// Gradient of the loss w.r.t. this node, shaped like the node's value.
  /// Zero tensor until Backward() reaches the node. Backward() releases an
  /// op node's gradient once its closure has run, so afterwards only leaves
  /// and the root hold one; on an op node this returns a fresh zero tensor.
  Tensor& grad() {
    if (grad_.empty() && rows_ > 0 && cols_ > 0) grad_ = Tensor(rows_, cols_);
    return grad_;
  }
  bool has_grad() const { return !grad_.empty(); }
  void ZeroGrad() {
    if (!grad_.empty()) grad_.SetZero();
  }

  bool requires_grad() const { return requires_grad_; }
  const char* op() const { return op_; }

  InputList inputs() const { return InputList(inputs_, num_inputs_); }

  // --- Graph construction (used by ops.cc via Tape) ---
  void set_inputs(Node* const* inputs, uint32_t n) {
    inputs_ = inputs;
    num_inputs_ = n;
  }
  void set_backward(std::function<void(Node*)> fn) {
    backward_fn_ = std::move(fn);
  }
  bool has_backward() const { return static_cast<bool>(backward_fn_); }
  void RunBackward() {
    if (backward_fn_) backward_fn_(this);
  }

 private:
  friend void Backward(const VarPtr&);
  friend VarPtr Retain(const VarPtr&);

  Tensor value_;
  Tensor grad_;
  int rows_;
  int cols_;
  bool requires_grad_;
  bool retained_ = false;
  const char* op_;
  Node* const* inputs_ = nullptr;
  uint32_t num_inputs_ = 0;
  std::function<void(Node*)> backward_fn_;
  // Scratch used by Backward()'s scheduler (topo mark, unfinished-consumer
  // count, batch-conflict stamp). Valid only inside one Backward call;
  // Backward itself is not reentrant (training loops are sequential).
  uint64_t topo_mark_ = 0;
  uint64_t sched_stamp_ = 0;
  int32_t pending_consumers_ = 0;
};

/// Arena that owns every autograd Node.
///
/// Two regions with different lifetimes:
///  - persistent: trainable leaves (Leaf / PersistentConstant). Survive
///    Reset(); freed only at process exit. Model parameters live here.
///  - transient: everything ops.cc builds during a step (op nodes and
///    Constant leaves). Backward() returns their op values and gradients to
///    the TensorPool as it goes; Reset() destroys the nodes, which returns
///    what is left (constants, the root, Retain()ed values), and rewinds the
///    slabs for reuse — steady-state steps allocate no new slabs and no new
///    tensor buffers.
///
/// With the arena disabled (SetArenaEnabled(false) / UMGAD_ARENA=0) nodes
/// are individually heap-allocated and Reset() deletes them — the seed
/// allocator behaviour, numerically indistinguishable by construction.
///
/// Thread-safe for allocation (ops fan out across the thread pool during
/// forward). Reset() must only run when no transient node is live: call it
/// between training steps, never while a graph you still hold is in scope.
class Tape {
 public:
  struct Stats {
    /// Node slabs ever allocated (flat across steady-state steps).
    int64_t node_slabs = 0;
    /// Cumulative bytes of slab memory (nodes + input-pointer arenas).
    int64_t slab_bytes = 0;
    /// Live node counts.
    int64_t transient_nodes = 0;
    int64_t persistent_nodes = 0;
    /// Total transient nodes created since process start.
    int64_t total_transient_nodes = 0;
  };

  /// The process-wide tape (never destroyed; see TensorPool::Global).
  static Tape& Global();

  /// Allocate a node. Transient nodes die at the next Reset(); persistent
  /// ones live for the process.
  Node* NewNode(Tensor value, bool requires_grad, const char* op,
                bool persistent);

  /// Copy `n` input handles into the transient pointer arena; the returned
  /// array is owned by the tape and freed by Reset().
  Node* const* CopyInputs(const VarPtr* inputs, uint32_t n);

  /// Destroy all transient nodes and rewind the transient arenas, returning
  /// their tensors to the TensorPool. Invalidates every VarPtr that is not a
  /// persistent leaf — callers must drop step-local handles first.
  void Reset();

  Stats stats() const;

  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

 private:
  friend class ParamScope;

  Tape();
  ~Tape();

  struct Impl;
  Impl* impl_;
};

/// RAII scoped persistent region: persistent nodes (Leaf /
/// PersistentConstant) created while a ParamScope is open are destroyed —
/// and their value/grad buffers returned to the TensorPool — when it
/// closes, instead of living for the process. This is what keeps
/// long-running servers leak-free across repeated model constructions
/// (TrainedModel::Load / BuildViews / OnlineScorer rebuilds): wrap the
/// construction + weight extraction in a scope and the parameter set's
/// arena slots are rewound on exit (ASan/LSan-verified by the rebuild
/// loop in tests/serve_concurrency_test.cc).
///
/// Rules (UMGAD_CHECK-enforced where possible):
///  - Scopes are process-global and strictly nested (LIFO). Closing an
///    outer scope before an inner one fails fast.
///  - Every VarPtr to a node allocated inside the scope must be dropped
///    before the scope closes; surviving handles dangle.
///  - No other thread may allocate persistent nodes while a scope is
///    open (the persistent arena is a bump region; a concurrent
///    allocation would be destroyed with the scope). Transient
///    allocation and Reset() are unaffected.
class ParamScope {
 public:
  ParamScope();
  ~ParamScope();
  ParamScope(const ParamScope&) = delete;
  ParamScope& operator=(const ParamScope&) = delete;

 private:
  size_t slab_mark_ = 0;
  size_t heap_mark_ = 0;
};

/// Trainable leaf (parameter). Persistent: survives Tape::Reset().
VarPtr Leaf(Tensor value);

/// Non-trainable leaf (input data). Gradients are not propagated into it.
/// Transient: invalidated by Tape::Reset(), so build one per step.
VarPtr Constant(Tensor value);

/// Non-trainable leaf that survives Tape::Reset() — for constants stored in
/// long-lived modules (e.g. frozen fusion logits).
VarPtr PersistentConstant(Tensor value);

/// Keep `v`'s value past Backward(): for op values a caller reads after the
/// sweep (e.g. a detector scoring from the last epoch's reconstruction).
/// Lasts until Tape::Reset() destroys the node. Returns `v`.
VarPtr Retain(const VarPtr& v);

/// Reverse-mode sweep from a scalar (1x1) root. Accumulates into the grad()
/// of every reachable node that requires a gradient. Safe to call on graphs
/// that share subexpressions (each node's backward runs exactly once, after
/// all its consumers). Each op node's value and gradient are released to
/// the pool as soon as its closure has run: a closure reads only its own
/// node and its direct inputs, and a node runs only after all its
/// consumers, so nothing later in the sweep reads them. Afterwards the root
/// and the leaves keep their values and gradients, constants and Retain()ed
/// nodes their values; every other op value is empty. Calling it twice on
/// one graph doubles the leaves' gradients, provided no closure of the
/// second sweep reads a released value (Retain() such nodes first).
/// Independent tape segments run in parallel on the global thread pool with
/// a schedule that preserves the serial accumulation order exactly, so
/// gradients are bit-identical for any UMGAD_THREADS (see the scheduler
/// notes in autograd.cc).
void Backward(const VarPtr& root);

/// Convenience: zero the gradient accumulators of a parameter set.
void ZeroGradAll(const std::vector<VarPtr>& params);

}  // namespace ag
}  // namespace umgad

#endif  // UMGAD_TENSOR_AUTOGRAD_H_
