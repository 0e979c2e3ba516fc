#include "tensor/autograd.h"

#include <mutex>
#include <new>

#include "common/thread_pool.h"
#include "tensor/pool.h"

namespace umgad {
namespace ag {

// ---------------------------------------------------------------------------
// Tape: slab arenas for nodes and input-pointer arrays
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kNodesPerSlab = 256;
constexpr size_t kPtrsPerSlab = 8192;

}  // namespace

struct Tape::Impl {
  mutable std::mutex mu;

  // Slab mode (arena on). Nodes are placement-new'd consecutively; slab
  // index / offset are derived from the running count, so Reset() can walk
  // and destroy exactly the live transient prefix and rewind the count while
  // keeping the slabs for the next step.
  std::vector<void*> transient_slabs;
  size_t transient_count = 0;
  std::vector<void*> persistent_slabs;
  size_t persistent_count = 0;

  // Bump arena for input-pointer arrays (transient; rewound by Reset()).
  std::vector<Node**> ptr_slabs;
  size_t ptr_active_slab = 0;
  size_t ptr_used = 0;
  std::vector<Node**> loose_ptr_blocks;  // arrays larger than a slab

  // Heap mode (arena off): every node / array is its own allocation, freed
  // by Reset() — the seed allocator behaviour.
  std::vector<Node*> heap_transient;
  std::vector<Node*> heap_persistent;
  std::vector<Node**> heap_ptr_blocks;

  Stats stats;

  Node* SlabSlot(std::vector<void*>* slabs, size_t index) {
    const size_t slab = index / kNodesPerSlab;
    const size_t offset = index % kNodesPerSlab;
    if (slab == slabs->size()) {
      slabs->push_back(::operator new(kNodesPerSlab * sizeof(Node)));
      stats.node_slabs += 1;
      stats.slab_bytes += static_cast<int64_t>(kNodesPerSlab * sizeof(Node));
    }
    return reinterpret_cast<Node*>((*slabs)[slab]) + offset;
  }
};

Tape& Tape::Global() {
  // Intentionally leaked: persistent parameters may be referenced from
  // other statics during teardown; the static pointer keeps the arena
  // reachable so LeakSanitizer stays quiet.
  static Tape* tape = new Tape();
  return *tape;
}

Tape::Tape() : impl_(new Impl()) {}

Tape::~Tape() { delete impl_; }

Node* Tape::NewNode(Tensor value, bool requires_grad, const char* op,
                    bool persistent) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Node* slot;
  if (ArenaEnabled()) {
    if (persistent) {
      slot = impl_->SlabSlot(&impl_->persistent_slabs,
                             impl_->persistent_count);
      ++impl_->persistent_count;
    } else {
      slot = impl_->SlabSlot(&impl_->transient_slabs,
                             impl_->transient_count);
      ++impl_->transient_count;
    }
    new (slot) Node(std::move(value), requires_grad, op);
  } else {
    slot = new Node(std::move(value), requires_grad, op);
    (persistent ? impl_->heap_persistent : impl_->heap_transient)
        .push_back(slot);
  }
  if (persistent) {
    impl_->stats.persistent_nodes += 1;
  } else {
    impl_->stats.transient_nodes += 1;
    impl_->stats.total_transient_nodes += 1;
  }
  return slot;
}

Node* const* Tape::CopyInputs(const VarPtr* inputs, uint32_t n) {
  if (n == 0) return nullptr;
  std::lock_guard<std::mutex> lock(impl_->mu);
  Node** dst;
  if (!ArenaEnabled()) {
    dst = new Node*[n];
    impl_->heap_ptr_blocks.push_back(dst);
  } else if (n > kPtrsPerSlab) {
    dst = new Node*[n];
    impl_->loose_ptr_blocks.push_back(dst);
  } else {
    if (impl_->ptr_active_slab == impl_->ptr_slabs.size() ||
        impl_->ptr_used + n > kPtrsPerSlab) {
      if (impl_->ptr_active_slab < impl_->ptr_slabs.size() &&
          impl_->ptr_used + n > kPtrsPerSlab) {
        ++impl_->ptr_active_slab;
      }
      if (impl_->ptr_active_slab == impl_->ptr_slabs.size()) {
        impl_->ptr_slabs.push_back(new Node*[kPtrsPerSlab]);
        impl_->stats.node_slabs += 1;
        impl_->stats.slab_bytes +=
            static_cast<int64_t>(kPtrsPerSlab * sizeof(Node*));
      }
      impl_->ptr_used = 0;
    }
    dst = impl_->ptr_slabs[impl_->ptr_active_slab] + impl_->ptr_used;
    impl_->ptr_used += n;
  }
  for (uint32_t i = 0; i < n; ++i) dst[i] = inputs[i].get();
  return dst;
}

void Tape::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  // Slab-mode transients: destroy the live prefix, keep the slabs.
  for (size_t i = 0; i < impl_->transient_count; ++i) {
    Node* n = reinterpret_cast<Node*>(
                  impl_->transient_slabs[i / kNodesPerSlab]) +
              i % kNodesPerSlab;
    n->~Node();
  }
  impl_->transient_count = 0;
  impl_->ptr_active_slab = 0;
  impl_->ptr_used = 0;
  for (Node** block : impl_->loose_ptr_blocks) delete[] block;
  impl_->loose_ptr_blocks.clear();
  // Heap-mode transients.
  for (Node* n : impl_->heap_transient) delete n;
  impl_->heap_transient.clear();
  for (Node** block : impl_->heap_ptr_blocks) delete[] block;
  impl_->heap_ptr_blocks.clear();
  impl_->stats.transient_nodes = 0;
}

Tape::Stats Tape::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

// ---------------------------------------------------------------------------
// ParamScope: scoped persistent region
// ---------------------------------------------------------------------------

ParamScope::ParamScope() {
  Tape::Impl* impl = Tape::Global().impl_;
  std::lock_guard<std::mutex> lock(impl->mu);
  slab_mark_ = impl->persistent_count;
  heap_mark_ = impl->heap_persistent.size();
}

ParamScope::~ParamScope() {
  Tape::Impl* impl = Tape::Global().impl_;
  std::lock_guard<std::mutex> lock(impl->mu);
  // LIFO discipline: an inner scope must have already rewound past its own
  // marks, never below ours.
  UMGAD_CHECK_GE(impl->persistent_count, slab_mark_);
  UMGAD_CHECK_GE(impl->heap_persistent.size(), heap_mark_);
  int64_t destroyed = 0;
  // Slab mode: destroy the scope's suffix in reverse and rewind the bump
  // count; the slabs themselves are kept for the next construction.
  for (size_t i = impl->persistent_count; i-- > slab_mark_;) {
    Node* n = reinterpret_cast<Node*>(
                  impl->persistent_slabs[i / kNodesPerSlab]) +
              i % kNodesPerSlab;
    n->~Node();
    ++destroyed;
  }
  impl->persistent_count = slab_mark_;
  // Heap mode (arena off): the scope's suffix is individually freed.
  while (impl->heap_persistent.size() > heap_mark_) {
    delete impl->heap_persistent.back();
    impl->heap_persistent.pop_back();
    ++destroyed;
  }
  impl->stats.persistent_nodes -= destroyed;
}

// ---------------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------------

VarPtr Leaf(Tensor value) {
  return Tape::Global().NewNode(std::move(value), /*requires_grad=*/true,
                                "leaf", /*persistent=*/true);
}

VarPtr Constant(Tensor value) {
  return Tape::Global().NewNode(std::move(value), /*requires_grad=*/false,
                                "const", /*persistent=*/false);
}

VarPtr PersistentConstant(Tensor value) {
  return Tape::Global().NewNode(std::move(value), /*requires_grad=*/false,
                                "const", /*persistent=*/true);
}

VarPtr Retain(const VarPtr& v) {
  v->retained_ = true;
  return v;
}

// ---------------------------------------------------------------------------
// Backward: batched, order-preserving parallel sweep
//
// The serial reference semantics are the seed's: reverse post-order walk,
// each node's closure accumulating into its inputs' gradients. To run tape
// segments in parallel WITHOUT changing a single float: nodes are executed
// in "batches". A batch is built by scanning the remaining nodes in serial
// order and admitting every node that (a) has all consumers executed and
// (b) writes no gradient already claimed this scan — every node scanned
// (admitted or skipped) claims its write-set, so a later node can never
// overtake an earlier one that touches the same gradient. Batch members
// therefore write disjoint gradients (safe to run concurrently in any
// order), and for each gradient the accumulation sequence across batches is
// exactly the serial order. Results are bit-identical for any UMGAD_THREADS
// and identical to the serial sweep.
// ---------------------------------------------------------------------------

namespace {

/// Monotone stamps for the scratch fields in Node. Backward is documented
/// non-reentrant, so plain statics are fine.
uint64_t g_backward_epoch = 0;

/// Scan cap: bounds the O(remaining) rescan cost per batch. Must not depend
/// on the thread count (it never changes results, but keeping the schedule
/// fixed makes behaviour easier to reason about).
constexpr size_t kMaxBatch = 64;

}  // namespace

void Backward(const VarPtr& root) {
  UMGAD_CHECK_EQ(root->value().size(), 1);
  root->grad().Fill(1.0f);
  if (!root->requires_grad()) return;  // graph of constants: nothing to do

  const uint64_t epoch = ++g_backward_epoch;

  // Post-order DFS over the grad-requiring subgraph (iterative: graphs from
  // K masking repeats x R relations can be deep enough that recursion is a
  // liability). Reversed, this is the seed's serial execution order.
  std::vector<Node*> order;
  struct Frame {
    Node* node;
    uint32_t next_input;
  };
  std::vector<Frame> stack;
  root->topo_mark_ = epoch;
  stack.push_back({root.get(), 0});
  while (!stack.empty()) {
    Frame& top = stack.back();
    Node* n = top.node;
    if (top.next_input < n->num_inputs_) {
      Node* child = n->inputs_[top.next_input];
      ++top.next_input;
      if (child->requires_grad_ && child->topo_mark_ != epoch) {
        child->topo_mark_ = epoch;
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(n);
      stack.pop_back();
    }
  }

  std::vector<Node*> sched(order.rbegin(), order.rend());
  const size_t n = sched.size();
  for (Node* v : sched) {
    v->pending_consumers_ = 0;
    v->sched_stamp_ = 0;
  }
  for (Node* v : sched) {
    for (uint32_t j = 0; j < v->num_inputs_; ++j) {
      Node* u = v->inputs_[j];
      if (u->requires_grad_) ++u->pending_consumers_;
    }
  }

  std::vector<uint8_t> done(n, 0);
  std::vector<Node*> batch;
  batch.reserve(kMaxBatch);
  uint64_t scan = 0;
  size_t executed = 0;
  size_t first_remaining = 0;
  while (executed < n) {
    ++scan;
    batch.clear();
    while (first_remaining < n && done[first_remaining]) ++first_remaining;
    for (size_t i = first_remaining; i < n && batch.size() < kMaxBatch;
         ++i) {
      Node* v = sched[i];
      if (done[i]) continue;
      bool admit = v->pending_consumers_ == 0;
      for (uint32_t j = 0; admit && j < v->num_inputs_; ++j) {
        Node* u = v->inputs_[j];
        if (u->requires_grad_ && u->sched_stamp_ == scan) admit = false;
      }
      if (admit) {
        batch.push_back(v);
        done[i] = 1;
      }
      // Claim the write-set either way: a skipped node must still block
      // later nodes from overtaking it on a shared gradient.
      for (uint32_t j = 0; j < v->num_inputs_; ++j) {
        Node* u = v->inputs_[j];
        if (u->requires_grad_) u->sched_stamp_ = scan;
      }
    }
    // The first remaining node always qualifies (its consumers are earlier
    // in serial order, hence executed, and it is scanned before any claim),
    // so every pass makes progress.
    UMGAD_CHECK(!batch.empty());
    ParallelFor(static_cast<int64_t>(batch.size()), 1,
                [&batch](int64_t b, int64_t e) {
                  for (int64_t i = b; i < e; ++i) batch[i]->RunBackward();
                });
    executed += batch.size();
    for (Node* v : batch) {
      for (uint32_t j = 0; j < v->num_inputs_; ++j) {
        Node* u = v->inputs_[j];
        if (u->requires_grad_) --u->pending_consumers_;
      }
      // An admitted node's consumers have all run, so nothing writes its
      // gradient again, and only they and its own closure read its value:
      // return both buffers to the pool. Leaves (no closure) and the root
      // keep theirs, and a Retain()ed node its value.
      if (v->has_backward() && v != root.get()) {
        v->grad_ = Tensor();
        if (!v->retained_) v->value_ = Tensor();
      }
    }
  }
}

void ZeroGradAll(const std::vector<VarPtr>& params) {
  for (const auto& p : params) p->ZeroGrad();
}

}  // namespace ag
}  // namespace umgad
