// TensorPool unit tests: bucket reuse, stats accounting, arena on/off
// behaviour, Trim, and the Tensor/PooledBuffer integration, plus the
// loss-backward ownership-bucket scratch reuse counter. The end-to-end
// "steady-state epochs allocate zero tensor bytes" contract is covered in
// determinism_test.cc and autograd_test.cc.

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/loss.h"
#include "tensor/autograd.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace umgad {
namespace {

class ArenaGuard {
 public:
  ArenaGuard() : prev_(ArenaEnabled()) {}
  ~ArenaGuard() { SetArenaEnabled(prev_); }

 private:
  bool prev_;
};

TEST(TensorPoolTest, ReleasedBufferIsReused) {
  ArenaGuard guard;
  SetArenaEnabled(true);
  TensorPool& pool = TensorPool::Global();

  float* p = pool.Acquire(12345);
  const TensorPool::Stats before = pool.stats();
  pool.Release(p, 12345);
  float* q = pool.Acquire(12345);
  const TensorPool::Stats after = pool.stats();
  EXPECT_EQ(p, q) << "same-size acquire must pop the cached buffer";
  EXPECT_EQ(after.fresh_buffers, before.fresh_buffers);
  EXPECT_EQ(after.reused_buffers, before.reused_buffers + 1);
  pool.Release(q, 12345);
}

TEST(TensorPoolTest, AcquireZeroInitialises) {
  ArenaGuard guard;
  SetArenaEnabled(true);
  TensorPool& pool = TensorPool::Global();
  float* p = pool.AcquireUninit(777);
  for (size_t i = 0; i < 777; ++i) p[i] = 42.0f;
  pool.Release(p, 777);
  // Recycled buffer must come back zeroed through the zeroing entry point,
  // or results would depend on what previously lived in the buffer.
  float* q = pool.Acquire(777);
  for (size_t i = 0; i < 777; ++i) ASSERT_EQ(q[i], 0.0f) << i;
  pool.Release(q, 777);
}

TEST(TensorPoolTest, DisabledModeDoesNotCache) {
  ArenaGuard guard;
  SetArenaEnabled(false);
  TensorPool& pool = TensorPool::Global();
  const TensorPool::Stats before = pool.stats();
  float* p = pool.Acquire(4321);
  pool.Release(p, 4321);
  const TensorPool::Stats after = pool.stats();
  EXPECT_EQ(after.fresh_buffers, before.fresh_buffers + 1);
  EXPECT_EQ(after.cached_buffers, before.cached_buffers);
}

TEST(TensorPoolTest, TrimFreesCachedBuffers) {
  ArenaGuard guard;
  SetArenaEnabled(true);
  TensorPool& pool = TensorPool::Global();
  pool.Release(pool.Acquire(999), 999);
  EXPECT_GT(pool.stats().cached_buffers, 0);
  pool.Trim();
  EXPECT_EQ(pool.stats().cached_buffers, 0);
  EXPECT_EQ(pool.stats().cached_bytes, 0);
}

TEST(TensorPoolTest, TensorRoundTripsThroughPool) {
  ArenaGuard guard;
  SetArenaEnabled(true);
  TensorPool& pool = TensorPool::Global();
  pool.Trim();
  const float* recycled;
  {
    Tensor t(31, 7);
    t.Fill(3.0f);
    recycled = t.data();
  }  // t's buffer returns to the pool here
  Tensor u(31, 7);
  EXPECT_EQ(u.data(), recycled);
  EXPECT_DOUBLE_EQ(u.Sum(), 0.0) << "recycled tensors must be zeroed";
}

TEST(TensorPoolTest, TensorCopyAndMoveSemantics) {
  Tensor a(5, 4);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = static_cast<float>(i);
  Tensor copy = a;
  EXPECT_NE(copy.data(), a.data());
  EXPECT_EQ(MaxAbsDiff(copy, a), 0.0);

  const float* buf = a.data();
  Tensor moved = std::move(a);
  EXPECT_EQ(moved.data(), buf) << "move must transfer the buffer";

  Tensor assigned(5, 4);
  assigned = copy;  // same size: reuses its own buffer
  EXPECT_EQ(MaxAbsDiff(assigned, copy), 0.0);
  Tensor reshaped(2, 2);
  reshaped = copy;  // different size: reallocates
  EXPECT_EQ(MaxAbsDiff(reshaped, copy), 0.0);
}

TEST(TensorPoolTest, LossBackwardScratchIsReusedAcrossSteps) {
  // The counting-sort ownership buckets both parallel losses build per
  // backward come from per-thread reusable scratch. Shapes repeat across
  // training steps, so after one warm step every further backward at the
  // same shapes must allocate zero fresh scratch bytes. Run at 4 threads:
  // each loss is the whole tape, so its backward is a one-node batch that
  // runs on this (the calling) thread, and the same thread_local scratch
  // serves every repeat.
  const int prev_threads = NumThreads();
  SetNumThreads(4);
  const int n = 60;
  Rng rng(51);
  Tensor z = RandomNormal(n, 8, 0.0, 0.5, &rng);
  Tensor zo = RandomNormal(n, 8, 0.0, 0.4, &rng);
  Tensor za = RandomNormal(n, 8, 0.0, 0.4, &rng);
  const std::vector<ag::EdgeCandidateSet> sets =
      nn::RandomEdgeCandidates(n, /*num_sets=*/40, /*negatives=*/4, &rng);
  const std::vector<int> neg = nn::SampleContrastiveNegatives(n, &rng);

  auto step = [&] {
    ag::Backward(ag::MaskedEdgeSoftmaxCE(ag::Leaf(z), sets));
    ag::Tape::Global().Reset();
    ag::Backward(ag::DualContrastiveLoss(ag::Leaf(zo), ag::Leaf(za), neg));
    ag::Tape::Global().Reset();
  };
  step();  // warm step: sizes the scratch once
  const int64_t warm_bytes = ag::LossScratchFreshBytes();
  for (int rep = 0; rep < 3; ++rep) step();
  EXPECT_EQ(ag::LossScratchFreshBytes(), warm_bytes)
      << "steady-state loss backwards must reuse the bucket scratch";
  SetNumThreads(prev_threads);
}

TEST(TensorPoolTest, PooledBufferReturnsOnScopeExit) {
  ArenaGuard guard;
  SetArenaEnabled(true);
  TensorPool& pool = TensorPool::Global();
  const float* inner;
  {
    PooledBuffer buf(2048);
    inner = buf.get();
  }
  float* again = pool.AcquireUninit(2048);
  EXPECT_EQ(again, inner);
  pool.Release(again, 2048);
}

}  // namespace
}  // namespace umgad
