#ifndef UMGAD_TESTS_ORACLE_HARNESS_H_
#define UMGAD_TESTS_ORACLE_HARNESS_H_

// Differential-oracle harness: every parallel kernel in this repo ships
// with a kept-serial naive twin (MatMulNaive, MultiplyTransposedNaive,
// GatAttentionNaive, *LossNaive, ...), and its contract is "same floats,
// any UMGAD_THREADS, any UMGAD_ARENA mode". This header turns the
// previously copy-pasted sweep loops into one helper:
//
//   ExpectBitIdentical("matmul 129x65x200",
//                      [&] { return Tensors{MatMul(a, b)}; },
//                      [&] { return Tensors{MatMulNaive(a, b)}; });
//
// The naive callable runs once at 1 thread / arena on to produce the
// reference; then *both* callables re-run under every thread-count x
// arena-mode combination and every output tensor is compared against the
// reference with MaxAbsDiff (== 0 by default; a nonzero `tolerance` is for
// kernels that document a changed accumulation precision, e.g.
// MatMulTransB's float vs the naive double).
//
// Callables must rebuild their computation from scratch on every
// invocation: the harness rewinds the global tape before each call, so
// tape-based kernels (ops that run forward + Backward and return the loss
// and leaf gradients) get a fresh transient arena each time. Shape sweeps
// stay with the caller (gtest TEST_P), thread/arena sweeps live here.

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "graph/multiplex_graph.h"
#include "tensor/autograd.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace umgad {
namespace testing {

/// The sweep grid (and tolerance) ExpectBitIdentical runs.
struct OracleSweep {
  std::vector<int> thread_counts = {1, 4};
  std::vector<bool> arena_modes = {true, false};
  /// MaxAbsDiff bound per output tensor; 0 = bit-identical.
  double tolerance = 0.0;
};

using Tensors = std::vector<Tensor>;
using TensorsFn = std::function<Tensors()>;

inline void ExpectBitIdentical(const std::string& label,
                               const TensorsFn& kernel, const TensorsFn& naive,
                               const OracleSweep& sweep = {}) {
  const bool prev_arena = ArenaEnabled();
  SetNumThreads(1);
  SetArenaEnabled(true);
  ag::Tape::Global().Reset();
  const Tensors reference = naive();
  ASSERT_FALSE(reference.empty()) << label << ": oracle produced no outputs";
  // Two empty tensors would compare equal: an output read from a node whose
  // value Backward released (no ag::Retain) must fail, not pass.
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_FALSE(reference[i].empty())
        << label << ": oracle output " << i << " is empty";
  }

  for (bool arena : sweep.arena_modes) {
    for (int threads : sweep.thread_counts) {
      SetArenaEnabled(arena);
      SetNumThreads(threads);
      for (int variant = 0; variant < 2; ++variant) {
        ag::Tape::Global().Reset();
        const Tensors got = variant == 0 ? kernel() : naive();
        ASSERT_EQ(got.size(), reference.size())
            << label << ": output-count mismatch";
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_LE(MaxAbsDiff(got[i], reference[i]), sweep.tolerance)
              << label << " [" << (variant == 0 ? "kernel" : "naive")
              << "] output " << i << " threads=" << threads
              << " arena=" << (arena ? 1 : 0);
        }
      }
    }
  }
  ag::Tape::Global().Reset();
  SetNumThreads(1);
  SetArenaEnabled(prev_arena);
}

/// Asserts two graphs are bit-for-bit identical: same name, shapes,
/// relation names, labels, CSR arrays, and attribute *bytes*. Floats are
/// compared through memcmp, not ==, so the check is exact and NaN-proof —
/// the contract of the io differential harness is "every loader yields the
/// same bits", not "approximately the same graph".
inline void ExpectGraphsBitIdentical(const std::string& label,
                                     const MultiplexGraph& actual,
                                     const MultiplexGraph& expected) {
  EXPECT_EQ(actual.name(), expected.name()) << label;
  ASSERT_EQ(actual.num_nodes(), expected.num_nodes()) << label;
  ASSERT_EQ(actual.feature_dim(), expected.feature_dim()) << label;
  ASSERT_EQ(actual.num_relations(), expected.num_relations()) << label;
  EXPECT_EQ(actual.labels(), expected.labels()) << label;
  for (int r = 0; r < expected.num_relations(); ++r) {
    EXPECT_EQ(actual.relation_name(r), expected.relation_name(r))
        << label << ": relation " << r;
    const SparseMatrix& a = actual.layer(r);
    const SparseMatrix& e = expected.layer(r);
    EXPECT_EQ(a.row_ptr(), e.row_ptr())
        << label << ": layer " << r << " row_ptr";
    EXPECT_EQ(a.col_idx(), e.col_idx())
        << label << ": layer " << r << " col_idx";
    ASSERT_EQ(a.nnz(), e.nnz()) << label << ": layer " << r;
    EXPECT_EQ(std::memcmp(a.values().data(), e.values().data(),
                          static_cast<size_t>(e.nnz()) * sizeof(float)),
              0)
        << label << ": layer " << r << " values differ";
  }
  const size_t attr_bytes = static_cast<size_t>(expected.num_nodes()) *
                            expected.feature_dim() * sizeof(float);
  EXPECT_EQ(std::memcmp(actual.attributes().data(),
                        expected.attributes().data(), attr_bytes),
            0)
      << label << ": attribute bytes differ";
}

}  // namespace testing
}  // namespace umgad

#endif  // UMGAD_TESTS_ORACLE_HARNESS_H_
