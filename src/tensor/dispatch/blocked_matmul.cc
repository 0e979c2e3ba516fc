#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/dispatch/cpu_features.h"
#include "tensor/dispatch/matmul_impl.h"
#include "tensor/tensor.h"

namespace umgad {
namespace dispatch {
namespace {

// Baseline-ISA micro-kernels (whatever the build's default target offers).
#define UMGAD_MICRO_TARGET_ATTR
#include "tensor/dispatch/matmul_micro.inc"
#undef UMGAD_MICRO_TARGET_ATTR

constexpr MicroKernels kBaselineMicroKernels = {"blocked", MicroKernel8,
                                                MicroKernel1};

}  // namespace

const MicroKernels& ActiveMicroKernels() {
  if ((EffectiveCpuFeatures() & kFeatAvx2) != 0) {
    if (const MicroKernels* avx2 = Avx2MicroKernels()) return *avx2;
  }
  return kBaselineMicroKernels;
}

Tensor BlockedMatMul(const Tensor& a, const Tensor& b,
                     const MicroKernels& kernels) {
  UMGAD_CHECK_EQ(a.cols(), b.rows());
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  if (static_cast<int64_t>(m) * k * n < kSmallMatMulMuls) {
    return MatMulNaive(a, b);
  }
  Tensor c(m, n);

  // Pack B once into zero-padded panels: panel t holds columns
  // [t*kPanelCols, t*kPanelCols + w) contiguously per k-row, so the
  // micro-kernel streams it with unit stride and needs no column tail logic.
  // Pooled + uninitialised: the buffer is fully overwritten below and the
  // same pack shape recurs every step, so steady state pays neither a malloc
  // nor a value-initialisation pass over up to O(k*n) memory.
  const int panels = (n + kPanelCols - 1) / kPanelCols;
  PooledBuffer packed(static_cast<size_t>(panels) * k * kPanelCols);
  for (int t = 0; t < panels; ++t) {
    const int j0 = t * kPanelCols;
    const int w = std::min(kPanelCols, n - j0);
    float* panel = packed.get() + static_cast<size_t>(t) * k * kPanelCols;
    for (int p = 0; p < k; ++p) {
      const float* brow = b.row(p) + j0;
      float* dst = panel + static_cast<int64_t>(p) * kPanelCols;
      int j = 0;
      for (; j < w; ++j) dst[j] = brow[j];
      for (; j < kPanelCols; ++j) dst[j] = 0.0f;
    }
  }

  ParallelFor(m, kMicroRows, [&](int64_t r0, int64_t r1) {
    for (int t = 0; t < panels; ++t) {
      const int j0 = t * kPanelCols;
      const int w = std::min(kPanelCols, n - j0);
      const float* panel =
          packed.get() + static_cast<size_t>(t) * k * kPanelCols;
      int64_t i = r0;
      for (; i + kMicroRows <= r1; i += kMicroRows) {
        kernels.micro8(a.row(static_cast<int>(i)), k, panel,
                       c.row(static_cast<int>(i)) + j0, n, k, w);
      }
      for (; i < r1; ++i) {
        kernels.micro1(a.row(static_cast<int>(i)), panel,
                       c.row(static_cast<int>(i)) + j0, k, w);
      }
    }
  });
  return c;
}

}  // namespace dispatch
}  // namespace umgad
