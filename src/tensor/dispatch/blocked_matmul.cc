#include <algorithm>

#include "common/thread_pool.h"
#include "tensor/dispatch/cpu_features.h"
#include "tensor/dispatch/matmul_impl.h"
#include "tensor/tensor.h"

namespace umgad {
namespace dispatch {
namespace {

// Baseline-ISA micro-kernel (whatever the build's default target offers).
#define UMGAD_MICRO_TARGET_ATTR
#include "tensor/dispatch/matmul_micro.inc"
#undef UMGAD_MICRO_TARGET_ATTR

constexpr MicroKernels kBaselineMicroKernels = {"blocked", MicroKernel};

}  // namespace

const MicroKernels& ActiveMicroKernels() {
  if ((EffectiveCpuFeatures() & kFeatAvx2) != 0) {
    if (const MicroKernels* avx2 = Avx2MicroKernels()) return *avx2;
  }
  return kBaselineMicroKernels;
}

Tensor BlockedMatMul(const StridedA& a, const Tensor& b,
                     const MicroKernels& kernels) {
  const int m = a.m;
  const int k = a.k;
  const int n = b.cols();
  if (k == 0 || n == 0) return Tensor(m, n);
  // Each task owns whole row tiles of C and walks the depth in slices: the
  // first slice writes its tiles (so C needs no zero fill), later ones add
  // to them, so every element still sums its products in ascending k, in
  // float, on one thread.
  Tensor c = Tensor::Uninitialized(m, n);
  const int64_t tiles = (m + kMicroRows - 1) / kMicroRows;
  const int depth_block =
      std::max(kMinDepthBlock, std::min(kMaxDepthBlock, kDepthBlockFloats / n));
  auto run = [&](int64_t t0, int64_t t1) {
    for (int p0 = 0; p0 < k; p0 += depth_block) {
      const int depth = std::min(depth_block, k - p0);
      const float* bp = b.row(p0);
      for (int64_t t = t0; t < t1; ++t) {
        const int i0 = static_cast<int>(t) * kMicroRows;
        kernels.micro(a.data + i0 * a.row_stride + p0 * a.k_stride,
                      a.row_stride, a.k_stride, bp, n, c.row(i0), n,
                      std::min(kMicroRows, m - i0), n, depth, p0 > 0);
      }
    }
  };
  if (static_cast<int64_t>(m) * k * n < kSmallMatMulMuls) {
    run(0, tiles);
  } else {
    ParallelFor(tiles, 1, run);
  }
  return c;
}

}  // namespace dispatch
}  // namespace umgad
