#ifndef UMGAD_TENSOR_DISPATCH_MATMUL_IMPL_H_
#define UMGAD_TENSOR_DISPATCH_MATMUL_IMPL_H_

#include <cstdint>
#include <cstring>

#include "tensor/tensor.h"

namespace umgad {
namespace dispatch {

/// Register-tile geometry, shared by both ISA tiers.
inline constexpr int kMicroRows = 8;  // rows of C per micro-kernel call
inline constexpr int kMicroCols = 8;  // columns of C per register tile

/// kMicroCols floats of one C row, held in one vector register. With the
/// GNU vector extension `+` and `*` are lane-wise IEEE float operations, so
/// a tile rounds exactly like the scalar loop over its columns; other
/// compilers get the same arithmetic from a plain array. Loaded and stored
/// with memcpy, so rows need no alignment.
#if defined(__GNUC__) || defined(__clang__)
typedef float MicroVec __attribute__((vector_size(kMicroCols * sizeof(float))));
#else
struct MicroVec {
  float lane[kMicroCols];
  MicroVec& operator+=(const MicroVec& o) {
    for (int j = 0; j < kMicroCols; ++j) lane[j] += o.lane[j];
    return *this;
  }
};
inline MicroVec operator*(float s, const MicroVec& v) {
  MicroVec r;
  for (int j = 0; j < kMicroCols; ++j) r.lane[j] = s * v.lane[j];
  return r;
}
#endif

/// The depth is walked in slices of B rows holding about kDepthBlockFloats
/// floats (clamped to [kMinDepthBlock, kMaxDepthBlock] rows), so the B
/// slice a pass streams stays cache-resident, and within few pages, across
/// the pass's tiles; C carries the float partial sums from one slice to
/// the next. A long depth (MatMulTransA's k is the node count) runs many
/// slices, a narrow product's whole depth usually one.
inline constexpr int kDepthBlockFloats = 1 << 14;
inline constexpr int kMinDepthBlock = 16;
inline constexpr int kMaxDepthBlock = 256;

/// Below this many multiply-adds the whole product runs on the calling
/// thread: a pool dispatch costs more than the product.
inline constexpr int64_t kSmallMatMulMuls = 1 << 15;

/// A row-major-or-transposed A operand: element (i, p) of the m x k
/// matrix A sits at data[i * row_stride + p * k_stride]. A tensor read as
/// itself has strides (cols, 1); read as its transpose, (1, cols).
struct StridedA {
  const float* data;
  int64_t row_stride;
  int64_t k_stride;
  int m;
  int k;
};

/// Micro-kernel signature. The body lives in matmul_micro.inc and is
/// compiled once per ISA tier (baseline in blocked_matmul.cc, AVX2 in
/// simd_avx2.cc) — same C source, different target attribute, so every tier
/// runs the identical ascending-k accumulation and stays bit-identical.
///
/// Computes rows [0, rows) (rows <= kMicroRows) and columns [0, n) of C:
/// c[i * ldc + j] = (accumulate ? c[i * ldc + j] : 0) + sum over p < k, in
/// ascending p, of a[i * a_row + p * a_k] * b[p * ldb + j], in float. B is
/// read in place; the tiles cover exactly n columns, kMicroCols at a time,
/// with a scalar tail for the last n % kMicroCols.
using MicroKernelFn = void (*)(const float* a, int64_t a_row, int64_t a_k,
                               const float* b, int64_t ldb, float* c,
                               int64_t ldc, int rows, int n, int k,
                               bool accumulate);

/// One ISA tier's micro-kernel, with the name KernelRegistry::Selections()
/// reports for the dense products that run it.
struct MicroKernels {
  const char* name;  // "blocked" or "blocked_avx2"
  MicroKernelFn micro;
};

/// The AVX2 tier (simd_avx2.cc); null when the compiler cannot target it.
const MicroKernels* Avx2MicroKernels();

/// The tier this host runs: AVX2 when EffectiveCpuFeatures() has it and the
/// build compiled it, else the baseline tier. Read on every product, so a
/// SetDisabledCpuFeaturesForTest mask takes effect at the next call.
const MicroKernels& ActiveMicroKernels();

/// The blocked driver: C = A·B with A read through its strides and B in
/// place. Row tiles of kMicroRows rows of C are partitioned across the
/// pool (each C element is owned by one task); within a task the depth is
/// walked in kDepthBlock slices. Defined in blocked_matmul.cc.
Tensor BlockedMatMul(const StridedA& a, const Tensor& b,
                     const MicroKernels& kernels);

}  // namespace dispatch
}  // namespace umgad

#endif  // UMGAD_TENSOR_DISPATCH_MATMUL_IMPL_H_
