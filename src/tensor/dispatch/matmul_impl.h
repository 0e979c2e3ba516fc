#ifndef UMGAD_TENSOR_DISPATCH_MATMUL_IMPL_H_
#define UMGAD_TENSOR_DISPATCH_MATMUL_IMPL_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace umgad {
namespace dispatch {

/// Blocked-core geometry, shared by every dense variant.
inline constexpr int kMicroRows = 8;   // rows of C per micro-kernel call
inline constexpr int kPanelCols = 64;  // packed-panel width

/// Below this many multiply-adds, packing and dispatch cost more than the
/// whole product; blocked variants fall through to the naive loop.
inline constexpr int64_t kSmallMatMulMuls = 1 << 15;

/// Micro-kernel signatures. The bodies live in matmul_micro.inc and are
/// compiled once per ISA tier (baseline in matmul_variants.cc, AVX2 in
/// simd_avx2.cc) — same C source, different target attribute, so every tier
/// runs the identical ascending-k accumulation and stays bit-identical.
using MicroKernel8Fn = void (*)(const float* a, int64_t lda, const float* bp,
                                float* c, int64_t ldc, int k, int w);
using MicroKernel1Fn = void (*)(const float* a, const float* bp, float* c,
                                int k, int w);

/// The blocked driver: packs B into zero-padded kPanelCols panels, then
/// partitions rows of C across the pool, calling the given micro-kernels.
/// Small products short-circuit to MatMulNaive. Defined in
/// matmul_variants.cc.
Tensor BlockedMatMul(const Tensor& a, const Tensor& b, MicroKernel8Fn micro8,
                     MicroKernel1Fn micro1);

}  // namespace dispatch
}  // namespace umgad

#endif  // UMGAD_TENSOR_DISPATCH_MATMUL_IMPL_H_
