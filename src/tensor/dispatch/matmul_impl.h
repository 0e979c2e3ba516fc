#ifndef UMGAD_TENSOR_DISPATCH_MATMUL_IMPL_H_
#define UMGAD_TENSOR_DISPATCH_MATMUL_IMPL_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace umgad {
namespace dispatch {

/// Blocked-core geometry, shared by both ISA tiers.
inline constexpr int kMicroRows = 8;   // rows of C per micro-kernel call
inline constexpr int kPanelCols = 64;  // packed-panel width

/// Below this many multiply-adds, packing costs more than the whole
/// product; BlockedMatMul falls through to the naive loop.
inline constexpr int64_t kSmallMatMulMuls = 1 << 15;

/// Micro-kernel signatures. The bodies live in matmul_micro.inc and are
/// compiled once per ISA tier (baseline in blocked_matmul.cc, AVX2 in
/// simd_avx2.cc) — same C source, different target attribute, so every tier
/// runs the identical ascending-k accumulation and stays bit-identical.
using MicroKernel8Fn = void (*)(const float* a, int64_t lda, const float* bp,
                                float* c, int64_t ldc, int k, int w);
using MicroKernel1Fn = void (*)(const float* a, const float* bp, float* c,
                                int k, int w);

/// One ISA tier's micro-kernels, with the name KernelRegistry::Selections()
/// reports for the dense products that run them.
struct MicroKernels {
  const char* name;  // "blocked" or "blocked_avx2"
  MicroKernel8Fn micro8;
  MicroKernel1Fn micro1;
};

/// The AVX2 tier (simd_avx2.cc); null when the compiler cannot target it.
const MicroKernels* Avx2MicroKernels();

/// The tier this host runs: AVX2 when EffectiveCpuFeatures() has it and the
/// build compiled it, else the baseline tier. Read on every product, so a
/// SetDisabledCpuFeaturesForTest mask takes effect at the next call.
const MicroKernels& ActiveMicroKernels();

/// The blocked driver: packs B into zero-padded kPanelCols panels, then
/// partitions rows of C across the pool, calling the tier's micro-kernels.
/// Small products short-circuit to MatMulNaive. Defined in
/// blocked_matmul.cc.
Tensor BlockedMatMul(const Tensor& a, const Tensor& b,
                     const MicroKernels& kernels);

}  // namespace dispatch
}  // namespace umgad

#endif  // UMGAD_TENSOR_DISPATCH_MATMUL_IMPL_H_
