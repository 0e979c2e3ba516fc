#ifndef UMGAD_TENSOR_DISPATCH_CPU_FEATURES_H_
#define UMGAD_TENSOR_DISPATCH_CPU_FEATURES_H_

#include <string>

namespace umgad {
namespace dispatch {

/// SIMD capability bits of the host CPU. Detection uses the compiler's
/// cpuid intrinsics on x86-64; every bit is 0 on other architectures, so
/// the dense products run their baseline micro-kernels there.
enum CpuFeature : unsigned {
  kFeatSse2 = 1u << 0,
  kFeatAvx = 1u << 1,
  kFeatAvx2 = 1u << 2,
  kFeatFma = 1u << 3,
  kFeatAvx512f = 1u << 4,
};

/// Feature bits of the host CPU (cpuid; cached after the first call).
unsigned DetectedCpuFeatures();

/// DetectedCpuFeatures() minus the bits a test masked off through
/// SetDisabledCpuFeaturesForTest. The dense products read this on every
/// call to pick their micro-kernel tier.
unsigned EffectiveCpuFeatures();

/// Human-readable form of a feature mask ("sse2 avx avx2"); "-" when empty.
std::string CpuFeatureListString(unsigned mask);

/// Test hook: masks CPU features off, as if the CPU lacked them, so a test
/// can run the baseline tier on an AVX2 host. Pass 0 to restore.
void SetDisabledCpuFeaturesForTest(unsigned mask);

}  // namespace dispatch
}  // namespace umgad

#endif  // UMGAD_TENSOR_DISPATCH_CPU_FEATURES_H_
