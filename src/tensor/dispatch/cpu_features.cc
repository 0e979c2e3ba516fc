#include "tensor/dispatch/cpu_features.h"

#include <atomic>

namespace umgad {
namespace dispatch {
namespace {

struct FeatureName {
  const char* name;
  unsigned bit;
};

constexpr FeatureName kFeatureNames[] = {
    {"sse2", kFeatSse2},   {"avx", kFeatAvx},
    {"avx2", kFeatAvx2},   {"fma", kFeatFma},
    {"avx512f", kFeatAvx512f},
};

unsigned Detect() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  unsigned mask = 0;
  if (__builtin_cpu_supports("sse2")) mask |= kFeatSse2;
  if (__builtin_cpu_supports("avx")) mask |= kFeatAvx;
  if (__builtin_cpu_supports("avx2")) mask |= kFeatAvx2;
  if (__builtin_cpu_supports("fma")) mask |= kFeatFma;
  if (__builtin_cpu_supports("avx512f")) mask |= kFeatAvx512f;
  return mask;
#else
  return 0;
#endif
}

std::atomic<unsigned> g_disabled{0};

}  // namespace

unsigned DetectedCpuFeatures() {
  static const unsigned mask = Detect();
  return mask;
}

unsigned EffectiveCpuFeatures() {
  return DetectedCpuFeatures() & ~g_disabled.load();
}

std::string CpuFeatureListString(unsigned mask) {
  std::string out;
  for (const FeatureName& f : kFeatureNames) {
    if ((mask & f.bit) == 0) continue;
    if (!out.empty()) out += " ";
    out += f.name;
  }
  return out.empty() ? "-" : out;
}

void SetDisabledCpuFeaturesForTest(unsigned mask) {
  g_disabled.store(mask);
}

}  // namespace dispatch
}  // namespace umgad
