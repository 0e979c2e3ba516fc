// AVX2-tier micro-kernel, compiled with a function-level target attribute
// so the baseline build stays portable while capable hosts get 256-bit
// vectors at runtime.
//
// The target attribute deliberately enables avx2 but NOT fma: without an
// FMA ISA the compiler cannot contract the multiply-add chains, so this
// tier rounds exactly like the baseline tier and stays bit-identical to it.

#include "tensor/dispatch/matmul_impl.h"

namespace umgad {
namespace dispatch {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

namespace {

#define UMGAD_MICRO_TARGET_ATTR __attribute__((target("avx2")))
#include "tensor/dispatch/matmul_micro.inc"
#undef UMGAD_MICRO_TARGET_ATTR

constexpr MicroKernels kAvx2MicroKernels = {"blocked_avx2", MicroKernel};

}  // namespace

const MicroKernels* Avx2MicroKernels() { return &kAvx2MicroKernels; }

#else  // non-x86-64 or non-GNU compiler

const MicroKernels* Avx2MicroKernels() { return nullptr; }

#endif

}  // namespace dispatch
}  // namespace umgad
