// AVX2-tier kernel variants, compiled with a function-level target attribute
// so the baseline build stays portable while capable hosts get 256-bit
// vectors at runtime.
//
// The target attribute deliberately enables avx2 but NOT fma: without an
// FMA ISA the compiler cannot contract the multiply-add chains, so this
// tier rounds exactly like the baseline tier and stays bit-identical to it.

#include "tensor/dispatch/builtin_kernels.h"
#include "tensor/dispatch/matmul_impl.h"
#include "tensor/dispatch/registry.h"
#include "tensor/tensor.h"

namespace umgad {
namespace dispatch {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

namespace {

#define UMGAD_MICRO_TARGET_ATTR __attribute__((target("avx2")))
#include "tensor/dispatch/matmul_micro.inc"
#undef UMGAD_MICRO_TARGET_ATTR

Tensor MatMulBlockedAvx2(const Tensor& a, const Tensor& b) {
  return BlockedMatMul(a, b, MicroKernel8, MicroKernel1);
}

Tensor MatMulTransBBlockedAvx2(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.cols(), b.cols());
  return BlockedMatMul(a, Transpose(b), MicroKernel8, MicroKernel1);
}

}  // namespace

void RegisterAvx2Kernels(KernelRegistry* r) {
  r->Register(KernelOp::kMatMul,
              {"blocked_avx2", /*priority=*/20, kFeatAvx2,
               reinterpret_cast<KernelFn>(&MatMulBlockedAvx2)});
  r->Register(KernelOp::kMatMulTransB,
              {"blocked_avx2", /*priority=*/20, kFeatAvx2,
               reinterpret_cast<KernelFn>(&MatMulTransBBlockedAvx2)});
}

#else  // non-x86-64 or non-GNU compiler

void RegisterAvx2Kernels(KernelRegistry*) {}

#endif

}  // namespace dispatch
}  // namespace umgad
