#ifndef UMGAD_TENSOR_DISPATCH_BUILTIN_KERNELS_H_
#define UMGAD_TENSOR_DISPATCH_BUILTIN_KERNELS_H_

namespace umgad {
namespace dispatch {

class KernelRegistry;

/// Registration entry points for the builtin kernel variants. Called exactly
/// once from KernelRegistry::Global()'s init — explicit calls rather than
/// self-registering globals because static-library link drops unreferenced
/// translation units (and their registrars) silently.
void RegisterBuiltinMatMul(KernelRegistry* r);  // matmul_variants.cc
void RegisterBuiltinSpmm(KernelRegistry* r);    // spmm_variants.cc
void RegisterAvx2Kernels(KernelRegistry* r);    // simd_avx2.cc

}  // namespace dispatch
}  // namespace umgad

#endif  // UMGAD_TENSOR_DISPATCH_BUILTIN_KERNELS_H_
