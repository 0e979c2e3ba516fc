#ifndef UMGAD_TENSOR_DISPATCH_REGISTRY_H_
#define UMGAD_TENSOR_DISPATCH_REGISTRY_H_

#include <string>
#include <vector>

#include "tensor/dispatch/cpu_features.h"

namespace umgad {
namespace dispatch {

/// The products a UMGAD epoch is made of. Each runs exactly one kernel:
/// MatMul and MatMulTransB the blocked register-tiled core
/// (blocked_matmul.cc), SparseMatrix::Multiply the row-parallel CSR sweep
/// (sparse.cc). The only choice left is the dense micro-kernel ISA tier,
/// made from cpuid (ActiveMicroKernels in matmul_impl.h).
enum class KernelOp : int {
  kMatMul = 0,
  kMatMulTransB,
  kSpmm,
};
constexpr int kNumKernelOps = 3;

/// The kernel one op runs, for reporting (inspect --kernels, serve
/// --metrics, benchmark provenance).
struct KernelSelection {
  KernelOp op;
  std::string variant;  // "blocked_avx2" or "blocked"
};

/// Reporting surface for the kernels this host runs. It holds no state:
/// every selection follows from EffectiveCpuFeatures().
class KernelRegistry {
 public:
  static KernelRegistry* Global();

  /// One selection per op, in KernelOp order.
  std::vector<KernelSelection> Selections() const;
};

/// Display name of an op ("matmul", "matmul_transb", "spmm").
const char* KernelOpName(KernelOp op);

}  // namespace dispatch
}  // namespace umgad

#endif  // UMGAD_TENSOR_DISPATCH_REGISTRY_H_
