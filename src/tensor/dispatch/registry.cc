#include "tensor/dispatch/registry.h"

#include "tensor/dispatch/matmul_impl.h"

namespace umgad {
namespace dispatch {
namespace {

constexpr const char* kOpNames[kNumKernelOps] = {"matmul", "matmul_transb",
                                                  "spmm"};

}  // namespace

const char* KernelOpName(KernelOp op) {
  return kOpNames[static_cast<int>(op)];
}

KernelRegistry* KernelRegistry::Global() {
  static KernelRegistry registry;
  return &registry;
}

std::vector<KernelSelection> KernelRegistry::Selections() const {
  const std::string dense = ActiveMicroKernels().name;
  return {{KernelOp::kMatMul, dense},
          {KernelOp::kMatMulTransB, dense},
          {KernelOp::kSpmm, "blocked"}};
}

}  // namespace dispatch
}  // namespace umgad
