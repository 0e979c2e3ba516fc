#ifndef UMGAD_TENSOR_DISPATCH_REGISTRY_H_
#define UMGAD_TENSOR_DISPATCH_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "tensor/dispatch/cpu_features.h"

namespace umgad {

class Tensor;
class SparseMatrix;

namespace dispatch {

/// Dispatchable kernel operations. Each op holds one or more named variants;
/// the registry resolves the active variant at first use (highest priority
/// whose required CPU features are available), overridable per-op or globally
/// via UMGAD_KERNEL / KernelRegistry::SetOverride.
enum class KernelOp : int {
  kMatMul = 0,
  kMatMulTransB,
  kSpmm,
};
constexpr int kNumKernelOps = 3;

/// Typed signatures per op. Variants are stored type-erased; the accessors
/// below cast back. All variants of one op must be bit-identical for any
/// thread count / arena setting — the registry is a performance dial, never
/// a semantics dial.
using MatMulFn = Tensor (*)(const Tensor&, const Tensor&);
using SpmmFn = Tensor (*)(const SparseMatrix&, const Tensor&);

using KernelFn = void (*)();

struct KernelVariant {
  std::string name;
  /// Higher wins among variants whose required_features are all available.
  int priority = 0;
  /// CpuFeature mask this variant needs (0 = runs anywhere).
  unsigned required_features = 0;
  KernelFn fn = nullptr;
};

/// Resolved selection for one op, for reporting (inspect --kernels).
struct KernelSelection {
  KernelOp op;
  std::string variant;   // active variant name
  /// True if the active variant was pinned by UMGAD_KERNEL / SetOverride
  /// *and* the pin took effect. A pin whose CPU features are unavailable
  /// reports fell_back instead (the two are mutually exclusive).
  bool overridden;
  bool fell_back;        // true if an override was unusable on this CPU
  std::vector<KernelVariant> variants;  // all registered, priority-descending
};

/// Process-wide kernel registry. Thread-safe; resolution results are cached
/// per op and invalidated by SetOverride / feature-mask changes.
class KernelRegistry {
 public:
  /// The global registry. First call registers the builtin variants and
  /// applies the UMGAD_KERNEL env override (warn-only if invalid).
  static KernelRegistry* Global();

  /// Registers a variant. Duplicate (op, name) is a fatal error.
  void Register(KernelOp op, KernelVariant variant);

  /// Pins variants by name. `spec` is either a bare variant name, applied to
  /// every op that has it, or a comma-separated `op=name` list with op names
  /// matmul, matmul_transb, spmm.
  /// Unknown op or variant name → InvalidArgument, no state change. A known
  /// variant whose CPU features are unavailable is accepted; resolution
  /// falls back gracefully (with a warning) at first use.
  Status SetOverride(const std::string& spec);

  /// Clears all overrides (back to priority selection).
  void ClearOverrides();

  /// Resolves the active variant function for `op`.
  KernelFn Resolve(KernelOp op);

  /// Reporting snapshot for every op.
  std::vector<KernelSelection> Selections();

  /// Typed resolution helpers.
  MatMulFn matmul() { return reinterpret_cast<MatMulFn>(Resolve(KernelOp::kMatMul)); }
  MatMulFn matmul_trans_b() {
    return reinterpret_cast<MatMulFn>(Resolve(KernelOp::kMatMulTransB));
  }
  SpmmFn spmm() { return reinterpret_cast<SpmmFn>(Resolve(KernelOp::kSpmm)); }

  /// Invalidates cached selections (after a feature-mask change).
  void InvalidateCache();

 private:
  KernelRegistry() = default;

  struct OpState {
    std::vector<KernelVariant> variants;  // insertion order
    std::string override_name;            // empty = no override
    bool fell_back = false;               // last resolution ignored override
    std::atomic<KernelFn> cached{nullptr};
  };

  KernelFn ResolveLocked(OpState& st);

  std::mutex mu_;
  OpState ops_[kNumKernelOps];
};

/// Display name of an op ("matmul", "matmul_transb", "spmm").
const char* KernelOpName(KernelOp op);

/// Test hook: masks CPU features off (as if the CPU lacked them) and
/// invalidates the registry's cached selections. Pass 0 to restore.
void SetDisabledCpuFeaturesForTest(unsigned mask);

}  // namespace dispatch
}  // namespace umgad

#endif  // UMGAD_TENSOR_DISPATCH_REGISTRY_H_
