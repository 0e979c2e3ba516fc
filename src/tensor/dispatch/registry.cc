#include "tensor/dispatch/registry.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/check.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "tensor/dispatch/builtin_kernels.h"

namespace umgad {
namespace dispatch {
namespace {

constexpr const char* kOpNames[kNumKernelOps] = {"matmul", "matmul_transb",
                                                  "spmm"};

int OpIndexByName(const std::string& name) {
  for (int i = 0; i < kNumKernelOps; ++i) {
    if (name == kOpNames[i]) return i;
  }
  return -1;
}

}  // namespace

const char* KernelOpName(KernelOp op) {
  return kOpNames[static_cast<int>(op)];
}

KernelRegistry* KernelRegistry::Global() {
  static KernelRegistry* registry = [] {
    KernelRegistry* r = new KernelRegistry();
    RegisterBuiltinMatMul(r);
    RegisterBuiltinSpmm(r);
    RegisterAvx2Kernels(r);
    if (const char* env = std::getenv("UMGAD_KERNEL")) {
      Status s = r->SetOverride(env);
      if (!s.ok()) {
        UMGAD_LOG(Warning) << "UMGAD_KERNEL ignored: " << s.ToString();
      }
    }
    return r;
  }();
  return registry;
}

void KernelRegistry::Register(KernelOp op, KernelVariant variant) {
  std::lock_guard<std::mutex> lock(mu_);
  OpState& st = ops_[static_cast<int>(op)];
  for (const KernelVariant& v : st.variants) {
    UMGAD_CHECK_MSG(v.name != variant.name,
                    "duplicate kernel variant registration");
  }
  st.variants.push_back(std::move(variant));
  st.cached.store(nullptr, std::memory_order_release);
}

Status KernelRegistry::SetOverride(const std::string& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  // Parse and validate fully before mutating anything.
  struct Pin {
    int op;
    std::string name;
  };
  std::vector<Pin> pins;
  if (spec.find('=') == std::string::npos) {
    // Bare variant name: applies to every op that has a variant of that name.
    bool found = false;
    for (int i = 0; i < kNumKernelOps; ++i) {
      for (const KernelVariant& v : ops_[i].variants) {
        if (v.name == spec) {
          pins.push_back({i, spec});
          found = true;
          break;
        }
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          StrFormat("no kernel variant named \"%s\"", spec.c_str()));
    }
  } else {
    std::stringstream in(spec);
    std::string item;
    while (std::getline(in, item, ',')) {
      if (item.empty()) continue;
      const size_t eq = item.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument(
            StrFormat("bad kernel override term \"%s\" (want op=name)",
                      item.c_str()));
      }
      const std::string op_name = item.substr(0, eq);
      const std::string var_name = item.substr(eq + 1);
      const int op = OpIndexByName(op_name);
      if (op < 0) {
        return Status::InvalidArgument(
            StrFormat("unknown kernel op \"%s\"", op_name.c_str()));
      }
      bool found = false;
      for (const KernelVariant& v : ops_[op].variants) {
        if (v.name == var_name) {
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument(
            StrFormat("op \"%s\" has no variant named \"%s\"", op_name.c_str(),
                      var_name.c_str()));
      }
      pins.push_back({op, var_name});
    }
  }
  for (const Pin& p : pins) {
    ops_[p.op].override_name = p.name;
    ops_[p.op].fell_back = false;
    ops_[p.op].cached.store(nullptr, std::memory_order_release);
  }
  return Status::OK();
}

void KernelRegistry::ClearOverrides() {
  std::lock_guard<std::mutex> lock(mu_);
  for (OpState& st : ops_) {
    st.override_name.clear();
    st.fell_back = false;
    st.cached.store(nullptr, std::memory_order_release);
  }
}

void KernelRegistry::InvalidateCache() {
  std::lock_guard<std::mutex> lock(mu_);
  for (OpState& st : ops_) {
    st.cached.store(nullptr, std::memory_order_release);
  }
}

KernelFn KernelRegistry::ResolveLocked(OpState& st) {
  const unsigned features = EffectiveCpuFeatures();
  st.fell_back = false;
  if (!st.override_name.empty()) {
    for (const KernelVariant& v : st.variants) {
      if (v.name != st.override_name) continue;
      if ((v.required_features & ~features) == 0) return v.fn;
      UMGAD_LOG(Warning) << "kernel override \"" << v.name
                         << "\" needs CPU features ["
                         << CpuFeatureListString(v.required_features)
                         << "] unavailable on this host; falling back";
      st.fell_back = true;
      break;
    }
  }
  const KernelVariant* best = nullptr;
  for (const KernelVariant& v : st.variants) {
    if ((v.required_features & ~features) != 0) continue;
    if (best == nullptr || v.priority > best->priority) best = &v;
  }
  UMGAD_CHECK_MSG(best != nullptr, "no eligible kernel variant");
  return best->fn;
}

KernelFn KernelRegistry::Resolve(KernelOp op) {
  OpState& st = ops_[static_cast<int>(op)];
  KernelFn fn = st.cached.load(std::memory_order_acquire);
  if (fn != nullptr) return fn;
  std::lock_guard<std::mutex> lock(mu_);
  fn = st.cached.load(std::memory_order_acquire);
  if (fn != nullptr) return fn;
  fn = ResolveLocked(st);
  st.cached.store(fn, std::memory_order_release);
  return fn;
}

std::vector<KernelSelection> KernelRegistry::Selections() {
  std::vector<KernelSelection> out;
  for (int i = 0; i < kNumKernelOps; ++i) {
    // Resolve outside the lock so fell_back is up to date.
    Resolve(static_cast<KernelOp>(i));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < kNumKernelOps; ++i) {
    OpState& st = ops_[i];
    KernelSelection sel;
    sel.op = static_cast<KernelOp>(i);
    sel.overridden = !st.override_name.empty() && !st.fell_back;
    sel.fell_back = st.fell_back;
    const KernelFn active = st.cached.load(std::memory_order_acquire);
    sel.variants = st.variants;
    std::sort(sel.variants.begin(), sel.variants.end(),
              [](const KernelVariant& a, const KernelVariant& b) {
                return a.priority > b.priority;
              });
    for (const KernelVariant& v : sel.variants) {
      if (v.fn == active) {
        sel.variant = v.name;
        break;
      }
    }
    out.push_back(std::move(sel));
  }
  return out;
}

void SetDisabledCpuFeaturesForTest(unsigned mask) {
  internal::SetDisabledCpuFeatures(mask);
  KernelRegistry::Global()->InvalidateCache();
}

}  // namespace dispatch
}  // namespace umgad
