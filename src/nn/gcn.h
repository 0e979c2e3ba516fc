#ifndef UMGAD_NN_GCN_H_
#define UMGAD_NN_GCN_H_

#include <memory>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace umgad {
namespace nn {

enum class Activation { kNone, kRelu, kLeakyRelu, kElu, kTanh };

/// Apply an activation from the enum (identity for kNone).
ag::VarPtr Activate(const ag::VarPtr& x, Activation act);

/// Simplified GCN (SGC): L propagation steps with a single linear map,
/// y = act(Â^L (x W) + b), where Â is the symmetric normalised adjacency
/// with self loops (passed per Forward call so one set of weights can run
/// over many perturbed/masked adjacencies, as the GMAE masking repeats
/// require). The paper's decoder (and the "simplified GCN" half of its
/// encoder choices); with one hop it is a plain GCN layer, the baselines'
/// encoder.
class SgcConv : public Module {
 public:
  SgcConv(int in_dim, int out_dim, int hops, Activation act, Rng* rng);

  /// Only the returned node keeps its value: the MatMul and Spmm values
  /// before it are dropped while the forward is built.
  ag::VarPtr Forward(std::shared_ptr<const SparseMatrix> norm_adj,
                     const ag::VarPtr& x) const;

  // Weight/shape access for the serve-layer per-row forward engine.
  const Tensor& weight_value() const { return weight_->value(); }
  const Tensor& bias_value() const { return bias_->value(); }
  int hops() const { return hops_; }
  Activation activation() const { return act_; }

 private:
  int hops_;
  Activation act_;
  ag::VarPtr weight_;
  ag::VarPtr bias_;
};

}  // namespace nn
}  // namespace umgad

#endif  // UMGAD_NN_GCN_H_
