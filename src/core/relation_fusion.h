#ifndef UMGAD_CORE_RELATION_FUSION_H_
#define UMGAD_CORE_RELATION_FUSION_H_

#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace umgad {

/// Learnable per-relation fusion weights (the a_r of Eq. 3 and b_r of
/// Eq. 8). Logits are initialised from a normal distribution ("initially
/// randomized using a normal distribution") and pushed through a softmax so
/// fused weights stay positive and sum to one; with `learnable == false`
/// (the uniform-fusion ablation) the weights are frozen at 1/R.
class RelationFusion : public nn::Module {
 public:
  RelationFusion(int num_relations, bool learnable, Rng* rng);

  /// Fuse R same-shape matrices (Eq. 3 / Eq. 12).
  ag::VarPtr FuseTensors(const std::vector<ag::VarPtr>& xs) const;

  /// Fuse R scalar losses (Eq. 8). Identical math — scalars are 1x1.
  ag::VarPtr FuseLosses(const std::vector<ag::VarPtr>& losses) const;

  /// Current softmaxed weights (diagnostics; Table IV discussion).
  std::vector<double> Weights() const;

  /// Raw fusion logits (1 x R). The serve engine passes these to
  /// ag::SimplexWeights, the weights ag::SimplexWeightedSum applies, so a
  /// fused row recomputed per-node matches the batch kernel bit-for-bit
  /// (Weights() above is the double-precision diagnostic, not that recipe).
  const Tensor& logits_value() const { return logits_->value(); }

 private:
  int num_relations_;
  bool learnable_;
  ag::VarPtr logits_;  // 1 x R
};

}  // namespace umgad

#endif  // UMGAD_CORE_RELATION_FUSION_H_
