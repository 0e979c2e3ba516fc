#include "baselines/common.h"
#include "core/scorer.h"
#include "nn/gcn.h"
#include "tensor/init.h"

namespace umgad {
namespace baselines {
namespace {

/// AnomMAN (Chen et al., Information Sciences'23): anomaly detection on
/// multi-view attributed networks. One GCN autoencoder per relation
/// (view); an attention mechanism (learnable simplex weights here) fuses
/// the per-view reconstructions; scores combine the fused attribute
/// residual with the per-view structure residuals. The strongest
/// multiplex-aware baseline besides DualGAD — but it has no masking,
/// no augmented views, and no contrastive refinement.
class AnomMan : public BaselineBase {
 public:
  explicit AnomMan(uint64_t seed) : BaselineBase("AnomMAN", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    const Tensor& x = graph.attributes();
    const int n = graph.num_nodes();
    const int f = graph.feature_dim();
    const int r_count = graph.num_relations();

    const std::vector<std::shared_ptr<const SparseMatrix>> norms =
        RelationOperators(graph);

    std::vector<std::unique_ptr<nn::SgcConv>> encoders;
    std::vector<std::unique_ptr<nn::SgcConv>> decoders;
    std::vector<ag::VarPtr> params;
    for (int r = 0; r < r_count; ++r) {
      encoders.push_back(std::make_unique<nn::SgcConv>(
          f, kBaselineHidden, 1, nn::Activation::kRelu, &rng_));
      decoders.push_back(std::make_unique<nn::SgcConv>(
          kBaselineHidden, f, 1, nn::Activation::kNone, &rng_));
      for (auto& p : encoders.back()->Parameters()) params.push_back(p);
      for (auto& p : decoders.back()->Parameters()) params.push_back(p);
    }
    ag::VarPtr attn_logits = ag::Leaf(RandomNormal(1, r_count, 0.0, 0.1,
                                                   &rng_));
    params.push_back(attn_logits);

    ag::VarPtr fused;
    std::vector<ag::VarPtr> embeddings(r_count);
    Train(std::move(params), kBaselineEpochs, [&] {
      std::vector<ag::VarPtr> recons;
      for (int r = 0; r < r_count; ++r) {
        embeddings[r] =
            ag::Retain(encoders[r]->Forward(norms[r], ag::Constant(x)));
        recons.push_back(decoders[r]->Forward(norms[r], embeddings[r]));
      }
      fused = ag::Retain(ag::SimplexWeightedSum(recons, attn_logits));
      return ag::MseLoss(fused, x);
    });

    std::vector<double> attr_err = RowL2(fused->value(), x);
    std::vector<double> struct_err(n, 0.0);
    for (int r = 0; r < r_count; ++r) {
      std::vector<double> res = StructureResidual(
          graph.layer(r), embeddings[r]->value(), 16, rng_.NextU64(),
          /*degree_normalized=*/false);
      for (int i = 0; i < n; ++i) struct_err[i] += res[i] / r_count;
    }
    scores_ = CombineStandardized({attr_err, struct_err}, {0.7, 0.3});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeAnomMan(uint64_t seed) {
  return std::make_unique<AnomMan>(seed);
}

}  // namespace baselines
}  // namespace umgad
