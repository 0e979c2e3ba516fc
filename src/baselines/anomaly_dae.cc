#include "baselines/common.h"
#include "core/scorer.h"
#include "nn/gcn.h"
#include "nn/linear.h"

namespace umgad {
namespace baselines {
namespace {

/// AnomalyDAE (Fan et al., ICASSP'20): dual autoencoders. The structure AE
/// embeds nodes with a GCN (Z_V) and reconstructs edges by inner product;
/// the attribute decoder reconstructs attributes from the same node
/// embedding, X~ = Z_V Z_A^T, with the attribute embedding Z_A (f x d)
/// learned as the decoder's weight. Decoding from Z_V is what lets the
/// attribute residual flag a node whose attributes disagree with its
/// neighbourhood. Both residuals are combined with the paper's fixed
/// balance weight.
class AnomalyDae : public BaselineBase {
 public:
  explicit AnomalyDae(uint64_t seed) : BaselineBase("AnomalyDAE", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    nn::SgcConv struct_enc(view.f, kBaselineHidden, 1, nn::Activation::kRelu,
                           &rng_);
    nn::Linear attr_dec(kBaselineHidden, view.f, &rng_);
    const std::vector<Edge> edges = UndirectedEdges(view.adj);

    ag::VarPtr h;
    ag::VarPtr recon;
    Train(ParametersOf({&struct_enc, &attr_dec}), kBaselineEpochs, [&] {
      h = ag::Retain(struct_enc.Forward(view.norm, ag::Constant(x)));
      recon = ag::Retain(attr_dec.Forward(h));
      return ag::Add(SampledEdgeBce(h, edges, &rng_), ag::MseLoss(recon, x));
    });

    std::vector<double> struct_err =
        StructureResidual(view.adj, h->value(), 16, rng_.NextU64(), false);
    std::vector<double> attr_err = RowL2(recon->value(), x);
    // The paper's alpha leans on the attribute residual; the raw
    // structure residual is hub-biased and only supplements it.
    scores_ = CombineStandardized({struct_err, attr_err}, {0.3, 0.7});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeAnomalyDae(uint64_t seed) {
  return std::make_unique<AnomalyDae>(seed);
}

}  // namespace baselines
}  // namespace umgad
