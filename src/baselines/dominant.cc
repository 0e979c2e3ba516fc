#include "baselines/common.h"
#include "core/scorer.h"
#include "nn/gcn.h"

namespace umgad {
namespace baselines {
namespace {

/// DOMINANT (Ding et al., SDM'19): deep anomaly detection on attributed
/// networks. A shared GCN encoder feeds two decoders — an attribute
/// decoder (GCN back to feature space) and a structure decoder (inner
/// product over embeddings, trained with sampled edge BCE). The score is
/// the paper's alpha-weighted sum of both residuals.
class Dominant : public BaselineBase {
 public:
  explicit Dominant(uint64_t seed) : BaselineBase("DOMINANT", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    nn::SgcConv enc(view.f, kBaselineHidden, 1, nn::Activation::kRelu, &rng_);
    nn::SgcConv dec(kBaselineHidden, view.f, 1, nn::Activation::kNone,
                    &rng_);
    const std::vector<Edge> edges = UndirectedEdges(view.adj);

    ag::VarPtr h;
    ag::VarPtr recon;
    Train(ParametersOf({&enc, &dec}), kBaselineEpochs, [&] {
      h = ag::Retain(enc.Forward(view.norm, ag::Constant(x)));
      recon = ag::Retain(dec.Forward(view.norm, h));
      ag::VarPtr struct_loss = SampledEdgeBce(h, edges, &rng_);
      return ag::Add(ag::ScalarMul(ag::MseLoss(recon, x), 0.8f),
                     ag::ScalarMul(struct_loss, 0.2f));
    });

    std::vector<double> attr_err = RowL2(recon->value(), x);
    std::vector<double> struct_err =
        StructureResidual(view.adj, h->value(), 16, rng_.NextU64(), false);
    scores_ = CombineStandardized({attr_err, struct_err}, {0.8, 0.2});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeDominant(uint64_t seed) {
  return std::make_unique<Dominant>(seed);
}

}  // namespace baselines
}  // namespace umgad
