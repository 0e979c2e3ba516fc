#include <algorithm>

#include "baselines/common.h"
#include "core/scorer.h"
#include "nn/gcn.h"

namespace umgad {
namespace baselines {
namespace {

/// ADA-GAD (He et al., AAAI'24): anomaly-denoised autoencoders. Stage one
/// trains a quick autoencoder to produce preliminary anomaly scores and
/// builds a *denoised* graph by dropping the edges incident to the most
/// suspicious nodes; stage two trains the main autoencoder on the denoised
/// graph (so anomalies cannot contaminate the learned normality) and
/// scores nodes on the original graph.
class AdaGad : public BaselineBase {
 public:
  explicit AdaGad(uint64_t seed) : BaselineBase("ADA-GAD", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    // --- Stage 1: preliminary scores from a short-trained GAE. ---
    std::vector<double> prelim =
        AutoencoderResidual(view.norm, x, kBaselineEpochs / 3);

    // --- Denoise: drop edges touching the top-5% suspicious nodes. ---
    std::vector<int> order = AllNodes(view.n);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return prelim[a] > prelim[b]; });
    const int suspicious_count = std::max(1, view.n / 20);
    std::vector<int> suspicious(order.begin(),
                                order.begin() + suspicious_count);
    EdgeMask denoised = RemoveIncidentEdges(view.adj, suspicious);
    auto denoised_norm = std::make_shared<const SparseMatrix>(
        denoised.remaining.NormalizedWithSelfLoops());

    // --- Stage 2: train on the denoised graph, score on the original. ---
    nn::SgcConv enc(view.f, kBaselineHidden, 1, nn::Activation::kRelu, &rng_);
    nn::SgcConv dec(kBaselineHidden, view.f, 1, nn::Activation::kNone,
                    &rng_);
    Train(ParametersOf({&enc, &dec}), kBaselineEpochs, [&] {
      ag::VarPtr recon = dec.Forward(
          denoised_norm, enc.Forward(denoised_norm, ag::Constant(x)));
      return ag::MseLoss(recon, x);
    });
    // Scoring pass over the *original* graph.
    ag::VarPtr h = enc.Forward(view.norm, ag::Constant(x));
    ag::VarPtr recon = dec.Forward(view.norm, h);
    std::vector<double> attr_err = RowL2(recon->value(), x);
    std::vector<double> struct_err =
        StructureResidual(view.adj, h->value(), 16, rng_.NextU64(), false);
    scores_ = CombineStandardized({attr_err, struct_err}, {0.7, 0.3});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeAdaGad(uint64_t seed) {
  return std::make_unique<AdaGad>(seed);
}

}  // namespace baselines
}  // namespace umgad
