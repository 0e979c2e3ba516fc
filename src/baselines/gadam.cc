#include "baselines/common.h"
#include "nn/gcn.h"

namespace umgad {
namespace baselines {
namespace {

/// GADAM (Chen et al., ICLR'24): adaptive message passing driven by local
/// inconsistency mining (LIM). The LIM score — a node's disagreement with
/// its neighbourhood — gates how much aggregation each node receives, so
/// anomalies stop smoothing themselves into their neighbourhood; a global
/// branch then measures each (gated) embedding's agreement with the
/// dataset-level context. Scores combine the local and global signals.
class Gadam : public BaselineBase {
 public:
  explicit Gadam(uint64_t seed) : BaselineBase("GADAM", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    // Local inconsistency mining on raw attributes.
    std::vector<double> lim = RowCosineDistance(x, NeighborMean(view, x));

    // Adaptive messaging: nodes with high LIM keep their own features
    // (gate -> 0), consistent nodes aggregate fully (gate -> 1).
    std::vector<double> lim_01 = lim;
    const auto [mn, mx] = std::minmax_element(lim_01.begin(), lim_01.end());
    const double range = std::max(1e-12, *mx - *mn);
    Tensor gated(view.n, view.f);
    Tensor nbr = NeighborMean(view, x);
    for (int i = 0; i < view.n; ++i) {
      const float gate = static_cast<float>(1.0 - (lim[i] - *mn) / range);
      for (int d = 0; d < view.f; ++d) {
        gated.at(i, d) = gate * nbr.at(i, d) + (1.0f - gate) * x.at(i, d);
      }
    }

    // Global branch: train a GCN so gated embeddings agree with the global
    // context; anomalies end up with low agreement.
    nn::SgcConv enc(view.f, kBaselineHidden, 1, nn::Activation::kNone, &rng_);
    std::vector<int> shuffle = rng_.Permutation(view.n);
    Tensor x_corrupt = GatherRows(gated, shuffle);

    Train(enc.Parameters(), kBaselineEpochs, [&] {
      ag::VarPtr h = enc.Forward(view.norm, ag::Constant(gated));
      ag::VarPtr h_bad = enc.Forward(view.norm, ag::Constant(x_corrupt));
      return GlobalContextBce(h, h_bad);
    });

    Tensor h = enc.Forward(view.norm, ag::Constant(gated))->value();
    Tensor ctx_rows(view.n, kBaselineHidden);
    for (int j = 0; j < kBaselineHidden; ++j) {
      double acc = 0.0;
      for (int i = 0; i < view.n; ++i) acc += h.at(i, j);
      const float mean = static_cast<float>(acc / view.n);
      for (int i = 0; i < view.n; ++i) ctx_rows.at(i, j) = mean;
    }
    std::vector<double> agreement = RowDotSigmoid(h, ctx_rows);
    std::vector<double> global(view.n);
    for (int i = 0; i < view.n; ++i) global[i] = 1.0 - agreement[i];

    scores_ = CombineStandardized({lim, global}, {0.5, 0.5});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeGadam(uint64_t seed) {
  return std::make_unique<Gadam>(seed);
}

}  // namespace baselines
}  // namespace umgad
