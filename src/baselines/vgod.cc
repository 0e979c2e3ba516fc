#include "baselines/common.h"
#include "nn/linear.h"

namespace umgad {
namespace baselines {
namespace {

/// VGOD (Huang et al., ICDE'23): variance-based graph outlier detection.
/// Structural outliers are nodes whose neighbourhood embeddings have
/// abnormal variance (they sit between communities); attribute outliers
/// are caught by a lightweight attribute autoencoder. The two detectors
/// are normalised and summed — the paper's "balanced" combination.
class Vgod : public BaselineBase {
 public:
  explicit Vgod(uint64_t seed) : BaselineBase("VGOD", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    // Variance branch: per-node variance of neighbour attributes around
    // their mean, plus the node's deviation from that mean.
    Tensor mean = NeighborMean(view, x);
    std::vector<double> variance(view.n, 0.0);
    const auto& rp = view.adj.row_ptr();
    const auto& ci = view.adj.col_idx();
    for (int i = 0; i < view.n; ++i) {
      const int degree = view.adj.RowNnz(i);
      if (degree == 0) continue;
      double acc = 0.0;
      for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
        const int j = ci[k];
        for (int d = 0; d < view.f; ++d) {
          const double diff = x.at(j, d) - mean.at(i, d);
          acc += diff * diff;
        }
      }
      variance[i] = acc / degree;
    }
    std::vector<double> deviation = RowL2(x, mean);

    // Attribute reconstruction branch: linear autoencoder.
    // A genuine bottleneck, or the AE learns the identity map.
    const int bottleneck = std::max(2, view.f / 4);
    nn::Linear enc(view.f, bottleneck, &rng_);
    nn::Linear dec(bottleneck, view.f, &rng_);
    ag::VarPtr recon;
    Train(ParametersOf({&enc, &dec}), kBaselineEpochs, [&] {
      recon = ag::Retain(dec.Forward(ag::Relu(enc.Forward(ag::Constant(x)))));
      return ag::MseLoss(recon, x);
    });
    std::vector<double> attr_err = RowL2(recon->value(), x);

    scores_ = CombineStandardized({variance, deviation, attr_err},
                                  {0.35, 0.35, 0.3});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeVgod(uint64_t seed) {
  return std::make_unique<Vgod>(seed);
}

}  // namespace baselines
}  // namespace umgad
