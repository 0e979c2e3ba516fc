#include <cmath>

#include "baselines/common.h"
#include "nn/gcn.h"
#include "nn/linear.h"

namespace umgad {
namespace baselines {
namespace {

/// GAD-NR (Roy et al., WSDM'24): graph anomaly detection via neighborhood
/// reconstruction. From a node's embedding the model reconstructs its
/// entire neighbourhood: its own attributes, its (log) degree, and the
/// mean of its neighbours' attributes. Anomalies fail one or more of the
/// three reconstructions.
class GadNr : public BaselineBase {
 public:
  explicit GadNr(uint64_t seed) : BaselineBase("GAD-NR", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    // Targets.
    Tensor log_degree(view.n, 1);
    for (int i = 0; i < view.n; ++i) {
      log_degree.at(i, 0) =
          static_cast<float>(std::log1p(view.adj.RowNnz(i)));
    }
    Tensor nbr_mean = NeighborMean(view, x);

    nn::SgcConv enc(view.f, kBaselineHidden, 1, nn::Activation::kRelu, &rng_);
    nn::Linear self_dec(kBaselineHidden, view.f, &rng_);
    nn::Linear degree_dec(kBaselineHidden, 1, &rng_);
    nn::Linear nbr_dec(kBaselineHidden, view.f, &rng_);

    ag::VarPtr self_recon;
    ag::VarPtr degree_recon;
    ag::VarPtr nbr_recon;
    Train(ParametersOf({&enc, &self_dec, &degree_dec, &nbr_dec}),
          kBaselineEpochs, [&] {
            ag::VarPtr h = enc.Forward(view.norm, ag::Constant(x));
            self_recon = ag::Retain(self_dec.Forward(h));
            degree_recon = ag::Retain(degree_dec.Forward(h));
            nbr_recon = ag::Retain(nbr_dec.Forward(h));
            return ag::AddN({ag::MseLoss(self_recon, x),
                             ag::MseLoss(degree_recon, log_degree),
                             ag::MseLoss(nbr_recon, nbr_mean)});
          });

    std::vector<double> self_err = RowL2(self_recon->value(), x);
    std::vector<double> degree_err = RowL2(degree_recon->value(), log_degree);
    std::vector<double> nbr_err = RowL2(nbr_recon->value(), nbr_mean);
    scores_ = CombineStandardized({self_err, degree_err, nbr_err},
                                  {0.4, 0.2, 0.4});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeGadNr(uint64_t seed) {
  return std::make_unique<GadNr>(seed);
}

}  // namespace baselines
}  // namespace umgad
