#include "baselines/common.h"

namespace umgad {
namespace baselines {
namespace {

/// GCNAE (Kipf & Welling's GAE applied to anomaly detection, SDM'19
/// usage): a GCN encoder with a GCN decoder trained to reconstruct node
/// attributes; the anomaly score is the attribute reconstruction residual.
/// The weakest GAE baseline by construction — no structure branch.
class Gcnae : public BaselineBase {
 public:
  explicit Gcnae(uint64_t seed) : BaselineBase("GCNAE", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    scores_ = AutoencoderResidual(view.norm, graph.attributes(),
                                  kBaselineEpochs);
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeGcnae(uint64_t seed) {
  return std::make_unique<Gcnae>(seed);
}

}  // namespace baselines
}  // namespace umgad
