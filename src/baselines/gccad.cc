#include "baselines/common.h"
#include "nn/gcn.h"

namespace umgad {
namespace baselines {
namespace {

/// GCCAD (Chen et al., TKDE'22): graph contrastive coding. Normal nodes
/// (the majority) should embed close to a global context vector; nodes of
/// a corrupted graph (shuffled attributes) should embed far from it. The
/// anomaly score is the node's distance-to-global-context after training.
class Gccad : public BaselineBase {
 public:
  explicit Gccad(uint64_t seed) : BaselineBase("GCCAD", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    // Corruption: row-shuffled attributes (fixed per fit).
    std::vector<int> perm = rng_.Permutation(view.n);
    Tensor x_corrupt = GatherRows(x, perm);

    nn::SgcConv enc(view.f, kBaselineHidden, 1, nn::Activation::kNone, &rng_);
    Train(enc.Parameters(), kBaselineEpochs, [&] {
      ag::VarPtr h = enc.Forward(view.norm, ag::Constant(x));
      ag::VarPtr h_bad = enc.Forward(view.norm, ag::Constant(x_corrupt));
      return GlobalContextBce(h, h_bad);
    });

    Tensor h = enc.Forward(view.norm, ag::Constant(x))->value();
    Tensor context(1, kBaselineHidden);
    for (int i = 0; i < view.n; ++i) {
      for (int j = 0; j < kBaselineHidden; ++j) {
        context.at(0, j) += h.at(i, j) / static_cast<float>(view.n);
      }
    }
    Tensor context_rows(view.n, kBaselineHidden);
    for (int i = 0; i < view.n; ++i) {
      std::copy(context.row(0), context.row(0) + kBaselineHidden,
                context_rows.row(i));
    }
    std::vector<double> agreement = RowDotSigmoid(h, context_rows);
    scores_.assign(view.n, 0.0);
    for (int i = 0; i < view.n; ++i) scores_[i] = 1.0 - agreement[i];
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeGccad(uint64_t seed) {
  return std::make_unique<Gccad>(seed);
}

}  // namespace baselines
}  // namespace umgad
