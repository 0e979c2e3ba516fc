#include "baselines/common.h"
#include "nn/gcn.h"

namespace umgad {
namespace baselines {
namespace {

/// GRADATE (Duan et al., AAAI'23): multi-scale contrastive learning with an
/// augmented view. Two graph views (original and edge-dropped) share an
/// encoder; training combines node-subgraph contrast within each view and
/// subgraph-subgraph contrast across views. The score blends the in-view
/// discrimination gap with the cross-view context disagreement.
class Gradate : public BaselineBase {
 public:
  explicit Gradate(uint64_t seed) : BaselineBase("GRADATE", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    // Augmented view: 10% of edges dropped (fixed for the fit).
    EdgeMask dropped = SampleEdgeMask(view.adj, 0.1, &rng_);
    auto norm2 = std::make_shared<const SparseMatrix>(
        dropped.remaining.NormalizedWithSelfLoops());

    nn::SgcConv enc(view.f, kBaselineHidden, 1, nn::Activation::kNone, &rng_);
    constexpr int kBatch = 384;
    constexpr int kContextSize = 4;

    Train(enc.Parameters(), kBaselineEpochs, [&] {
      std::vector<int> batch = SampleBatch(view.n, kBatch, &rng_);
      ag::VarPtr h1 = enc.Forward(view.norm, ag::Constant(x));
      ag::VarPtr h2 = enc.Forward(norm2, ag::Constant(x));
      ag::VarPtr hb1 = ag::GatherRows(h1, batch);
      auto ctx_op = RwrContextOperator(view.adj, batch, kContextSize, &rng_);
      ag::VarPtr ctx1 = ag::Spmm(ctx_op, h1);
      ag::VarPtr ctx2 = ag::Spmm(ctx_op, h2);
      std::vector<int> perm = rng_.Permutation(static_cast<int>(batch.size()));
      // Node-subgraph contrast in both views, then subgraph-subgraph
      // contrast across views.
      std::vector<ag::VarPtr> terms = ContrastTerms(hb1, ctx1, perm);
      terms.push_back(ag::PairDotBceLoss(
          ag::GatherRows(h2, batch), ctx2,
          std::vector<float>(batch.size(), 1.0f)));
      for (ag::VarPtr& t : ContrastTerms(ctx1, ctx2, perm)) terms.push_back(t);
      return ag::AddN(terms);
    });

    Tensor h1 = enc.Forward(view.norm, ag::Constant(x))->value();
    Tensor h2 = enc.Forward(norm2, ag::Constant(x))->value();
    const std::vector<int> all = AllNodes(view.n);
    std::vector<double> gap(view.n, 0.0);
    std::vector<double> cross(view.n, 0.0);
    constexpr int kRounds = 3;
    for (int round = 0; round < kRounds; ++round) {
      auto ctx_op = RwrContextOperator(view.adj, all, kContextSize, &rng_);
      Tensor ctx1 = ctx_op->Multiply(h1);
      Tensor ctx2 = ctx_op->Multiply(h2);
      std::vector<double> round_gap = DiscriminationGap(h1, ctx1, &rng_);
      std::vector<double> disagreement = RowL2(ctx1, ctx2);
      for (int i = 0; i < view.n; ++i) {
        gap[i] += round_gap[i] / kRounds;
        cross[i] += disagreement[i] / kRounds;
      }
    }
    scores_ = CombineStandardized({gap, cross}, {0.6, 0.4});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeGradate(uint64_t seed) {
  return std::make_unique<Gradate>(seed);
}

}  // namespace baselines
}  // namespace umgad
