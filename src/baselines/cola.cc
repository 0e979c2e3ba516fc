#include "baselines/common.h"
#include "nn/gcn.h"

namespace umgad {
namespace baselines {
namespace {

/// CoLA (Liu et al., TNNLS'21): contrastive self-supervised anomaly
/// detection via node-vs-local-subgraph instance pairs. A GCN encoder is
/// trained with a dot-product discriminator that scores (node, own RWR
/// subgraph) pairs high and (node, other node's subgraph) pairs low; the
/// anomaly score is the discrimination gap sigma(negative) -
/// sigma(positive) averaged over sampling rounds.
class CoLa : public BaselineBase {
 public:
  explicit CoLa(uint64_t seed) : BaselineBase("CoLA", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    nn::SgcConv enc(view.f, kBaselineHidden, 1, nn::Activation::kNone, &rng_);
    constexpr int kBatch = 384;
    constexpr int kContextSize = 4;

    Train(enc.Parameters(), kBaselineEpochs, [&] {
      std::vector<int> batch = SampleBatch(view.n, kBatch, &rng_);
      auto ctx_op = RwrContextOperator(view.adj, batch, kContextSize, &rng_);
      ag::VarPtr h = enc.Forward(view.norm, ag::Constant(x));
      ag::VarPtr hb = ag::GatherRows(h, batch);
      ag::VarPtr ctx = ag::Spmm(ctx_op, h);
      std::vector<int> perm = rng_.Permutation(static_cast<int>(batch.size()));
      std::vector<ag::VarPtr> terms = ContrastTerms(hb, ctx, perm);
      return ag::Add(terms[0], terms[1]);
    });

    // Scoring: multi-round discrimination gap over all nodes.
    Tensor h = enc.Forward(view.norm, ag::Constant(x))->value();
    scores_ = RwrContextGap(view.adj, h, kContextSize, /*rounds=*/4, &rng_);
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeCoLa(uint64_t seed) {
  return std::make_unique<CoLa>(seed);
}

}  // namespace baselines
}  // namespace umgad
