#include "baselines/common.h"
#include "nn/gcn.h"

namespace umgad {
namespace baselines {
namespace {

/// ANEMONE (Jin et al., CIKM'21): multi-scale contrastive learning. Two
/// discrimination scales share one encoder: patch level (node vs 1-hop
/// neighbourhood mean) and context level (node vs RWR subgraph). The
/// anomaly score is the statistical combination of the two scales'
/// discrimination gaps.
class Anemone : public BaselineBase {
 public:
  explicit Anemone(uint64_t seed) : BaselineBase("ANEMONE", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    nn::SgcConv enc(view.f, kBaselineHidden, 1, nn::Activation::kNone, &rng_);
    constexpr int kBatch = 384;
    constexpr int kContextSize = 4;

    Train(enc.Parameters(), kBaselineEpochs, [&] {
      std::vector<int> batch = SampleBatch(view.n, kBatch, &rng_);
      ag::VarPtr h = enc.Forward(view.norm, ag::Constant(x));
      ag::VarPtr hb = ag::GatherRows(h, batch);
      // Patch scale: 1-hop mean embedding.
      ag::VarPtr patch_all = ag::Spmm(view.row_norm, h);
      ag::VarPtr patch = ag::GatherRows(patch_all, batch);
      // Context scale: RWR subgraph mean embedding.
      ag::VarPtr ctx = ag::Spmm(
          RwrContextOperator(view.adj, batch, kContextSize, &rng_), h);
      std::vector<int> perm = rng_.Permutation(static_cast<int>(batch.size()));
      std::vector<ag::VarPtr> terms = ContrastTerms(hb, patch, perm);
      for (ag::VarPtr& t : ContrastTerms(hb, ctx, perm)) terms.push_back(t);
      return ag::AddN(terms);
    });

    Tensor h = enc.Forward(view.norm, ag::Constant(x))->value();
    std::vector<double> patch_gap =
        DiscriminationGap(h, view.row_norm->Multiply(h), &rng_);
    std::vector<double> ctx_gap =
        RwrContextGap(view.adj, h, kContextSize, /*rounds=*/3, &rng_);
    scores_ = CombineStandardized({patch_gap, ctx_gap}, {0.4, 0.6});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeAnemone(uint64_t seed) {
  return std::make_unique<Anemone>(seed);
}

}  // namespace baselines
}  // namespace umgad
