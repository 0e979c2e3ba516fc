#include "baselines/common.h"
#include "nn/gcn.h"

namespace umgad {
namespace baselines {
namespace {

/// Sub-CR (Zhang et al., IJCAI'22): multi-view contrastive learning plus
/// attribute reconstruction. The local view contrasts nodes against RWR
/// subgraphs; the global view contrasts against a graph-diffusion context
/// (two-step propagation); an attribute decoder adds a reconstruction
/// residual. The score sums the contrastive gaps and the residual.
class SubCr : public BaselineBase {
 public:
  explicit SubCr(uint64_t seed) : BaselineBase("Sub-CR", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    nn::SgcConv enc(view.f, kBaselineHidden, 1, nn::Activation::kNone, &rng_);
    nn::SgcConv dec(kBaselineHidden, view.f, 1, nn::Activation::kNone,
                    &rng_);
    constexpr int kBatch = 384;
    constexpr int kContextSize = 4;

    ag::VarPtr recon;
    Train(ParametersOf({&enc, &dec}), kBaselineEpochs, [&] {
      std::vector<int> batch = SampleBatch(view.n, kBatch, &rng_);
      ag::VarPtr h = enc.Forward(view.norm, ag::Constant(x));
      ag::VarPtr hb = ag::GatherRows(h, batch);
      // Local view: RWR context.
      ag::VarPtr local = ag::Spmm(
          RwrContextOperator(view.adj, batch, kContextSize, &rng_), h);
      // Global view: two-step diffusion context.
      ag::VarPtr global_all = ag::Spmm(view.norm, ag::Spmm(view.norm, h));
      ag::VarPtr global = ag::GatherRows(global_all, batch);
      std::vector<int> perm = rng_.Permutation(static_cast<int>(batch.size()));
      recon = ag::Retain(dec.Forward(view.norm, h));
      std::vector<ag::VarPtr> terms = ContrastTerms(hb, local, perm);
      for (ag::VarPtr& t : ContrastTerms(hb, global, perm)) terms.push_back(t);
      terms.push_back(ag::ScalarMul(ag::MseLoss(recon, x), 2.0f));
      return ag::AddN(terms);
    });

    Tensor h = enc.Forward(view.norm, ag::Constant(x))->value();
    std::vector<double> attr_err = RowL2(recon->value(), x);
    std::vector<double> global_gap = DiscriminationGap(
        h, view.norm->Multiply(view.norm->Multiply(h)), &rng_);
    std::vector<double> local_gap =
        RwrContextGap(view.adj, h, kContextSize, /*rounds=*/3, &rng_);
    scores_ = CombineStandardized({local_gap, global_gap, attr_err},
                                  {0.35, 0.35, 0.3});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeSubCr(uint64_t seed) {
  return std::make_unique<SubCr>(seed);
}

}  // namespace baselines
}  // namespace umgad
