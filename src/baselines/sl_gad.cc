#include "baselines/common.h"
#include "nn/gcn.h"
#include "nn/linear.h"

namespace umgad {
namespace baselines {
namespace {

/// SL-GAD (Zheng et al., TKDE'21): generative and contrastive
/// self-supervised learning. The generative branch regresses a node's
/// attributes from its subgraph context embedding; the contrastive branch
/// is node-vs-context discrimination. The score combines the generative
/// residual with the contrastive gap (the paper's alpha/beta mixture).
class SlGad : public BaselineBase {
 public:
  explicit SlGad(uint64_t seed) : BaselineBase("SL-GAD", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    nn::SgcConv enc(view.f, kBaselineHidden, 1, nn::Activation::kNone, &rng_);
    nn::Linear gen(kBaselineHidden, view.f, &rng_);  // context -> attrs
    constexpr int kBatch = 384;
    constexpr int kContextSize = 4;

    Tensor target;  // MseLoss reads it in Backward, after the lambda
    Train(ParametersOf({&enc, &gen}), kBaselineEpochs, [&] {
      std::vector<int> batch = SampleBatch(view.n, kBatch, &rng_);
      ag::VarPtr h = enc.Forward(view.norm, ag::Constant(x));
      ag::VarPtr hb = ag::GatherRows(h, batch);
      ag::VarPtr ctx = ag::Spmm(
          RwrContextOperator(view.adj, batch, kContextSize, &rng_), h);
      // Generative: predict the (target) node attributes from context.
      ag::VarPtr predicted = gen.Forward(ctx);
      target = GatherRows(x, batch);
      ag::VarPtr gen_loss = ag::MseLoss(predicted, target);
      // Contrastive: standard discrimination.
      std::vector<int> perm = rng_.Permutation(static_cast<int>(batch.size()));
      std::vector<ag::VarPtr> cl_terms = ContrastTerms(hb, ctx, perm);
      ag::VarPtr cl_loss = ag::Add(cl_terms[0], cl_terms[1]);
      return ag::Add(ag::ScalarMul(gen_loss, 2.0f), cl_loss);
    });

    // Score = alpha * generative residual + beta * contrastive gap.
    Tensor h = enc.Forward(view.norm, ag::Constant(x))->value();
    const std::vector<int> all = AllNodes(view.n);
    std::vector<double> gen_err(view.n, 0.0);
    std::vector<double> gap(view.n, 0.0);
    constexpr int kRounds = 3;
    for (int round = 0; round < kRounds; ++round) {
      Tensor ctx = RwrContextOperator(view.adj, all, kContextSize, &rng_)
                       ->Multiply(h);
      Tensor predicted = gen.Forward(ag::Constant(ctx))->value();
      std::vector<double> err = RowL2(predicted, x);
      std::vector<double> round_gap = DiscriminationGap(h, ctx, &rng_);
      for (int i = 0; i < view.n; ++i) {
        gen_err[i] += err[i] / kRounds;
        gap[i] += round_gap[i] / kRounds;
      }
    }
    scores_ = CombineStandardized({gen_err, gap}, {0.5, 0.5});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeSlGad(uint64_t seed) {
  return std::make_unique<SlGad>(seed);
}

}  // namespace baselines
}  // namespace umgad
