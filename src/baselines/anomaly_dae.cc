#include "baselines/common.h"
#include "core/scorer.h"
#include "nn/gcn.h"
#include "nn/linear.h"

namespace umgad {
namespace baselines {
namespace {

/// AnomalyDAE (Fan et al., ICASSP'20): dual autoencoders. The structure AE
/// embeds nodes with a GCN (Z_V) and reconstructs edges by inner product;
/// the attribute decoder reconstructs attributes from the same node
/// embedding, X~ = Z_V Z_A^T, with the attribute embedding Z_A (f x d)
/// learned as the decoder's weight. Decoding from Z_V is what lets the
/// attribute residual flag a node whose attributes disagree with its
/// neighbourhood. Both residuals are combined with the paper's fixed
/// balance weight.
class AnomalyDae : public BaselineBase {
 public:
  explicit AnomalyDae(uint64_t seed) : BaselineBase("AnomalyDAE", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    nn::GcnConv struct_enc(view.f, kBaselineHidden, nn::Activation::kRelu,
                           &rng_);
    nn::Linear attr_dec(kBaselineHidden, view.f, &rng_);

    std::vector<ag::VarPtr> params = struct_enc.Parameters();
    for (auto& p : attr_dec.Parameters()) params.push_back(p);
    nn::Adam opt(params, kBaselineLr);

    std::vector<Edge> edges;
    const auto& rp = view.adj.row_ptr();
    const auto& ci = view.adj.col_idx();
    for (int i = 0; i < view.n; ++i) {
      for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
        if (i < ci[k]) edges.push_back(Edge{i, ci[k]});
      }
    }

    ag::VarPtr h;
    ag::VarPtr recon;
    for (int epoch = 0; epoch < kBaselineEpochs; ++epoch) {
      ag::Tape::Global().Reset();  // reuse last epoch's slabs + buffers
      opt.ZeroGrad();
      h = struct_enc.Forward(view.norm, ag::Constant(x));
      recon = attr_dec.Forward(h);
      const int batch = std::min<int>(1024, static_cast<int>(edges.size()));
      std::vector<int> pick = rng_.SampleWithoutReplacement(
          static_cast<int>(edges.size()), batch);
      std::vector<int> src;
      std::vector<int> dst;
      std::vector<float> labels;
      for (int e : pick) {
        src.push_back(edges[e].src);
        dst.push_back(edges[e].dst);
        labels.push_back(1.0f);
        src.push_back(static_cast<int>(rng_.UniformInt(view.n)));
        dst.push_back(static_cast<int>(rng_.UniformInt(view.n)));
        labels.push_back(0.0f);
      }
      ag::VarPtr loss = ag::Add(
          ag::PairDotBceLoss(ag::GatherRows(h, src),
                             ag::GatherRows(h, dst), labels),
          ag::MseLoss(recon, x));
      ag::Backward(loss);
      opt.Step();
      ++epochs_run_;
    }

    std::vector<double> struct_err =
        StructureResidual(view.adj, h->value(), 16, rng_.NextU64(), false);
    std::vector<double> attr_err = RowL2(recon->value(), x);
    // The paper's alpha leans on the attribute residual; the raw
    // structure residual is hub-biased and only supplements it.
    scores_ = CombineStandardized({struct_err, attr_err}, {0.3, 0.7});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeAnomalyDae(uint64_t seed) {
  return std::make_unique<AnomalyDae>(seed);
}

}  // namespace baselines
}  // namespace umgad
