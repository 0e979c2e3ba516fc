#include "baselines/common.h"
#include "core/scorer.h"
#include "nn/gcn.h"

namespace umgad {
namespace baselines {
namespace {

/// DOMINANT (Ding et al., SDM'19): deep anomaly detection on attributed
/// networks. A shared GCN encoder feeds two decoders — an attribute
/// decoder (GCN back to feature space) and a structure decoder (inner
/// product over embeddings, trained with sampled edge BCE). The score is
/// the paper's alpha-weighted sum of both residuals.
class Dominant : public BaselineBase {
 public:
  explicit Dominant(uint64_t seed) : BaselineBase("DOMINANT", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    nn::GcnConv enc(view.f, kBaselineHidden, nn::Activation::kRelu, &rng_);
    nn::SgcConv dec(kBaselineHidden, view.f, 1, nn::Activation::kNone,
                    &rng_);
    std::vector<ag::VarPtr> params = enc.Parameters();
    for (auto& p : dec.Parameters()) params.push_back(p);
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
    constexpr int kEdgeBatch = 1024;
    for (int epoch = 0; epoch < kBaselineEpochs; ++epoch) {
      ag::Tape::Global().Reset();  // reuse last epoch's slabs + buffers
      opt.ZeroGrad();
      h = enc.Forward(view.norm, ag::Constant(x));
      recon = dec.Forward(view.norm, h);
      // Structure decoder: sampled positive edges + uniform negatives.
      const int batch =
          std::min<int>(kEdgeBatch, static_cast<int>(edges.size()));
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
      ag::VarPtr struct_loss = ag::PairDotBceLoss(
          ag::GatherRows(h, src), ag::GatherRows(h, dst), labels);
      ag::VarPtr loss = ag::Add(
          ag::ScalarMul(ag::MseLoss(recon, x), 0.8f),
          ag::ScalarMul(struct_loss, 0.2f));
      ag::Backward(loss);
      opt.Step();
      ++epochs_run_;
    }

    std::vector<double> attr_err = RowL2(recon->value(), x);
    std::vector<double> struct_err =
        StructureResidual(view.adj, h->value(), 16, rng_.NextU64(), false);
    scores_ = CombineStandardized({attr_err, struct_err}, {0.8, 0.2});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeDominant(uint64_t seed) {
  return std::make_unique<Dominant>(seed);
}

}  // namespace baselines
}  // namespace umgad
