#include "baselines/common.h"
#include "nn/linear.h"

namespace umgad {
namespace baselines {
namespace {

/// AdONE (Bandyopadhyay et al., WSDM'20): outlier-resistant embeddings via
/// two aligned autoencoders — one over structure (here: the propagated
/// attribute signal, a linear AE over A-hat X) and one over attributes —
/// with an alignment term that makes the two embeddings agree for normal
/// nodes. Scores combine both reconstruction errors with the
/// embedding-disagreement (the adversarial alignment signal).
class Adone : public BaselineBase {
 public:
  explicit Adone(uint64_t seed) : BaselineBase("AdONE", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();
    const Tensor structure_signal = view.norm->Multiply(
        view.norm->Multiply(x));  // 2-hop propagated signal

    // Genuine bottlenecks, or the AEs learn identity maps.
    const int bottleneck = std::max(2, view.f / 4);
    nn::Linear attr_enc(view.f, bottleneck, &rng_);
    nn::Linear attr_dec(bottleneck, view.f, &rng_);
    nn::Linear struct_enc(view.f, bottleneck, &rng_);
    nn::Linear struct_dec(bottleneck, view.f, &rng_);

    ag::VarPtr za;
    ag::VarPtr zs;
    ag::VarPtr attr_recon;
    ag::VarPtr struct_recon;
    Train(ParametersOf({&attr_enc, &attr_dec, &struct_enc, &struct_dec}),
          kBaselineEpochs, [&] {
            za = ag::Retain(ag::Relu(attr_enc.Forward(ag::Constant(x))));
            // Retained: scoring reads it, and so does the `align` MseLoss
            // closure, which holds its value by reference.
            zs = ag::Retain(
                ag::Relu(struct_enc.Forward(ag::Constant(structure_signal))));
            attr_recon = ag::Retain(attr_dec.Forward(za));
            struct_recon = ag::Retain(struct_dec.Forward(zs));
            ag::VarPtr align = ag::MseLoss(za, zs->value());
            return ag::AddN({ag::MseLoss(attr_recon, x),
                             ag::MseLoss(struct_recon, structure_signal),
                             ag::ScalarMul(align, 0.5f)});
          });

    std::vector<double> attr_err = RowL2(attr_recon->value(), x);
    std::vector<double> struct_err =
        RowL2(struct_recon->value(), structure_signal);
    std::vector<double> disagreement = RowL2(za->value(), zs->value());
    scores_ = CombineStandardized({attr_err, struct_err, disagreement},
                                  {0.4, 0.4, 0.2});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeAdone(uint64_t seed) {
  return std::make_unique<Adone>(seed);
}

}  // namespace baselines
}  // namespace umgad
