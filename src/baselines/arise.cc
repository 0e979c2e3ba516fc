#include "baselines/common.h"
#include "nn/gcn.h"

namespace umgad {
namespace baselines {
namespace {

/// ARISE (Duan et al., TNNLS'23): graph anomaly detection via substructure
/// awareness. Region-level signal: RWR-sampled substructure density (fraud
/// regions are unusually sparse or dense relative to their nodes'
/// communities); node-level signal: node-subgraph contrast. The score
/// combines the substructure-density deviation with the contrast gap.
class Arise : public BaselineBase {
 public:
  explicit Arise(uint64_t seed) : BaselineBase("ARISE", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    // Substructure statistic: average internal-density of RWR subgraphs
    // seeded at each node, collected over a few rounds.
    std::vector<double> density(view.n, 0.0);
    const std::vector<int> all = AllNodes(view.n);
    constexpr int kDensityRounds = 3;
    constexpr int kSubSize = 6;
    for (int round = 0; round < kDensityRounds; ++round) {
      std::vector<std::vector<int>> subs =
          RwrContexts(view.adj, all, kSubSize, &rng_);
      for (int i = 0; i < view.n; ++i) {
        const auto& s = subs[i];
        if (s.size() < 2) continue;
        int links = 0;
        for (size_t a = 0; a < s.size(); ++a) {
          for (size_t b = a + 1; b < s.size(); ++b) {
            if (view.adj.Has(s[a], s[b])) ++links;
          }
        }
        const double possible = 0.5 * s.size() * (s.size() - 1);
        density[i] += links / possible / kDensityRounds;
      }
    }
    // Deviation from the global mean density (both too-sparse and
    // too-dense substructures are suspicious).
    double mean_density = 0.0;
    for (double d : density) mean_density += d;
    mean_density /= view.n;
    std::vector<double> density_dev(view.n);
    for (int i = 0; i < view.n; ++i) {
      density_dev[i] = std::abs(density[i] - mean_density);
    }

    // Node-subgraph contrast (shared skeleton with CoLA).
    nn::SgcConv enc(view.f, kBaselineHidden, 1, nn::Activation::kNone, &rng_);
    constexpr int kBatch = 384;
    Train(enc.Parameters(), kBaselineEpochs, [&] {
      std::vector<int> batch = SampleBatch(view.n, kBatch, &rng_);
      ag::VarPtr h = enc.Forward(view.norm, ag::Constant(x));
      ag::VarPtr hb = ag::GatherRows(h, batch);
      ag::VarPtr ctx =
          ag::Spmm(RwrContextOperator(view.adj, batch, 4, &rng_), h);
      std::vector<int> perm = rng_.Permutation(static_cast<int>(batch.size()));
      std::vector<ag::VarPtr> terms = ContrastTerms(hb, ctx, perm);
      return ag::Add(terms[0], terms[1]);
    });
    Tensor h = enc.Forward(view.norm, ag::Constant(x))->value();
    std::vector<double> gap =
        RwrContextGap(view.adj, h, 4, /*rounds=*/3, &rng_);

    scores_ = CombineStandardized({gap, density_dev}, {0.6, 0.4});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeArise(uint64_t seed) {
  return std::make_unique<Arise>(seed);
}

}  // namespace baselines
}  // namespace umgad
