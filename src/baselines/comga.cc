#include <unordered_map>

#include "baselines/common.h"

namespace umgad {
namespace baselines {

/// Shared helper: hard community assignment by synchronous label
/// propagation on the flattened graph (used by ComGA's community-aware
/// module and DualGAD's cluster guidance).
std::vector<int> LabelPropagationCommunities(const SparseMatrix& adj,
                                             int rounds, Rng* rng) {
  const int n = adj.rows();
  std::vector<int> label = AllNodes(n);
  std::vector<int> order = AllNodes(n);
  for (int round = 0; round < rounds; ++round) {
    rng->Shuffle(&order);
    for (int i : order) {
      auto [begin, end] = adj.RowRange(i);
      if (begin == end) continue;
      // Majority label among neighbours (first-seen tie-break).
      std::unordered_map<int, int> counts;
      int best_label = label[i];
      int best_count = 0;
      for (int64_t k = begin; k < end; ++k) {
        const int l = label[adj.col_idx()[k]];
        const int c = ++counts[l];
        if (c > best_count) {
          best_count = c;
          best_label = l;
        }
      }
      label[i] = best_label;
    }
  }
  return label;
}

namespace {

/// ComGA (Luo et al., WSDM'22): community-aware attributed graph anomaly
/// detection. Communities are detected first; the detector then combines a
/// GCN autoencoder's attribute residual with a community-structure signal
/// (fraction of a node's edges that leave its community — ComGA's "local"
/// anomalies break community boundaries).
class ComGa : public BaselineBase {
 public:
  explicit ComGa(uint64_t seed) : BaselineBase("ComGA", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    std::vector<int> community =
        LabelPropagationCommunities(view.adj, /*rounds=*/4, &rng_);
    std::vector<double> cross_fraction(view.n, 0.0);
    for (int i = 0; i < view.n; ++i) {
      auto [begin, end] = view.adj.RowRange(i);
      if (begin == end) continue;
      int cross = 0;
      for (int64_t k = begin; k < end; ++k) {
        if (community[view.adj.col_idx()[k]] != community[i]) ++cross;
      }
      cross_fraction[i] = static_cast<double>(cross) / (end - begin);
    }

    // GCN autoencoder on attributes.
    std::vector<double> attr_err =
        AutoencoderResidual(view.norm, x, kBaselineEpochs);

    scores_ = CombineStandardized({attr_err, cross_fraction}, {0.7, 0.3});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeComGa(uint64_t seed) {
  return std::make_unique<ComGa>(seed);
}

}  // namespace baselines
}  // namespace umgad
