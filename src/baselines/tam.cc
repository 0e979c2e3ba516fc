#include "baselines/common.h"

namespace umgad {
namespace baselines {
namespace {

/// TAM (Qiao & Pang, NeurIPS'23/24): truncated affinity maximization.
/// One-class homophily: normal nodes have high local affinity (similarity
/// to neighbours); anomalies drag affinity down through non-homophilous
/// edges. TAM iteratively truncates the lowest-affinity edges so anomaly
/// edges stop contaminating the affinity field, then scores nodes by
/// negative local affinity on the truncated graph.
class Tam : public BaselineBase {
 public:
  explicit Tam(uint64_t seed) : BaselineBase("TAM", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    SparseMatrix current = view.adj;
    constexpr int kRounds = 3;
    constexpr double kTruncateFrac = 0.1;

    std::vector<double> affinity(view.n, 0.0);
    for (int round = 0; round < kRounds; ++round) {
      // Smoothed representation on the current (truncated) graph.
      auto norm = std::make_shared<const SparseMatrix>(
          current.NormalizedWithSelfLoops());
      Tensor h = norm->Multiply(graph.attributes());

      // Local affinity: mean cosine similarity to current neighbours.
      const auto& rp = current.row_ptr();
      const auto& ci = current.col_idx();
      for (int i = 0; i < view.n; ++i) {
        double acc = 0.0;
        for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
          acc += RowPairCosine(h, i, ci[k]);
        }
        const int degree = current.RowNnz(i);
        affinity[i] = degree > 0 ? acc / degree : -1.0;
      }
      if (round + 1 == kRounds) break;
      const std::vector<Edge> edges = UndirectedEdges(current);
      if (edges.empty()) break;

      // Truncate the least-affine edges.
      std::vector<double> edge_affinity;
      for (const Edge& e : edges) {
        edge_affinity.push_back(RowPairCosine(h, e.src, e.dst));
      }
      current = RemoveEdges(
          current, LowestAffinityEdges(edges, edge_affinity, kTruncateFrac));
    }

    scores_.assign(view.n, 0.0);
    for (int i = 0; i < view.n; ++i) scores_[i] = -affinity[i];
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeTam(uint64_t seed) {
  return std::make_unique<Tam>(seed);
}

}  // namespace baselines
}  // namespace umgad
