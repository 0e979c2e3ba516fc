#include "baselines/common.h"

namespace umgad {
namespace baselines {
namespace {

/// RAND (Bei et al., ICDM'23): reinforced neighbourhood selection for
/// unsupervised graph anomaly detection. The agent's learned policy boils
/// down to keeping reliable neighbours and down-weighting unreliable ones;
/// here reliability is the attribute affinity of an edge's endpoints, the
/// bottom fraction of edges is pruned, and a GCN autoencoder reconstructs
/// attributes over the amplified (reliable) graph.
class RandDetector : public BaselineBase {
 public:
  explicit RandDetector(uint64_t seed) : BaselineBase("RAND", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();

    // Neighbourhood selection: score each undirected edge by endpoint
    // cosine affinity, prune the bottom 30%.
    const std::vector<Edge> edges = UndirectedEdges(view.adj);
    std::vector<double> affinity;
    for (const Edge& e : edges) {
      affinity.push_back(RowPairCosine(x, e.src, e.dst));
    }
    const std::vector<Edge> pruned = LowestAffinityEdges(edges, affinity, 0.3);
    // Per-node fraction of pruned (unreliable) incident edges: RAND's
    // reliability signal.
    std::vector<double> unreliable(view.n, 0.0);
    for (const Edge& e : pruned) {
      unreliable[e.src] += 1.0;
      unreliable[e.dst] += 1.0;
    }
    for (int i = 0; i < view.n; ++i) {
      const int degree = view.adj.RowNnz(i);
      if (degree > 0) unreliable[i] /= degree;
    }

    SparseMatrix reliable = RemoveEdges(view.adj, pruned);
    auto reliable_norm = std::make_shared<const SparseMatrix>(
        reliable.NormalizedWithSelfLoops());

    std::vector<double> attr_err =
        AutoencoderResidual(reliable_norm, x, kBaselineEpochs);

    scores_ = CombineStandardized({attr_err, unreliable}, {0.7, 0.3});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeRand(uint64_t seed) {
  return std::make_unique<RandDetector>(seed);
}

}  // namespace baselines
}  // namespace umgad
