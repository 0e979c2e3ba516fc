#include <unordered_map>

#include "baselines/common.h"
#include "core/masking.h"
#include "nn/gcn.h"

namespace umgad {
namespace baselines {
namespace {

/// DualGAD (Tang et al., Information Sciences'24): dual-bootstrapped
/// self-supervised learning. A generative module reconstructs masked
/// subgraphs (attributes of RWR-masked node sets); a cluster-guided
/// contrastive module pulls node embeddings toward their cluster centroid
/// and away from other centroids, attacking feature-structure
/// inconsistency. Runs per relation with uniform fusion — the second
/// multiplex-aware baseline.
class DualGad : public BaselineBase {
 public:
  explicit DualGad(uint64_t seed) : BaselineBase("DualGAD", seed) {}

 protected:
  Status FitImpl(const MultiplexGraph& graph) override {
    SingleView view(graph);
    const Tensor& x = graph.attributes();
    const int n = view.n;
    const int r_count = graph.num_relations();

    // Cluster guidance from label propagation on the flattened graph.
    std::vector<int> cluster =
        LabelPropagationCommunities(view.adj, 4, &rng_);
    // Remap cluster labels to dense ids.
    std::unordered_map<int, int> remap;
    for (int& c : cluster) {
      auto [it, inserted] = remap.emplace(c, static_cast<int>(remap.size()));
      c = it->second;
    }
    const int num_clusters = static_cast<int>(remap.size());
    std::vector<std::vector<int>> members(num_clusters);
    for (int i = 0; i < n; ++i) members[cluster[i]].push_back(i);
    auto centroid_op = BuildContextOperator(n, members);

    const std::vector<std::shared_ptr<const SparseMatrix>> norms =
        RelationOperators(graph);

    std::vector<std::unique_ptr<nn::SgcConv>> encoders;
    std::vector<std::unique_ptr<nn::SgcConv>> decoders;
    std::vector<ag::VarPtr> params;
    for (int r = 0; r < r_count; ++r) {
      encoders.push_back(std::make_unique<nn::SgcConv>(
          view.f, kBaselineHidden, 1, nn::Activation::kRelu, &rng_));
      decoders.push_back(std::make_unique<nn::SgcConv>(
          kBaselineHidden, view.f, 1, nn::Activation::kNone, &rng_));
      for (auto& p : encoders.back()->Parameters()) params.push_back(p);
      for (auto& p : decoders.back()->Parameters()) params.push_back(p);
    }

    Train(std::move(params), kBaselineEpochs, [&] {
      std::vector<ag::VarPtr> terms;
      for (int r = 0; r < r_count; ++r) {
        // Generative: reconstruct attributes of RWR-masked subgraphs.
        SubgraphMask mask =
            MakeSubgraphMask(graph.layer(r), 6, 8, 0.3, &rng_);
        auto op = std::make_shared<const SparseMatrix>(
            mask.remaining.NormalizedWithSelfLoops());
        ag::VarPtr h = encoders[r]->Forward(op, ag::Constant(x));
        ag::VarPtr recon = decoders[r]->Forward(op, h);
        if (!mask.masked_nodes.empty()) {
          terms.push_back(ag::MseLoss(recon, x, mask.masked_nodes));
        }
        // Cluster-guided contrast on the full relation graph.
        ag::VarPtr h_full = encoders[r]->Forward(norms[r], ag::Constant(x));
        ag::VarPtr centroids = ag::Spmm(centroid_op, h_full);
        ag::VarPtr own = ag::GatherRows(centroids, cluster);
        std::vector<int> wrong(n);
        for (int i = 0; i < n; ++i) {
          int c = static_cast<int>(rng_.UniformInt(num_clusters));
          if (num_clusters > 1 && c == cluster[i]) {
            c = (c + 1) % num_clusters;
          }
          wrong[i] = c;
        }
        ag::VarPtr other = ag::GatherRows(centroids, wrong);
        terms.push_back(ag::ScalarMul(
            ag::Add(ag::PairDotBceLoss(h_full, own,
                                       std::vector<float>(n, 1.0f)),
                    ag::PairDotBceLoss(h_full, other,
                                       std::vector<float>(n, 0.0f))),
            0.5f));
      }
      return ag::AddN(terms);
    });

    // Scores: per-relation attribute residual + cluster disagreement,
    // uniformly fused.
    std::vector<double> attr_err(n, 0.0);
    std::vector<double> cluster_gap(n, 0.0);
    for (int r = 0; r < r_count; ++r) {
      ag::VarPtr h = encoders[r]->Forward(norms[r], ag::Constant(x));
      ag::VarPtr recon = decoders[r]->Forward(norms[r], h);
      std::vector<double> err = RowL2(recon->value(), x);
      Tensor centroids = centroid_op->Multiply(h->value());
      Tensor own = GatherRows(centroids, cluster);
      std::vector<double> agreement = RowDotSigmoid(h->value(), own);
      for (int i = 0; i < n; ++i) {
        attr_err[i] += err[i] / r_count;
        cluster_gap[i] += (1.0 - agreement[i]) / r_count;
      }
    }
    scores_ = CombineStandardized({attr_err, cluster_gap}, {0.6, 0.4});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Detector> MakeDualGad(uint64_t seed) {
  return std::make_unique<DualGad>(seed);
}

}  // namespace baselines
}  // namespace umgad
