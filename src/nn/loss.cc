#include "nn/loss.h"

#include "graph/graph_ops.h"

namespace umgad {
namespace nn {

std::vector<ag::EdgeCandidateSet> BuildEdgeCandidates(
    const std::vector<Edge>& masked_edges, const SparseMatrix& observed,
    int num_negatives, Rng* rng) {
  std::vector<ag::EdgeCandidateSet> sets;
  sets.reserve(masked_edges.size());
  for (const Edge& e : masked_edges) {
    ag::EdgeCandidateSet set;
    set.src = e.src;
    set.cands.push_back(e.dst);
    std::vector<int> negatives;
    SampleNonNeighbors(observed, e.src, num_negatives, rng, &negatives);
    set.cands.insert(set.cands.end(), negatives.begin(), negatives.end());
    sets.push_back(std::move(set));
  }
  return sets;
}

std::vector<ag::EdgeCandidateSet> RandomEdgeCandidates(int n, int count,
                                                       int num_negatives,
                                                       Rng* rng) {
  UMGAD_CHECK_GT(n, 1);
  std::vector<ag::EdgeCandidateSet> sets(count);
  for (ag::EdgeCandidateSet& set : sets) {
    set.src = static_cast<int>(rng->UniformInt(n));
    set.cands.resize(1 + num_negatives);
    for (int& c : set.cands) {
      int v = static_cast<int>(rng->UniformInt(n - 1));
      if (v >= set.src) ++v;  // uniform over [0, n) \ {src}
      c = v;
    }
  }
  return sets;
}

std::vector<int> SampleContrastiveNegatives(int n, Rng* rng) {
  UMGAD_CHECK_GT(n, 1);
  std::vector<int> neg(n);
  for (int i = 0; i < n; ++i) {
    int j = static_cast<int>(rng->UniformInt(n - 1));
    if (j >= i) ++j;  // uniform over [0, n) \ {i}
    neg[i] = j;
  }
  return neg;
}

ag::VarPtr ConvexCombine(const ag::VarPtr& a, const ag::VarPtr& b,
                         float alpha) {
  return ag::Add(ag::ScalarMul(a, alpha), ag::ScalarMul(b, 1.0f - alpha));
}

}  // namespace nn
}  // namespace umgad
