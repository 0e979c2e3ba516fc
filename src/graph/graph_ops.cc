#include "graph/graph_ops.h"

#include <algorithm>
#include <unordered_set>

namespace umgad {

SparseMatrix FlattenToSingleView(const MultiplexGraph& graph) {
  std::vector<Edge> all;
  for (int r = 0; r < graph.num_relations(); ++r) {
    std::vector<Edge> edges = graph.layer(r).ToEdges();
    all.insert(all.end(), edges.begin(), edges.end());
  }
  // Stored entries already include both directions; FromEdges dedups.
  return SparseMatrix::FromEdges(graph.num_nodes(), all,
                                 /*symmetrize=*/false);
}

std::vector<Edge> UndirectedEdges(const SparseMatrix& adj) {
  std::vector<Edge> out;
  out.reserve(adj.nnz() / 2);
  const auto& rp = adj.row_ptr();
  const auto& ci = adj.col_idx();
  for (int i = 0; i < adj.rows(); ++i) {
    for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (i < ci[k]) out.push_back(Edge{i, ci[k]});
    }
  }
  return out;
}

EdgeMask SampleEdgeMask(const SparseMatrix& adj, double ratio, Rng* rng) {
  UMGAD_CHECK(ratio >= 0.0 && ratio <= 1.0);
  std::vector<Edge> edges = UndirectedEdges(adj);
  const int total = static_cast<int>(edges.size());
  const int k = static_cast<int>(ratio * total);
  std::vector<int> picked = rng->SampleWithoutReplacement(total, k);

  EdgeMask mask;
  mask.masked.reserve(k);
  for (int idx : picked) mask.masked.push_back(edges[idx]);
  mask.remaining = RemoveEdges(adj, mask.masked);
  return mask;
}

SparseMatrix RemoveEdges(const SparseMatrix& adj,
                         const std::vector<Edge>& edges) {
  // Mark the stored position of each direction by binary search in its
  // sorted row; an absent pair marks nothing, a duplicate marks the same
  // position again.
  const auto& rp = adj.row_ptr();
  const int* ci = adj.col_idx().data();
  std::vector<char> drop(adj.nnz(), 0);
  auto mark = [&](int i, int j) {
    const int* begin = ci + rp[i];
    const int* end = ci + rp[i + 1];
    const int* it = std::lower_bound(begin, end, j);
    if (it != end && *it == j) drop[it - ci] = 1;
  };
  for (const Edge& e : edges) {
    UMGAD_CHECK(e.src >= 0 && e.src < adj.rows() && e.dst >= 0 &&
                e.dst < adj.rows());
    mark(e.src, e.dst);
    mark(e.dst, e.src);
  }
  return adj.WithoutEntries(drop);
}

EdgeMask RemoveIncidentEdges(const SparseMatrix& adj,
                             const std::vector<int>& nodes) {
  std::vector<char> in_set(adj.rows(), 0);
  for (int v : nodes) {
    UMGAD_CHECK(v >= 0 && v < adj.rows());
    in_set[v] = 1;
  }

  EdgeMask mask;
  std::vector<char> drop(adj.nnz(), 0);
  const auto& rp = adj.row_ptr();
  const auto& ci = adj.col_idx();
  for (int i = 0; i < adj.rows(); ++i) {
    for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
      const int j = ci[k];
      if (!in_set[i] && !in_set[j]) continue;
      if (i <= j) mask.masked.push_back(Edge{i, j});
      drop[k] = 1;
    }
  }
  mask.remaining = adj.WithoutEntries(drop);
  return mask;
}

std::vector<int> KHopNeighborhood(const SparseMatrix& adj, int start,
                                  int hops) {
  UMGAD_CHECK(start >= 0 && start < adj.rows());
  std::vector<int> frontier = {start};
  std::unordered_set<int> seen = {start};
  for (int h = 0; h < hops; ++h) {
    std::vector<int> next;
    for (int u : frontier) {
      auto [begin, end] = adj.RowRange(u);
      for (int64_t k = begin; k < end; ++k) {
        const int w = adj.col_idx()[k];
        if (seen.insert(w).second) next.push_back(w);
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  std::vector<int> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace umgad
