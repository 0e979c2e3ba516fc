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
  // Hash of undirected pairs to drop.
  std::unordered_set<int64_t> drop;
  drop.reserve(edges.size() * 2);
  const int64_t n = adj.rows();
  auto key = [n](int a, int b) { return static_cast<int64_t>(a) * n + b; };
  for (const Edge& e : edges) {
    drop.insert(key(e.src, e.dst));
    drop.insert(key(e.dst, e.src));
  }

  std::vector<int> rows;
  std::vector<int> cols;
  std::vector<float> vals;
  rows.reserve(adj.nnz());
  cols.reserve(adj.nnz());
  vals.reserve(adj.nnz());
  const auto& rp = adj.row_ptr();
  const auto& ci = adj.col_idx();
  const auto& v = adj.values();
  for (int i = 0; i < adj.rows(); ++i) {
    for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (drop.count(key(i, ci[k])) > 0) continue;
      rows.push_back(i);
      cols.push_back(ci[k]);
      vals.push_back(v[k]);
    }
  }
  return SparseMatrix::FromCoo(adj.rows(), adj.cols(), rows, cols, vals);
}

EdgeMask RemoveIncidentEdges(const SparseMatrix& adj,
                             const std::vector<int>& nodes) {
  std::vector<char> in_set(adj.rows(), 0);
  for (int v : nodes) {
    UMGAD_CHECK(v >= 0 && v < adj.rows());
    in_set[v] = 1;
  }

  EdgeMask mask;
  std::vector<int> rows;
  std::vector<int> cols;
  std::vector<float> vals;
  const auto& rp = adj.row_ptr();
  const auto& ci = adj.col_idx();
  const auto& v = adj.values();
  for (int i = 0; i < adj.rows(); ++i) {
    for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
      const int j = ci[k];
      if (in_set[i] || in_set[j]) {
        if (i <= j) mask.masked.push_back(Edge{i, j});
        continue;
      }
      rows.push_back(i);
      cols.push_back(j);
      vals.push_back(v[k]);
    }
  }
  mask.remaining =
      SparseMatrix::FromCoo(adj.rows(), adj.cols(), rows, cols, vals);
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
