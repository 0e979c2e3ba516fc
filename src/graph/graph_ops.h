#ifndef UMGAD_GRAPH_GRAPH_OPS_H_
#define UMGAD_GRAPH_GRAPH_OPS_H_

#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/multiplex_graph.h"

namespace umgad {

/// Union of all relation layers as one unweighted symmetric adjacency.
/// Single-view baselines consume this, mirroring how non-multiplex methods
/// were applied to the multiplex datasets in the paper's evaluation.
SparseMatrix FlattenToSingleView(const MultiplexGraph& graph);

/// Undirected edge list (src < dst, in row-major order) of a symmetric
/// adjacency, self loops excluded.
std::vector<Edge> UndirectedEdges(const SparseMatrix& adj);

/// Result of sampling an undirected edge mask from a layer (Eq. 5):
/// `remaining` is the layer with the masked edges removed (both directions),
/// `masked` holds one (src < dst) record per masked undirected edge.
struct EdgeMask {
  SparseMatrix remaining;
  std::vector<Edge> masked;
};

/// Uniformly mask `ratio` of the undirected edges of `adj` (self loops are
/// never masked). Matches the paper's uniform random sampling without
/// replacement. `remaining` is built by RemoveEdges.
EdgeMask SampleEdgeMask(const SparseMatrix& adj, double ratio, Rng* rng);

/// Remove the given undirected edges (and their reverses) from `adj`.
/// Edges absent from `adj` are ignored, duplicates remove once, and (i, i)
/// removes the self loop; both endpoints must be rows of `adj`. Each
/// direction is found by binary search in its sorted row, and the result
/// is filtered from the parent's CSR in order (SparseMatrix::
/// WithoutEntries), so no entry is re-sorted and no value changes.
SparseMatrix RemoveEdges(const SparseMatrix& adj,
                         const std::vector<Edge>& edges);

/// Remove every edge incident to a node in `nodes` (subgraph masking for
/// the subgraph-level augmented view). Returns the remaining adjacency,
/// filtered from the parent's CSR like RemoveEdges, and the removed
/// undirected edges as one (i <= j) record per pair, in row-major order.
EdgeMask RemoveIncidentEdges(const SparseMatrix& adj,
                             const std::vector<int>& nodes);

/// Nodes within `hops` of `start` (BFS, including start).
std::vector<int> KHopNeighborhood(const SparseMatrix& adj, int start,
                                  int hops);

/// Uniform negative sampling: `count` node ids that are NOT neighbours of
/// `src` in `adj` (and not `src` itself), by rejection. Used by the
/// edge-reconstruction softmax denominators (Eq. 7) and the structure
/// residual (Eq. 19). `Adj` is SparseMatrix or serve::DynamicAdjacency.
/// When rejection runs out on a dense row, the rest cycles through the
/// row's non-neighbours; a row with none gets arbitrary distinct nodes.
/// The draw replaces *out's contents, so a caller can reuse one buffer.
template <typename Adj>
void SampleNonNeighbors(const Adj& adj, int src, int count, Rng* rng,
                        std::vector<int>* out) {
  out->clear();
  out->reserve(count);
  const int n = adj.rows();
  int attempts = 0;
  const int max_attempts = count * 50 + 100;
  while (static_cast<int>(out->size()) < count && attempts < max_attempts) {
    ++attempts;
    const int cand = static_cast<int>(rng->UniformInt(n));
    if (cand == src || adj.Has(src, cand)) continue;
    out->push_back(cand);
  }
  if (static_cast<int>(out->size()) == count) return;
  std::vector<int> pad;
  for (int v = 0; v < n; ++v) {
    if (v != src && !adj.Has(src, v)) pad.push_back(v);
  }
  while (!pad.empty() && static_cast<int>(out->size()) < count) {
    out->push_back(pad[out->size() % pad.size()]);
  }
  for (int v = 0; v < n && static_cast<int>(out->size()) < count; ++v) {
    if (v != src) out->push_back(v);
  }
}

}  // namespace umgad

#endif  // UMGAD_GRAPH_GRAPH_OPS_H_
