#include "graph/multiplex_graph.h"

#include <atomic>
#include <cmath>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace umgad {

namespace {

/// InvalidArgument naming the first non-finite attribute (row, column);
/// OK when every entry is finite.
Status CheckFiniteAttributes(const Tensor& attributes) {
  const float* x = attributes.data();
  for (int64_t k = 0; k < attributes.size(); ++k) {
    if (!std::isfinite(x[k])) {
      const int cols = attributes.cols();
      return Status::InvalidArgument(StrFormat(
          "attribute (%lld, %lld) is not finite (%g)",
          static_cast<long long>(k / cols), static_cast<long long>(k % cols),
          static_cast<double>(x[k])));
    }
  }
  return Status::OK();
}

}  // namespace

Result<MultiplexGraph> MultiplexGraph::Create(
    std::string name, Tensor attributes, std::vector<SparseMatrix> layers,
    std::vector<std::string> relation_names, std::vector<int> labels) {
  const int n = attributes.rows();
  if (layers.empty()) {
    return Status::InvalidArgument("graph needs at least one relation layer");
  }
  if (relation_names.size() != layers.size()) {
    return Status::InvalidArgument(StrFormat(
        "got %zu relation names for %zu layers", relation_names.size(),
        layers.size()));
  }
  for (size_t r = 0; r < layers.size(); ++r) {
    if (layers[r].rows() != n || layers[r].cols() != n) {
      return Status::InvalidArgument(StrFormat(
          "layer %zu is %dx%d but the graph has %d nodes", r,
          layers[r].rows(), layers[r].cols(), n));
    }
    // Every stored (i, j) needs a finite weight and a stored mirror (j, i).
    // The pattern is symmetric iff each upper entry (i < j) has its mirror,
    // found by binary search in row j, and the two triangles hold as many
    // entries. Rows fan out across the pool; only the error path rescans
    // serially, to name the first bad entry in row-major order.
    const SparseMatrix& layer = layers[r];
    const auto& rp = layer.row_ptr();
    const auto& ci = layer.col_idx();
    const auto& values = layer.values();
    std::atomic<bool> valid{true};
    std::atomic<int64_t> upper_minus_lower{0};
    ParallelFor(n, kParallelRowGrain, [&](int64_t b, int64_t e) {
      int64_t balance = 0;
      for (int i = static_cast<int>(b); i < e; ++i) {
        for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
          const int j = ci[k];
          balance += (j > i) - (j < i);
          if (!std::isfinite(values[k]) || (j > i && !layer.Has(j, i))) {
            valid.store(false, std::memory_order_relaxed);
          }
        }
      }
      upper_minus_lower.fetch_add(balance, std::memory_order_relaxed);
    });
    if (valid.load() && upper_minus_lower.load() == 0) continue;
    for (int i = 0; i < n; ++i) {
      for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
        if (!std::isfinite(values[k])) {
          return Status::InvalidArgument(StrFormat(
              "layer %zu (%s) has a non-finite weight at (%d, %d)", r,
              relation_names[r].c_str(), i, ci[k]));
        }
        if (!layer.Has(ci[k], i)) {
          return Status::InvalidArgument(StrFormat(
              "layer %zu (%s) is not symmetric at (%d, %d)", r,
              relation_names[r].c_str(), i, ci[k]));
        }
      }
    }
  }
  if (!labels.empty() && labels.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument(StrFormat(
        "got %zu labels for %d nodes", labels.size(), n));
  }
  for (int label : labels) {
    if (label != 0 && label != 1) {
      return Status::InvalidArgument("labels must be 0 (normal) or 1 (anomal)");
    }
  }
  UMGAD_RETURN_IF_ERROR(CheckFiniteAttributes(attributes));

  MultiplexGraph g;
  g.name_ = std::move(name);
  g.attributes_ = std::move(attributes);
  g.layers_ = std::move(layers);
  g.relation_names_ = std::move(relation_names);
  g.labels_ = std::move(labels);
  return g;
}

int64_t MultiplexGraph::num_edges(int r) const {
  const SparseMatrix& m = layer(r);
  int64_t self_loops = 0;
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_idx();
  for (int i = 0; i < m.rows(); ++i) {
    for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (ci[k] == i) ++self_loops;
    }
  }
  return (m.nnz() - self_loops) / 2 + self_loops;
}

int64_t MultiplexGraph::total_edges() const {
  int64_t total = 0;
  for (int r = 0; r < num_relations(); ++r) total += num_edges(r);
  return total;
}

int MultiplexGraph::num_anomalies() const {
  int count = 0;
  for (int label : labels_) count += label;
  return count;
}

std::string MultiplexGraph::Summary() const {
  std::string out = StrFormat("%s: |V|=%d, R=%d", name_.c_str(), num_nodes(),
                              num_relations());
  for (int r = 0; r < num_relations(); ++r) {
    out += StrFormat(", |E_%s|=%lld", relation_names_[r].c_str(),
                     static_cast<long long>(num_edges(r)));
  }
  if (has_labels()) out += StrFormat(", #anomalies=%d", num_anomalies());
  return out;
}

}  // namespace umgad
