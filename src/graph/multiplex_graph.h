#ifndef UMGAD_GRAPH_MULTIPLEX_GRAPH_H_
#define UMGAD_GRAPH_MULTIPLEX_GRAPH_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace umgad {

/// A multiplex heterogeneous graph (Definition 1): one node set with shared
/// attributes, and R relational layers over that node set. Layers are
/// undirected simple graphs stored as symmetric CSR adjacency matrices.
///
/// `labels` is the evaluation ground truth (1 = anomalous, 0 = normal); it
/// is never consumed by detectors — only by metrics and by the Table V
/// "ground-truth leakage" thresholding protocol.
/// How much layer-content validation MultiplexGraph::Create performs beyond
/// the shape, relation-name, and label checks (those always run).
enum class LayerChecks {
  /// Verify every layer is symmetric (an O(nnz) merge over each layer's
  /// pattern). The default for graphs assembled in-process or parsed from
  /// human-editable formats.
  kFull,
  /// Trust symmetry. For the .umgb parse: SaveGraphBinary only serialises
  /// graphs that passed kFull, and ParseGraphImage re-validates every
  /// element-level CSR invariant memory safety depends on (section bounds,
  /// row_ptr monotonicity, column range/ordering) — so a hand-corrupted
  /// file can at worst yield an asymmetric graph (wrong scores), never an
  /// unsafe one. Skipping the re-check keeps the load cost proportional to
  /// the bytes actually validated, which is what makes the mmap path fast.
  kTrustSymmetry,
};

class MultiplexGraph {
 public:
  MultiplexGraph() = default;

  /// Validating factory: checks layer shapes, symmetry of each layer (per
  /// `checks`), and attribute/label dimensions.
  static Result<MultiplexGraph> Create(std::string name, Tensor attributes,
                                       std::vector<SparseMatrix> layers,
                                       std::vector<std::string> relation_names,
                                       std::vector<int> labels = {},
                                       LayerChecks checks = LayerChecks::kFull);

  const std::string& name() const { return name_; }
  int num_nodes() const { return attributes_.rows(); }
  int num_relations() const { return static_cast<int>(layers_.size()); }
  int feature_dim() const { return attributes_.cols(); }

  const Tensor& attributes() const { return attributes_; }
  /// Mutable attribute access is copy-on-write: a `.umgb`-loaded graph
  /// views the read-only image section (mapped or in the loader's buffer)
  /// until the first mutable request, which materialises an owned copy (so
  /// injection/perturbation work on loaded graphs without ever writing
  /// through a mapping).
  Tensor& mutable_attributes() {
    attributes_.EnsureOwned();
    return attributes_;
  }

  const SparseMatrix& layer(int r) const {
    UMGAD_CHECK(r >= 0 && r < num_relations());
    return layers_[r];
  }
  const std::vector<SparseMatrix>& layers() const { return layers_; }
  void set_layer(int r, SparseMatrix layer) {
    UMGAD_CHECK(r >= 0 && r < num_relations());
    layers_[r] = std::move(layer);
  }

  const std::string& relation_name(int r) const {
    UMGAD_CHECK(r >= 0 && r < num_relations());
    return relation_names_[r];
  }

  /// Undirected edge count of layer r (stored entries / 2, self loops
  /// counted once).
  int64_t num_edges(int r) const;
  int64_t total_edges() const;

  bool has_labels() const { return !labels_.empty(); }
  const std::vector<int>& labels() const { return labels_; }
  std::vector<int>& mutable_labels() { return labels_; }
  int num_anomalies() const;

  /// One-line summary for logs: name, |V|, R, per-layer |E|, #anomalies.
  std::string Summary() const;

 private:
  std::string name_;
  Tensor attributes_;
  std::vector<SparseMatrix> layers_;
  std::vector<std::string> relation_names_;
  std::vector<int> labels_;
};

}  // namespace umgad

#endif  // UMGAD_GRAPH_MULTIPLEX_GRAPH_H_
