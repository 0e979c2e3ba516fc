#ifndef UMGAD_CORE_MODEL_IO_H_
#define UMGAD_CORE_MODEL_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/umgad.h"
#include "graph/multiplex_graph.h"

namespace umgad {

/// Identity of the graph a model was fitted on: shape plus an FNV-1a hash
/// of the attribute matrix and every relation's CSR arrays. Stored in the
/// .umgm artifact so a serving process can refuse to score a graph the
/// weights were not trained for (TrainedModel::Score checks it by default).
struct GraphFingerprint {
  int32_t num_nodes = 0;
  int32_t feature_dim = 0;
  int32_t num_relations = 0;
  std::vector<int64_t> layer_nnz;
  uint64_t content_hash = 0;

  bool Matches(const GraphFingerprint& other) const;
};

GraphFingerprint FingerprintGraph(const MultiplexGraph& graph);

/// A fitted UMGAD model detached from its training process: the full
/// hyperparameter surface, every trainable tensor (flattened in
/// nn::Module::Parameters() registration order across the active views),
/// the dataset fingerprint, and the Rng state captured at the start of the
/// scoring pass (it seeds the structure residual's negative streams, see
/// NegativeStreamBase). Round trips through the version-framed .umgm binary
/// container (spec: docs/FORMATS.md) and replays the batch scoring pass
/// bit-identically: Score() on the training graph returns exactly the
/// scores the fitted UmgadModel produced.
class TrainedModel {
 public:
  TrainedModel() = default;

  /// Snapshot a fitted model (`graph` must be the graph it was fitted on —
  /// it supplies the fingerprint).
  static Result<TrainedModel> FromFitted(const UmgadModel& model,
                                         const MultiplexGraph& graph);

  Status Save(const std::string& path) const;
  static Result<TrainedModel> Load(const std::string& path);

  /// Replay the post-training scoring pass (Eq. 19) with the stored
  /// weights and Rng state. With `check_fingerprint` (the default) the
  /// graph must match the training fingerprint exactly; the serve layer
  /// disables the check to re-score a stream-mutated graph. Resets the
  /// transient autograd tape, like UmgadModel::Fit.
  Result<std::vector<double>> Score(const MultiplexGraph& graph,
                                    bool check_fingerprint = true) const;

  /// Reconstruct live views (original / attr-augmented / subgraph-
  /// augmented, in scoring order) carrying the stored weights. The views'
  /// parameter leaves are persistent tape nodes (freed at process exit).
  Result<std::vector<std::unique_ptr<ReconstructionView>>> BuildViews() const;

  const UmgadConfig& config() const { return config_; }
  const GraphFingerprint& fingerprint() const { return fingerprint_; }
  const Rng::State& scoring_rng_state() const { return rng_state_; }
  const std::vector<Tensor>& weights() const { return weights_; }

 private:
  UmgadConfig config_;
  GraphFingerprint fingerprint_;
  Rng::State rng_state_;
  std::vector<Tensor> weights_;
};

/// Canonical artifact extension ("umgm", next to "umgb" graphs).
extern const char kModelExtension[];

}  // namespace umgad

#endif  // UMGAD_CORE_MODEL_IO_H_
