#ifndef UMGAD_CORE_UMGAD_H_
#define UMGAD_CORE_UMGAD_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/detector.h"
#include "core/threshold.h"
#include "core/views.h"

namespace umgad {

/// The UMGAD model (Fig. 1): original-view graph reconstruction,
/// attribute-level and subgraph-level augmented-view reconstruction, and
/// dual-view contrastive learning, trained jointly (Eq. 18); anomaly scores
/// from multi-view reconstruction residuals (Eq. 19) and the label-free
/// inflection-point threshold (Sec. IV-E).
///
/// Typical use:
///   UmgadConfig config;
///   UmgadModel model(config);
///   UMGAD_RETURN_IF_ERROR(model.Fit(graph));
///   const std::vector<double>& s = model.scores();
///   std::vector<int> predictions = model.PredictUnsupervised();
class UmgadModel : public Detector {
 public:
  explicit UmgadModel(UmgadConfig config = UmgadConfig());
  ~UmgadModel() override;

  /// Trains, then scores. Returns OutOfRange, with scores() empty, when an
  /// epoch's loss is not finite (training diverged).
  Status Fit(const MultiplexGraph& graph) override;
  const std::vector<double>& scores() const override { return scores_; }
  std::string name() const override { return "UMGAD"; }
  double fit_seconds() const override { return fit_seconds_; }
  double epoch_seconds() const override { return epoch_seconds_; }

  /// Binary predictions via the unsupervised inflection threshold. Valid
  /// after Fit.
  std::vector<int> PredictUnsupervised() const;
  /// The full threshold diagnostics (Fig. 2). Valid after Fit.
  const ThresholdResult& threshold_result() const { return threshold_; }

  /// Per-epoch total loss (Fig. 7c).
  const std::vector<double>& loss_history() const { return loss_history_; }

  /// Learned original-view attribute fusion weights a_r (diagnostics).
  std::vector<double> OriginalFusionWeights() const;

  const UmgadConfig& config() const { return config_; }

  /// The fitted reconstruction views in scoring order (original,
  /// attr-augmented, subgraph-augmented; inactive views skipped). Valid
  /// after Fit. Used by core/model_io to serialize the trained weights.
  const std::vector<std::unique_ptr<ReconstructionView>>& ActiveViews()
      const {
    return views_;
  }

  /// Rng state captured right before the post-training scoring pass
  /// (ComputeAnomalyScores draws the base of the structure-residual
  /// negative streams from it). Saved into the .umgm artifact so a reloaded
  /// model, and the online scorer, draw the same negatives. Valid after
  /// Fit.
  const Rng::State& scoring_rng_state() const { return scoring_rng_state_; }

  /// Allocator accounting from the last Fit: fresh tensor-buffer bytes the
  /// TensorPool had to heap-allocate during the first epoch vs. the sum
  /// over all later epochs. The first-epoch figure tracks the epoch's peak
  /// live pool memory: every forward value, plus the op gradients Backward
  /// holds at once (it releases each one after use). With the arena
  /// on, warm shapes recycle and the steady-state figure is zero (asserted
  /// in tests; recorded in docs/PERFORMANCE.md).
  int64_t first_epoch_fresh_bytes() const { return first_epoch_fresh_bytes_; }
  int64_t steady_state_fresh_bytes() const {
    return steady_state_fresh_bytes_;
  }

 private:
  UmgadConfig config_;
  std::vector<std::unique_ptr<ReconstructionView>> views_;  // scoring order
  std::vector<double> scores_;
  std::vector<double> loss_history_;
  ThresholdResult threshold_;
  Rng::State scoring_rng_state_;
  double fit_seconds_ = 0.0;
  double epoch_seconds_ = 0.0;
  int64_t first_epoch_fresh_bytes_ = 0;
  int64_t steady_state_fresh_bytes_ = 0;
};

}  // namespace umgad

#endif  // UMGAD_CORE_UMGAD_H_
