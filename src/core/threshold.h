#ifndef UMGAD_CORE_THRESHOLD_H_
#define UMGAD_CORE_THRESHOLD_H_

#include <vector>

namespace umgad {

/// Output of the unsupervised inflection-point threshold strategy
/// (Sec. IV-E, Eqs. 20-23).
struct ThresholdResult {
  /// Smoothed score at the inflection point; nodes with raw score >= this
  /// are predicted anomalous.
  double threshold = 0.0;
  /// Index T into the smoothed descending sequence.
  int inflection_index = 0;
  /// Number of nodes predicted anomalous at the threshold.
  int num_predicted = 0;
  /// Window w actually used after clamping.
  int window = 0;
  /// The smoothed descending sequence (for Fig. 2 curves).
  std::vector<double> smoothed;
};

/// The label-free threshold of Sec. IV-E: sort scores descending,
/// moving-average smooth with window w = max(floor(1e-4 * N), 5) (Eq. 20),
/// and take first and second differences (Eqs. 21-22). Eq. 23 then puts the
/// threshold at the maximal |Delta_2|; this selection step differs:
///   - a candidate is a point whose Delta_2 is positive and at least 8 times
///     the median |Delta_2|; when none is, the argmax of positive Delta_2
///     is the only candidate (index 0 when no Delta_2 is positive);
///   - the candidate nearest TwoSegmentChangePoint of the smoothed curve
///     wins, the earliest on a tie.
/// The factor 8 and the change point are not in Eqs. 20-23. They keep the
/// pick off the curvature among the extreme top scores. Fewer than three
/// smoothed points put the threshold at the first.
///
/// `window` <= 0 selects the paper's default.
ThresholdResult SelectThresholdInflection(const std::vector<double>& scores,
                                          int window = -1);

/// Ground-truth-leakage protocol of Table V: threshold passes exactly the
/// top `num_anomalies` scores.
double ThresholdTopK(const std::vector<double>& scores, int num_anomalies);

/// Oracle threshold maximising Macro-F1 against labels (upper bound used in
/// the thresholding discussion; never fed back into training).
double ThresholdBestF1(const std::vector<double>& scores,
                       const std::vector<int>& labels);

/// Binary predictions from a threshold: score >= threshold -> 1.
std::vector<int> PredictWithThreshold(const std::vector<double>& scores,
                                      double threshold);

/// Index t minimising the total squared error of fitting y[0..t) and
/// y[t..n) with two independent least-squares lines. Used by the inflection
/// strategy to localise the steep-to-stable transition; exposed for tests.
int TwoSegmentChangePoint(const std::vector<double>& y);

}  // namespace umgad

#endif  // UMGAD_CORE_THRESHOLD_H_
