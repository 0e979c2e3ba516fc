#ifndef UMGAD_BASELINES_COMMON_H_
#define UMGAD_BASELINES_COMMON_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/detector.h"
#include "core/views.h"
#include "graph/graph_ops.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace umgad {
namespace baselines {

/// Shared plumbing for baseline detectors: score storage, timing, seeding
/// and the training loop. Subclasses implement FitImpl and fill scores_.
class BaselineBase : public Detector {
 public:
  explicit BaselineBase(std::string name, uint64_t seed)
      : name_(std::move(name)), seed_(seed) {}

  Status Fit(const MultiplexGraph& graph) final {
    if (graph.num_nodes() < 4) {
      return Status::InvalidArgument("graph too small for " + name_);
    }
    WallTimer timer;
    rng_ = Rng(seed_);
    epochs_run_ = 0;
    train_seconds_ = 0.0;
    Status status = FitImpl(graph);
    // FitImpl has copied everything it needs out of the autograd graph
    // (scores_ etc.); rewind the tape so the next detector starts from an
    // empty transient arena.
    ag::Tape::Global().Reset();
    fit_seconds_ = timer.ElapsedSeconds();
    epoch_seconds_ = epochs_run_ > 0
                         ? train_seconds_ / static_cast<double>(epochs_run_)
                         : 0.0;
    return status;
  }

  const std::vector<double>& scores() const final { return scores_; }
  std::string name() const final { return name_; }
  double fit_seconds() const final { return fit_seconds_; }
  double epoch_seconds() const final { return epoch_seconds_; }

 protected:
  virtual Status FitImpl(const MultiplexGraph& graph) = 0;

  /// The baselines' training loop: `epochs` Adam steps over `params`. Each
  /// epoch rewinds the tape (so it reuses the last epoch's node slabs and
  /// tensor buffers), zeroes the gradients, back-propagates `loss()` and
  /// steps. The tape is not rewound after the last epoch, so the caller
  /// can score from values the last `loss()` computed. Only these epochs
  /// count toward epoch_seconds(); setup and scoring do not.
  void Train(std::vector<ag::VarPtr> params, int epochs,
             const std::function<ag::VarPtr()>& loss);

  /// Trains a fresh GCN autoencoder (a one-hop ReLU encoder to
  /// kBaselineHidden and a one-hop linear decoder back) to reconstruct `x`
  /// over `op`; returns each node's L2 reconstruction residual.
  std::vector<double> AutoencoderResidual(
      std::shared_ptr<const SparseMatrix> op, const Tensor& x, int epochs);

  std::string name_;
  uint64_t seed_;
  Rng rng_{0};
  std::vector<double> scores_;

 private:
  int epochs_run_ = 0;
  double train_seconds_ = 0.0;
  double fit_seconds_ = 0.0;
  double epoch_seconds_ = 0.0;
};

/// The parameters of `modules`, in order, for one optimiser.
std::vector<ag::VarPtr> ParametersOf(
    std::initializer_list<const nn::Module*> modules);

/// Flattened single-view working set: the union adjacency, its normalised
/// operator, and handles the single-view baselines share. This is how
/// non-multiplex methods consumed the datasets in the paper's evaluation.
struct SingleView {
  int n = 0;
  int f = 0;
  SparseMatrix adj;
  std::shared_ptr<const SparseMatrix> norm;       // sym-normalised + loops
  std::shared_ptr<const SparseMatrix> row_norm;   // D^-1 A
  explicit SingleView(const MultiplexGraph& graph);
};

/// Sym-normalised operator (self loops added) of every relation layer.
std::vector<std::shared_ptr<const SparseMatrix>> RelationOperators(
    const MultiplexGraph& graph);

/// Cosine similarity of rows i and j of `t` (0 when either row is ~0).
double RowPairCosine(const Tensor& t, int i, int j);

/// The `fraction` of `edges` with the lowest `affinity`, lowest first.
std::vector<Edge> LowestAffinityEdges(const std::vector<Edge>& edges,
                                      const std::vector<double>& affinity,
                                      double fraction);

/// Mean of neighbour attribute rows (D^-1 A X); isolated nodes get zeros.
Tensor NeighborMean(const SingleView& view, const Tensor& x);

/// Per-node cosine *distance* between x rows and y rows in [0, 2].
std::vector<double> RowCosineDistance(const Tensor& x, const Tensor& y);

/// Per-node L2 distance between rows.
std::vector<double> RowL2(const Tensor& x, const Tensor& y);

/// Weighted sum of standardised components (weights need not sum to 1).
std::vector<double> CombineStandardized(
    const std::vector<std::vector<double>>& parts,
    const std::vector<double>& weights);

/// Number of training epochs all GNN baselines use (comparable to UMGAD's
/// default; Fig. 7 reports per-epoch and total runtime).
inline constexpr int kBaselineEpochs = 60;
inline constexpr float kBaselineLr = 5e-3f;
inline constexpr int kBaselineHidden = 48;

/// Hard community assignment by synchronous label propagation (defined in
/// comga.cc; shared with DualGAD's cluster guidance).
std::vector<int> LabelPropagationCommunities(const SparseMatrix& adj,
                                             int rounds, Rng* rng);

/// Row-stochastic (|sets| x n) operator whose row i averages the rows in
/// sets[i]; Spmm with an embedding matrix yields per-set context vectors.
std::shared_ptr<const SparseMatrix> BuildContextOperator(
    int n, const std::vector<std::vector<int>>& sets);

/// sigmoid(a_i . b_i) per row (no gradients; scoring passes).
std::vector<double> RowDotSigmoid(const Tensor& a, const Tensor& b);

/// `count` node ids sampled without replacement (count clamped to n).
std::vector<int> SampleBatch(int n, int count, Rng* rng);

/// RWR contexts of `size` nodes for every node id in `seeds`, excluding the
/// seed itself from its own context when possible.
std::vector<std::vector<int>> RwrContexts(const SparseMatrix& adj,
                                          const std::vector<int>& seeds,
                                          int size, Rng* rng);

/// Context operator (BuildContextOperator) over the RWR contexts of
/// `seeds`: row i averages seeds[i]'s context. The workhorse of the
/// subgraph-contrastive baselines (CoLA, ANEMONE, GRADATE, ...).
std::shared_ptr<const SparseMatrix> RwrContextOperator(
    const SparseMatrix& adj, const std::vector<int>& seeds, int size,
    Rng* rng);

/// Node-context discrimination loss terms: BCE that pulls anchor_i . ctx_i
/// up and anchor_i . ctx_perm(i) down. Returned unsummed, positive first,
/// so each caller keeps its own loss grouping.
std::vector<ag::VarPtr> ContrastTerms(const ag::VarPtr& anchor,
                                      const ag::VarPtr& ctx,
                                      const std::vector<int>& perm);

/// Node-context discrimination gap per node, the contrastive baselines'
/// anomaly score: sigmoid(h_i . ctx_p(i)) - sigmoid(h_i . ctx_i) for a
/// permutation p drawn from `rng`. High when a node agrees with a random
/// context more than with its own.
std::vector<double> DiscriminationGap(const Tensor& h, const Tensor& ctx,
                                      Rng* rng);

/// DiscriminationGap against every node's RWR context of `size` nodes,
/// averaged over `rounds` fresh draws.
std::vector<double> RwrContextGap(const SparseMatrix& adj, const Tensor& h,
                                  int size, int rounds, Rng* rng);

/// Global-context loss of GCCAD and GADAM: BCE that pulls each row of `h`
/// toward the mean row of `h` and each row of `h_bad` (the embedding of a
/// row-shuffled input) away from it.
ag::VarPtr GlobalContextBce(const ag::VarPtr& h, const ag::VarPtr& h_bad);

/// Structure-decoder loss of the GAE baselines (DOMINANT, AnomalyDAE):
/// inner-product BCE over up to 1024 edges sampled from `edges`, each
/// followed by one uniformly random node pair as its negative.
ag::VarPtr SampledEdgeBce(const ag::VarPtr& h, const std::vector<Edge>& edges,
                          Rng* rng);

}  // namespace baselines
}  // namespace umgad

#endif  // UMGAD_BASELINES_COMMON_H_
