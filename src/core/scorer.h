#ifndef UMGAD_CORE_SCORER_H_
#define UMGAD_CORE_SCORER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/views.h"
#include "graph/graph_ops.h"
#include "graph/multiplex_graph.h"

namespace umgad {

/// The structure residual's negatives come from one Rng stream per (view,
/// relation, node), so a node's draw depends only on its seed and its own
/// adjacency row: batch scoring fans nodes across the pool and serving
/// redraws one node, both bit-identical to a serial pass. All streams
/// derive from one draw of the scoring pass's Rng (Fit's, or the state a
/// .umgm artifact restores).
uint64_t NegativeStreamBase(Rng* rng);
/// Seed of one (view, relation)'s streams.
uint64_t NegativeStreamSeed(uint64_t base, int view, int rel);
/// Seed of node `node`'s stream among those of `stream_seed`.
uint64_t NodeStreamSeed(uint64_t stream_seed, int node);

/// Writes node `node`'s negatives (row length `degree`) to *out: none when
/// `count` <= 0 or the node neighbours every other node, else exactly
/// `count` (repeats possible). `Adj` is SparseMatrix (batch) or
/// serve::DynamicAdjacency.
template <typename Adj>
void NodeNegatives(const Adj& adj, int node, int degree, int count,
                   uint64_t stream_seed, std::vector<int>* out) {
  out->clear();
  if (count <= 0 || adj.rows() - 1 - degree <= 0) return;
  Rng rng(NodeStreamSeed(stream_seed, node));
  SampleNonNeighbors(adj, node, count, &rng, out);
}

/// The terms of node i's structure residual (see StructureResidual). Batch
/// scoring, the serving engine and its oracle build every sampled residual
/// from these functions, each term and each sum in one fixed order,
/// so a residual re-summed from cached terms equals a fresh one bit for
/// bit.
///
/// edge_err: the edge terms 1 - sig(z_i . z_j) over the `degree`
/// neighbours neighbors[], summed in neighbour order.
double EdgeError(const Tensor& z, int i, const int* neighbors, int degree);
/// One leak term: sig(z_i . z_u) for a negative u of node i.
double LeakTerm(const Tensor& z, int i, int u);
/// out[k] = LeakTerm(z, i, negatives[k]) for k < count, bit for bit, with
/// the dots run four at a time (DotChains).
void LeakTerms(const Tensor& z, int i, const int* negatives, int count,
               double* out);
/// The leak: the mean of term(0), ..., term(count - 1), summed in that
/// order, or 0 when count == 0.
template <typename Term>
double MeanLeak(int count, Term&& term) {
  if (count == 0) return 0.0;
  double sum = 0.0;
  for (int k = 0; k < count; ++k) sum += term(k);
  return sum / static_cast<double>(count);
}

struct ResidualTerms {
  double edge_err = 0.0;  // EdgeError
  int degree = 0;
  double leak = 0.0;      // MeanLeak of the negatives' LeakTerms
  /// The degree-normalised residual UMGAD scores with.
  double Normalized() const {
    return (degree > 0 ? edge_err / degree : 0.0) + leak;
  }
};
/// Node i's terms over its `degree` neighbours neighbors[] and its drawn
/// `negatives`, all computed afresh.
ResidualTerms NodeResidualTerms(const Tensor& z, int i, const int* neighbors,
                                int degree, const std::vector<int>& negatives);

/// Per-node structure residual of one relation (the ||zeta~ - zeta|| term of
/// Eq. 19): how badly the inner-product decoder sigmoid(z_i . z_j)
/// reconstructs row i of the adjacency.
///
/// Both forms are degree-normalised:
///   residual(i) = mean_{j in N(i)} (1 - sig(z_i.z_j))
///                 + mean_{u not in N(i)} sig(z_i.z_u),
/// i.e. "how badly are my edges predicted" plus "how much probability do I
/// leak onto non-edges". The paper's raw row norm ||A~(i) - A(i)|| grows
/// linearly with degree, which on dense weakly-informative layers (Amazon
/// U-S-U) ranks hubs above true anomalies; normalisation keeps the ranking
/// on predictability. The exact version averages over all non-neighbours
/// (Theta(N) per node, tests/tiny graphs); the sampled version estimates
/// the leak term from `num_negatives` samples, node i's drawn by
/// NodeNegatives from the streams of `stream_seed`.
/// With `degree_normalized == false` the raw row-norm estimate
///   sum_{j in N(i)} (1 - sig) + (N-1-deg_i)/S * sum_samples sig
/// is returned instead — the form the GAE-family papers (DOMINANT,
/// AnomalyDAE, AnomMAN, ...) actually compute, which is hub-biased on
/// dense weakly-informative layers. The baselines use it; UMGAD uses the
/// normalised refinement. Bit-identical at any lane count.
std::vector<double> StructureResidual(const SparseMatrix& adj,
                                      const Tensor& z, int num_negatives,
                                      uint64_t stream_seed,
                                      bool degree_normalized = true);

/// Exact O(N^2 d) version, for tests and tiny graphs.
std::vector<double> StructureResidualExact(const SparseMatrix& adj,
                                           const Tensor& z);

/// Population mean and standard deviation of one score component, frozen
/// for standardisation. A zero stddev (a constant component) maps every
/// value to 0.
struct ZScore {
  double mean = 0.0;
  double stddev = 0.0;
  double operator()(double x) const {
    return stddev == 0.0 ? 0.0 : (x - mean) / stddev;
  }
};

/// Exact, order-independent moments (count, sum x, sum x^2) of a multiset of
/// doubles: the state behind every z-score of Eq. 19.
///
/// Both sums are Kulisch-style long accumulators: fixed-point integers
/// wide enough for any finite double (and any square of one) at a 2^-1074
/// (2^-2148) resolution, held as 32-bit digits in 64-bit limbs so a deposit
/// never carries. A deposit is therefore exact integer addition, and the
/// state — hence Scale() — is bit-identical under any deposit order,
/// chunking, lane count or Merge tree. Remove(x) undoes Add(x) exactly,
/// which is what lets a serving update apply deltas for the nodes it
/// re-scored instead of re-summing all of them.
///
/// Scale() derives mean = sum/n and the stddev from the exact integer
/// n * sum(x^2) - (sum x)^2, each from its top 64 bits (within an ulp or
/// two of the true value): no cancellation when |mean| >> stddev, and a
/// constant multiset has its value as mean and stddev exactly 0. NaN and
/// +-Inf inputs are counted separately: any of them makes the stddev NaN
/// (the mean is NaN, or the infinity's sign when only one sign occurs).
/// The count must stay below 2^32.
class ExactMoments {
 public:
  void Add(double x) { Deposit(&x, 1, 1); }
  void Remove(double x) { Deposit(&x, 1, -1); }
  /// Add(v[i]) for every i.
  void AddAll(const double* v, int64_t n) { Deposit(v, n, 1); }
  void Merge(const ExactMoments& other);

  int64_t count() const { return count_; }
  ZScore Scale() const;

  /// Same multiset sums (compares the carried, canonical form).
  bool operator==(const ExactMoments& other) const;

 private:
  static constexpr int kSumLimbs = 70;
  static constexpr int kSquareLimbs = 136;

  void Deposit(const double* v, int64_t n, int64_t sign);
  void Carry();

  int64_t count_ = 0;
  int64_t pending_ = 0;  // deposits since the last carry
  int64_t nan_ = 0;
  int64_t pos_inf_ = 0;
  int64_t neg_inf_ = 0;
  std::array<int64_t, kSumLimbs> sum_{};        // digit k weighs 2^(32k-1074)
  std::array<int64_t, kSquareLimbs> square_{};  // digit k weighs 2^(32k-2148)
};

/// Exact moments of v[0..n), summed in chunks across the thread pool.
ExactMoments MomentsOf(const double* v, int64_t n);

/// Raw per-node score components of one view: the inputs of Eq. 19 before
/// standardisation. Pointers are null for the branch the view lacks.
struct ViewComponents {
  bool attr_used = false;
  bool struct_used = false;
  /// num_nodes attribute reconstruction distances (null unless attr_used).
  const std::vector<double>* attr_val = nullptr;
  /// [relation][node] structure residuals (null unless struct_used).
  const std::vector<std::vector<double>>* residual = nullptr;
};

/// The structure column of Eq. 19 for node i: its residuals averaged over
/// relations, accumulated in relation order.
double RelationMean(const std::vector<std::vector<double>>& residual, int i);

/// One view's two Eq. 19 columns with their z-scores: per-node attribute
/// distances and relation-averaged residuals, each null when the view
/// lacks that branch.
struct ViewColumns {
  const double* attr = nullptr;
  const double* structure = nullptr;
  ZScore attr_z;
  ZScore structure_z;
};

/// Exact moments of one view's two Eq. 19 columns (attribute distances,
/// relation-averaged residuals) over a set of nodes.
struct ViewMoments {
  ExactMoments attr;
  ExactMoments structure;
};

/// One view's Eq. 19 columns over the nodes i in [0, num_nodes) that
/// `owned` marks (every node when `owned` is empty): writes
/// structure[i] = RelationMean(*view.residual, i) for those nodes when the
/// view has a structure branch, and returns both columns' exact moments
/// over them, summed in chunks across the thread pool.
ViewMoments BuildColumns(const ViewComponents& view, int num_nodes,
                         const std::vector<uint8_t>& owned, double* structure);

/// The ViewColumns of an attribute and a structure column (either null
/// when the view lacks that branch) z-scored by `moments`.
ViewColumns MakeColumns(const double* attr, const double* structure,
                        const ViewMoments& moments);

/// Eq. 19 for one node: per view, eps * z(attr) + (1 - eps) * z(structure)
/// (or the one z-score a single-branch view has), averaged over the views
/// with a branch. Checks that at least one view contributes. Every score
/// vector in the repo is built from this function, so a per-node lookup
/// is bit-identical to the full vector.
double ScoreNode(const std::vector<ViewColumns>& views, float epsilon, int i);

/// ScoreNode for nodes [0, num_nodes), fanned across the thread pool.
std::vector<double> ScoreAllNodes(const std::vector<ViewColumns>& views,
                                  float epsilon, int num_nodes);

/// Eq. 19 over raw components: each view's columns are built by
/// BuildColumns over all nodes and mixed by ScoreNode.
std::vector<double> CombineComponents(const std::vector<ViewComponents>& views,
                                      int num_nodes, int num_relations,
                                      float epsilon);

/// Anomaly scores (Eq. 19): for each view with outputs available,
///   S_v(i) = eps * ||x~_v(i) - x(i)||_2
///            + (1-eps) * mean_r residual_r(i)   (standardised parts),
/// and S(i) is the arithmetic mean over views. Views missing a branch
/// contribute only the branch they have. Builds the components and hands
/// them to CombineComponents. View v, relation r draws from the streams of
/// NegativeStreamSeed(NegativeStreamBase(rng), v, r).
///
/// Both components are z-score standardised over nodes before combination
/// so eps weighs comparable magnitudes — attribute distances and edge
/// predictability residuals live on different scales, and min-max scaling
/// would let a single extreme outlier crush one component's effective
/// weight.
std::vector<double> ComputeAnomalyScores(
    const MultiplexGraph& graph, const std::vector<ViewScoring>& views,
    float epsilon, int num_negatives, Rng* rng);

/// The scoring pass of UmgadModel::Fit and TrainedModel::Score: each
/// view's deterministic Score, then ComputeAnomalyScores. `rng` is in the
/// state captured for scoring (UmgadModel::scoring_rng_state()).
std::vector<double> ScoreViews(
    const std::vector<std::unique_ptr<ReconstructionView>>& views,
    const MultiplexGraph& graph,
    const std::vector<std::shared_ptr<const SparseMatrix>>& norm_adjs,
    const UmgadConfig& config, Rng* rng);

/// Z-score standardise with ExactMoments; constant vectors map to
/// all-zeros.
std::vector<double> Standardize(const std::vector<double>& v);

}  // namespace umgad

#endif  // UMGAD_CORE_SCORER_H_
