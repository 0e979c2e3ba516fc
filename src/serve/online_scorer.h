#ifndef UMGAD_SERVE_ONLINE_SCORER_H_
#define UMGAD_SERVE_ONLINE_SCORER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/model_io.h"
#include "core/scorer.h"
#include "graph/multiplex_graph.h"
#include "serve/dynamic_adjacency.h"

namespace umgad {
namespace serve {

/// Options for an OnlineScorer instance. Every node's per-stage rows
/// (projections, propagations, attention outputs) stay resident between
/// updates; an update recomputes only the rows in its dirty fronts.
struct ServeOptions {
  /// Owner mask for sharded serving (ShardRouter). Empty (the default)
  /// means "this scorer owns every node" — the flat, self-contained mode.
  /// When set (size num_nodes, non-zero = owned), the scorer becomes a
  /// *component provider*: it still replicates the full graph (stage rows
  /// are global — a residual reads neighbour and negative embeddings
  /// anywhere), but maintains the per-node score components (attribute
  /// distances, structure residuals), their exact moments (Moments()) and
  /// negative-sample streams only for owned nodes. It cannot z-score
  /// alone — scores() is empty and Query() errors. The per-node components
  /// of owned nodes are
  /// bit-identical to an unmasked scorer's (each node's negatives come
  /// from its own stream; each component is a pure function of the
  /// adjacency, the weights, and that stream), which is what lets
  /// ShardRouter stitch S masked scorers back into the flat oracle's
  /// exact score vector.
  std::vector<uint8_t> owned_nodes;
};

/// One undirected edge mutation of a relation layer. `add == false`
/// removes the edge. Inserted edges carry weight 1.0 (the multiplex layers
/// are unweighted simple graphs).
struct EdgeUpdate {
  int src = 0;
  int dst = 0;
  int relation = 0;
  bool add = true;
};

/// Parses one update-stream line: "+ src dst rel" inserts an edge, "- src
/// dst rel" removes one. Fields are separated by ASCII whitespace; each id
/// must be a whole decimal int. Anything else — a missing or extra field,
/// a number with an unparsed tail ("0.5", "3x"), an out-of-int-range id —
/// is InvalidArgument. Range checks against a graph happen at apply time;
/// skipping blank and '#' comment lines is the stream reader's job.
Result<EdgeUpdate> ParseEdgeUpdateLine(std::string_view line);

/// Serving counters. last_dirty_rows is the number of per-stage rows the
/// most recent update (or burst) recomputed, last_rescored_nodes the number
/// of per-node score components (attribute distances + structure
/// residuals) it recomputed. cache_hits and cache_misses are always 0:
/// every stage row stays resident, so there is no row cache; they are kept
/// because perfbench still reads them.
struct ServeStats {
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t updates_applied = 0;
  int64_t last_dirty_rows = 0;
  int64_t last_rescored_nodes = 0;
};

/// The Eq. 19 component and moment types and the full-vector combine live
/// in core/scorer.h; serve keeps their names. ViewComponents handed out by
/// an OnlineScorer borrow its state and are invalidated by the next Apply*
/// call.
using umgad::CombineComponents;
using umgad::ViewComponents;
using umgad::ViewMoments;

/// Online anomaly-scoring service over a trained-model artifact (Sec. IV-E
/// applied at serving time): load a TrainedModel (.umgm) plus the graph,
/// answer score queries, and absorb a stream of edge inserts/removals by
/// re-scoring only the O(neighbourhood) nodes each update can affect.
///
/// The engine unrolls every active view's GMAE encoder/decoder stack into
/// per-row stages. A stage row calls the per-row piece its batch kernel is
/// built from (MatMulNaiveRow; ag::AttentionLogits and ag::EdgeSoftmaxRow)
/// or walks SparseMatrix::Multiply's row order over the live operator. A
/// node's score components come from NodeResidualTerms, ag::SimplexWeights
/// and RowL2DistanceOf, and the Eq. 19 columns from BuildColumns and
/// MakeColumns. One stage sweep computes every stage row: over all rows
/// (on the thread pool) when the scorer is built, and serially over an
/// update's dirty fronts afterwards. The fronts hold exactly the rows whose
/// inputs changed — degree renormalisation touches the closed
/// neighbourhood of the endpoints, and each propagation stage widens the
/// front by one hop — and are recomputed a stage at a time.
///
/// Determinism: structure-residual negatives come from the per-(view,
/// relation, node) streams of core/scorer.h (NodeNegatives), seeded from
/// the artifact's captured scoring Rng state, so a node's draw is
/// independent of every other node's and can be redrawn alone after an
/// update. Batch scoring draws from the same streams, so on the training
/// graph scores() equals the fitted model's scores and
/// TrainedModel::Score bit for bit. Eq. 19's z-scores read each view's
/// ExactMoments, which an update adjusts by removing and re-adding only
/// the components it re-scored; the moments are exact, so they equal a
/// from-scratch sum bit for bit, and an update costs O(dirty), not O(n).
///
/// Thread-safety contract: an OnlineScorer is **not** internally
/// synchronised. ApplyEdgeUpdate(s) mutates the adjacency replicas, the
/// row caches, the components and their moments in place, so
///   - at most one thread may be inside Apply* at a time, and
///   - no thread may call scores(), Query(), Components(), Moments(),
///     RescoreFullNaive(), SnapshotGraph(), or stats() while another is
///     inside Apply* — a concurrent read observes torn intermediate state
///     (a data race, flagged by TSan).
/// The read methods mutate nothing (there is no cached score vector), so
/// any number of threads may read an idle scorer at once.
/// Distinct OnlineScorer instances share no mutable state and may be
/// driven from different threads freely. Concurrent serving goes through
/// serve/shard_router.h, which serialises writes per shard behind bounded
/// queues and publishes immutable score snapshots that readers access
/// without ever blocking on an update (tests/serve_concurrency_test.cc
/// hammers that path under TSan).
class OnlineScorer {
 public:
  /// Build the serving state: verifies the artifact fingerprint against
  /// `graph`, unrolls the stage pipeline, and runs the initial full pass.
  static Result<std::unique_ptr<OnlineScorer>> Create(
      TrainedModel model, const MultiplexGraph& graph,
      ServeOptions options = ServeOptions());

  ~OnlineScorer();

  /// Current anomaly scores (Eq. 19) for all nodes, built on demand by
  /// ScoreNode from the components and the moments (O(n); Query is the
  /// O(k) lookup). Bit-identical to RescoreFullNaive() after any update
  /// sequence, for any UMGAD_THREADS / arena setting, and to
  /// TrainedModel::Score over the current graph; on the training graph
  /// that is the fitted model's scores (tests/serve_oracle_test.cc). Empty
  /// in owner-masked component mode (the moments cover only owned nodes —
  /// see ServeOptions::owned_nodes).
  std::vector<double> scores() const;

  /// Batched score lookup: ScoreNode per requested node, fanned across the
  /// thread pool, so each entry is bit-identical to scores()[node].
  /// FailedPrecondition in owner-masked component mode.
  Result<std::vector<double>> Query(const std::vector<int>& nodes) const;

  /// Borrowed per-view raw score components (see ViewComponents). In
  /// owner-masked mode only owned nodes' entries are maintained; the rest
  /// hold stale or initial values. Invalidated by the next Apply* call.
  std::vector<ViewComponents> Components() const;

  /// Per-view exact moments of the Eq. 19 columns over the owned nodes
  /// (every node when unmasked). ShardRouter merges S of these.
  std::vector<ViewMoments> Moments() const;

  /// True when ServeOptions::owned_nodes restricted this scorer to a
  /// component provider.
  bool component_only() const;

  /// Apply one undirected edge insert/removal and re-score the affected
  /// nodes. Rejects out-of-range endpoints/relation, self loops, inserting
  /// a present edge, and removing an absent one (state is untouched on
  /// error).
  Status ApplyEdgeUpdate(const EdgeUpdate& update);

  /// Apply a burst of edge updates as one coalesced re-score pass: the
  /// updates are validated and applied sequentially first (rolling back the
  /// applied prefix if one fails, so the state is untouched on error), then
  /// each relation's dirty fronts are unioned and every affected row is
  /// recomputed once for the whole burst. Bit-identical to applying the
  /// updates one at a time through ApplyEdgeUpdate.
  Status ApplyEdgeUpdates(const std::vector<EdgeUpdate>& updates);

  /// Serial from-scratch batch recompute with the serving kernels and
  /// per-node negative streams: the differential oracle the incremental
  /// path is pinned against (mirrors the repo's *Naive convention). Does
  /// not touch the cached state; the moments are rebuilt from scratch too.
  /// In owner-masked mode the result is empty; the sharded oracle
  /// comparisons run against a separate unmasked scorer instead
  /// (tests/shard_router_test.cc).
  std::vector<double> RescoreFullNaive() const;

  /// Immutable copy of the current (possibly mutated) graph.
  MultiplexGraph SnapshotGraph() const;

  const ServeStats& stats() const { return stats_; }
  const TrainedModel& model() const { return model_; }
  int num_nodes() const;
  int num_relations() const;

 private:
  struct Impl;
  OnlineScorer();

  TrainedModel model_;
  ServeStats stats_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace serve
}  // namespace umgad

#endif  // UMGAD_SERVE_ONLINE_SCORER_H_
