#ifndef UMGAD_SERVE_SHARD_ROUTER_H_
#define UMGAD_SERVE_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/model_io.h"
#include "graph/multiplex_graph.h"
#include "serve/online_scorer.h"
#include "serve/serve_metrics.h"

namespace umgad {
namespace serve {

/// Knobs for a ShardRouter.
struct RouterOptions {
  /// Number of shards S, 1 <= S <= num_nodes. Each shard is an
  /// owner-masked OnlineScorer replica of the whole graph drained by its
  /// own worker thread. Shard s owns the nodes i with i % S == s, so the
  /// shards split the per-node component work evenly.
  int num_shards = 1;
  /// Bounded per-shard update-queue capacity (in updates).
  int queue_capacity = 4096;
  /// Max updates a worker coalesces into one ApplyEdgeUpdates pass.
  int max_burst = 64;
};

/// One published score vector. Immutable once published; readers hold it
/// via shared_ptr, so a snapshot stays valid for as long as any reader
/// keeps it — publishes never invalidate an in-flight read.
struct ScoreSnapshot {
  /// Publish counter (strictly increasing; 1 = the initial full pass). A
  /// publish happens only when a gather raises min_applied, so the epoch
  /// counts advances of the stream position, not bursts.
  uint64_t epoch = 0;
  /// Min/max over shards of the stream position (updates dequeued,
  /// rejected included) the publishing gather observed.
  int64_t min_applied = 0;
  int64_t max_applied = 0;
  /// min_applied == max_applied: every shard had processed the same
  /// prefix of the update stream, so `scores` is bit-identical to a flat
  /// OnlineScorer at that position. Always true for the snapshot visible
  /// after Flush(). When false the snapshot is still never torn — it is
  /// one atomic publish over a consistent board — but mixes shards at
  /// different stream positions (see ARCHITECTURE.md §12).
  bool stream_consistent = false;
  std::vector<double> scores;
};

/// Sharded, snapshot-consistent serving front-end over S owner-masked
/// OnlineScorer replicas (ROADMAP item 5: concurrent update bursts must
/// not serialize on one scorer, and reads must never tear).
///
/// Architecture (ARCHITECTURE.md §12 has the diagram):
///  - Ownership: node i belongs to shard i % S. Shard s maintains score
///    components for its owned nodes only, but replicates the full
///    adjacency and every stage row (an edge reaches every shard, so
///    dirty-front propagation is exact everywhere). Ownership therefore
///    only balances the component work; it never changes a score.
///  - Writes: Submit() broadcasts each update to every shard's bounded
///    queue under a router order lock (all replicas consume the same
///    stream in the same order — the invariant that keeps them
///    convergent). A per-shard worker drains its queue in bursts through
///    ApplyEdgeUpdates; an invalid update inside a burst falls back to
///    deterministic one-at-a-time apply-or-skip, so the final state is
///    independent of how the stream was chopped into bursts.
///  - Reads: after a burst, the worker copies the two Eq. 19 column
///    entries of every owned node its scorer re-scored
///    (OnlineScorer::TakeChangedNodes) and its exact moments onto a shared
///    board. If that gather raises the board's minimum stream position,
///    the worker publishes: it merges the S shards' moments exactly (they
///    cover disjoint owned sets, so the merge equals the flat scorer's
///    moments), runs the per-node ScoreNode mix — no re-summing of n
///    components — and publishes the result as an immutable ScoreSnapshot
///    behind one atomic pointer swap with a monotone epoch. A gather that
///    leaves the minimum where it was publishes nothing, so a shard's
///    publish count (Stats()) can be zero. Query()/Snapshot() only ever
///    touch that pointer: readers never block on update application,
///    never observe a torn vector, and a drained router is bit-identical
///    to the flat single-scorer oracle (tests/shard_router_test.cc,
///    tests/serve_concurrency_test.cc).
///
/// Thread-safety: Submit/Flush/Query/Snapshot/Stats are safe from any
/// number of threads. The destructor drains already-queued updates, then
/// joins the workers; no Submit/Flush/Query may race the destructor (the
/// usual single-owner teardown rule).
class ShardRouter {
 public:
  static Result<std::unique_ptr<ShardRouter>> Create(
      TrainedModel model, const MultiplexGraph& graph,
      RouterOptions options = RouterOptions());

  ~ShardRouter();

  /// The latest published snapshot (never null after Create).
  std::shared_ptr<const ScoreSnapshot> Snapshot() const;

  /// Score lookup against the latest snapshot. OutOfRange on a bad node
  /// id; never blocks on in-flight updates.
  Result<std::vector<double>> Query(const std::vector<int>& nodes) const;

  /// Enqueue the updates to every shard, in order, blocking while a
  /// shard's queue is full (counted as backpressure_waits). Returns the
  /// number enqueued: updates.size(), or fewer only when the router is
  /// being destroyed. Invalid updates are accepted here and rejected
  /// (counted, skipped) at apply time — rejection must happen in stream
  /// order on every shard.
  int64_t Submit(const std::vector<EdgeUpdate>& updates);

  /// Block until every update submitted before this call has been applied
  /// and the resulting snapshot (stream_consistent == true) is published.
  void Flush();

  /// Point-in-time metrics over all shards.
  RouterStats Stats() const;

  int num_nodes() const;

 private:
  ShardRouter();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace serve
}  // namespace umgad

#endif  // UMGAD_SERVE_SHARD_ROUTER_H_
