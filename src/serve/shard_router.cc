#include "serve/shard_router.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/timer.h"

namespace umgad {
namespace serve {

// ---------------------------------------------------------------------------
// Impl
// ---------------------------------------------------------------------------

struct ShardRouter::Impl {
  int n = 0;
  float epsilon = 0.0f;
  RouterOptions options;
  // Per shard: its owned node ids, ascending.
  std::vector<std::vector<int>> owned_lists;

  /// One shard: an owner-masked scorer, its bounded MPSC queue, and the
  /// worker thread that drains it. The queue invariants:
  ///  - only Submit() (under submit_mu) pushes, so every shard sees the
  ///    same updates in the same order;
  ///  - only the shard's worker pops, so the scorer is single-writer.
  struct Shard {
    std::unique_ptr<OnlineScorer> scorer;
    std::thread worker;

    std::mutex mu;
    std::condition_variable can_push;  // space freed
    std::condition_variable can_pop;   // items arrived or stopping
    std::condition_variable idle;      // queue empty and worker not busy
    std::deque<EdgeUpdate> queue;
    bool busy = false;
    bool stop = false;
    int64_t queue_peak = 0;

    std::atomic<int64_t> enqueued{0};
    std::atomic<int64_t> applied{0};
    std::atomic<int64_t> rejected{0};
    std::atomic<int64_t> backpressure_waits{0};
    LatencyHistogram update_hist;
    LatencyHistogram publish_hist;
  };
  std::vector<std::unique_ptr<Shard>> shards;

  /// Serialises producers: the broadcast to all queues must be atomic so
  /// every replica consumes one global update order (shard replicas that
  /// saw different orders could diverge permanently).
  std::mutex submit_mu;

  /// The component board: every shard's owned slices of each view's two
  /// Eq. 19 columns, each shard's exact moments of them, each shard's
  /// stream position at its last gather, and the minimum position of the
  /// last published snapshot. Guarded by board_mu; the publish path
  /// (gather + moment merge + per-node mix + snapshot swap) runs entirely
  /// under it.
  struct BoardView {
    bool attr_used = false;
    bool struct_used = false;
    std::vector<double> attr_val;   // n
    std::vector<double> structure;  // n, relation-averaged residuals
  };
  std::mutex board_mu;
  std::vector<BoardView> board;
  std::vector<std::vector<ViewMoments>> board_moments;  // [shard][view]
  std::vector<int64_t> board_pos;
  int64_t published_min = 0;
  uint64_t epoch = 0;

  /// Readers go through std::atomic_load on this pointer only.
  std::shared_ptr<const ScoreSnapshot> snapshot;

  void CopyComponentsLocked(int s, const std::vector<int>& nodes);
  void PublishLocked(LatencyHistogram* hist);
  void WorkerLoop(int s);
};

/// Copies shard s's components of `nodes` (all owned by s) and its moments
/// onto the board: every owned node at Create, afterwards only the nodes
/// the shard's scorer reports as re-scored since its last gather.
void ShardRouter::Impl::CopyComponentsLocked(int s,
                                             const std::vector<int>& nodes) {
  const OnlineScorer& scorer = *shards[s]->scorer;
  const std::vector<ViewComponents> comps = scorer.Components();
  for (size_t v = 0; v < board.size(); ++v) {
    BoardView& bv = board[v];
    if (bv.attr_used) {
      const std::vector<double>& src = *comps[v].attr_val;
      for (int i : nodes) bv.attr_val[i] = src[i];
    }
    if (bv.struct_used) {
      for (int i : nodes) bv.structure[i] = RelationMean(*comps[v].residual, i);
    }
  }
  board_moments[s] = scorer.Moments();
}

void ShardRouter::Impl::PublishLocked(LatencyHistogram* hist) {
  WallTimer timer;
  // The shards' moments cover disjoint owned sets; their exact merge is
  // the flat scorer's moments, so only the per-node mix touches n values.
  std::vector<ViewColumns> columns(board.size());
  for (size_t v = 0; v < board.size(); ++v) {
    ViewMoments merged;
    for (const std::vector<ViewMoments>& shard : board_moments) {
      merged.attr.Merge(shard[v].attr);
      merged.structure.Merge(shard[v].structure);
    }
    const BoardView& bv = board[v];
    columns[v] =
        MakeColumns(bv.attr_used ? bv.attr_val.data() : nullptr,
                    bv.struct_used ? bv.structure.data() : nullptr, merged);
  }
  auto snap = std::make_shared<ScoreSnapshot>();
  snap->epoch = ++epoch;
  snap->min_applied = board_pos.empty() ? 0 : board_pos[0];
  snap->max_applied = snap->min_applied;
  for (int64_t p : board_pos) {
    snap->min_applied = std::min(snap->min_applied, p);
    snap->max_applied = std::max(snap->max_applied, p);
  }
  snap->stream_consistent = snap->min_applied == snap->max_applied;
  published_min = snap->min_applied;
  snap->scores = ScoreAllNodes(columns, epsilon, n);
  std::atomic_store(&snapshot,
                    std::shared_ptr<const ScoreSnapshot>(std::move(snap)));
  if (hist != nullptr) hist->Record(timer.ElapsedMillis() * 1000.0);
}

void ShardRouter::Impl::WorkerLoop(int s) {
  Shard& sh = *shards[s];
  int64_t pos = 0;  // stream position; worker-local, exported via the board
  std::vector<EdgeUpdate> burst;
  const int max_burst = options.max_burst;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(sh.mu);
      sh.can_pop.wait(lock, [&] { return sh.stop || !sh.queue.empty(); });
      if (sh.queue.empty()) return;  // stop requested, nothing left to do
      burst.clear();
      while (!sh.queue.empty() &&
             static_cast<int>(burst.size()) < max_burst) {
        burst.push_back(sh.queue.front());
        sh.queue.pop_front();
      }
      sh.busy = true;
    }
    sh.can_push.notify_all();

    WallTimer timer;
    Status status = sh.scorer->ApplyEdgeUpdates(burst);
    int64_t burst_rejected = 0;
    if (!status.ok()) {
      // Deterministic fallback: apply one at a time, skipping invalid
      // updates. Each update's validity depends only on the adjacency
      // after the previous accepted updates, so the final state is
      // independent of how the stream was chopped into bursts — every
      // shard converges to the same replica no matter its queue timing.
      for (const EdgeUpdate& u : burst) {
        if (!sh.scorer->ApplyEdgeUpdate(u).ok()) ++burst_rejected;
      }
    }
    pos += static_cast<int64_t>(burst.size());
    const double per_update_us =
        timer.ElapsedMillis() * 1000.0 / static_cast<double>(burst.size());
    for (size_t i = 0; i < burst.size(); ++i) {
      sh.update_hist.Record(per_update_us);
    }
    sh.applied.fetch_add(
        static_cast<int64_t>(burst.size()) - burst_rejected,
        std::memory_order_relaxed);
    sh.rejected.fetch_add(burst_rejected, std::memory_order_relaxed);

    const std::vector<int> changed = sh.scorer->TakeChangedNodes();
    {
      std::lock_guard<std::mutex> lock(board_mu);
      CopyComponentsLocked(s, changed);
      board_pos[s] = pos;
      // Only a gather that raises the board's minimum position publishes;
      // any other snapshot would show readers no new stream position. The
      // last shard to reach a position always raises the minimum, so the
      // gather that ends a Flush() publishes the stream-consistent one.
      if (*std::min_element(board_pos.begin(), board_pos.end()) >
          published_min) {
        PublishLocked(&sh.publish_hist);
      }
    }

    {
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.busy = false;
      if (sh.queue.empty()) sh.idle.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------------

ShardRouter::ShardRouter() = default;

ShardRouter::~ShardRouter() {
  if (impl_ == nullptr) return;
  for (auto& sh : impl_->shards) {
    if (sh == nullptr) continue;
    {
      std::lock_guard<std::mutex> lock(sh->mu);
      sh->stop = true;
    }
    sh->can_pop.notify_all();
    sh->can_push.notify_all();
  }
  for (auto& sh : impl_->shards) {
    if (sh != nullptr && sh->worker.joinable()) sh->worker.join();
  }
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    TrainedModel model, const MultiplexGraph& graph, RouterOptions options) {
  if (options.num_shards < 1 || options.num_shards > graph.num_nodes()) {
    return Status::InvalidArgument(
        "ShardRouter needs 1 <= num_shards <= num_nodes (" +
        std::to_string(graph.num_nodes()) + "), got " +
        std::to_string(options.num_shards));
  }
  if (options.queue_capacity < 1 || options.max_burst < 1) {
    return Status::InvalidArgument(
        "ShardRouter needs queue_capacity >= 1 and max_burst >= 1");
  }

  std::unique_ptr<ShardRouter> router(new ShardRouter());
  router->impl_ = std::make_unique<Impl>();
  Impl& impl = *router->impl_;
  impl.options = options;
  impl.n = graph.num_nodes();
  impl.epsilon = model.config().epsilon;

  // Round-robin ownership: every shard replicates the whole graph, so
  // ownership needs balance, not locality.
  impl.owned_lists.assign(options.num_shards, {});
  for (int i = 0; i < impl.n; ++i) {
    impl.owned_lists[i % options.num_shards].push_back(i);
  }

  // Build the S owner-masked scorer replicas. Each runs its own initial
  // full pass (stage rows are global; components owner-only).
  impl.shards.resize(options.num_shards);
  for (int s = 0; s < options.num_shards; ++s) {
    ServeOptions so;
    so.owned_nodes.assign(impl.n, 0);
    for (int i : impl.owned_lists[s]) so.owned_nodes[i] = 1;
    UMGAD_ASSIGN_OR_RETURN(std::unique_ptr<OnlineScorer> scorer,
                           OnlineScorer::Create(model, graph, so));
    impl.shards[s] = std::make_unique<Impl::Shard>();
    impl.shards[s]->scorer = std::move(scorer);
  }

  // Board layout mirrors the scorers' view structure; the initial gather
  // over every shard publishes epoch 1 (stream-consistent at position 0,
  // bit-identical to a flat scorer's initial scores).
  const std::vector<ViewComponents> layout =
      impl.shards[0]->scorer->Components();
  impl.board.resize(layout.size());
  for (size_t v = 0; v < layout.size(); ++v) {
    impl.board[v].attr_used = layout[v].attr_used;
    impl.board[v].struct_used = layout[v].struct_used;
    if (layout[v].attr_used) impl.board[v].attr_val.assign(impl.n, 0.0);
    if (layout[v].struct_used) impl.board[v].structure.assign(impl.n, 0.0);
  }
  impl.board_moments.resize(options.num_shards);
  impl.board_pos.assign(options.num_shards, 0);
  {
    std::lock_guard<std::mutex> lock(impl.board_mu);
    for (int s = 0; s < options.num_shards; ++s) {
      impl.CopyComponentsLocked(s, impl.owned_lists[s]);
    }
    impl.PublishLocked(nullptr);
  }

  for (int s = 0; s < options.num_shards; ++s) {
    impl.shards[s]->worker = std::thread(&Impl::WorkerLoop, &impl, s);
  }
  return router;
}

std::shared_ptr<const ScoreSnapshot> ShardRouter::Snapshot() const {
  return std::atomic_load(&impl_->snapshot);
}

Result<std::vector<double>> ShardRouter::Query(
    const std::vector<int>& nodes) const {
  const std::shared_ptr<const ScoreSnapshot> snap = Snapshot();
  for (int node : nodes) {
    if (node < 0 || node >= impl_->n) {
      return Status::OutOfRange("query node out of range");
    }
  }
  std::vector<double> out(nodes.size(), 0.0);
  for (size_t k = 0; k < nodes.size(); ++k) out[k] = snap->scores[nodes[k]];
  return out;
}

int64_t ShardRouter::Submit(const std::vector<EdgeUpdate>& updates) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> submit_lock(impl.submit_mu);
  int64_t accepted = 0;
  for (const EdgeUpdate& update : updates) {
    for (auto& sh : impl.shards) {
      std::unique_lock<std::mutex> lock(sh->mu);
      if (static_cast<int>(sh->queue.size()) >= impl.options.queue_capacity) {
        sh->backpressure_waits.fetch_add(1, std::memory_order_relaxed);
        sh->can_push.wait(lock, [&] {
          return sh->stop || static_cast<int>(sh->queue.size()) <
                                 impl.options.queue_capacity;
        });
        if (sh->stop) return accepted;
      }
      sh->queue.push_back(update);
      sh->queue_peak = std::max(
          sh->queue_peak, static_cast<int64_t>(sh->queue.size()));
      sh->enqueued.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      sh->can_pop.notify_one();
    }
    ++accepted;
  }
  return accepted;
}

void ShardRouter::Flush() {
  Impl& impl = *impl_;
  // Holding submit_mu stalls new producers, so "queue empty and worker
  // idle" is a stable condition per shard; the last shard to drain
  // publishes with every board position equal — the stream-consistent
  // snapshot the caller observes after this returns.
  std::lock_guard<std::mutex> submit_lock(impl.submit_mu);
  for (auto& sh : impl.shards) {
    std::unique_lock<std::mutex> lock(sh->mu);
    sh->idle.wait(lock,
                  [&] { return sh->stop || (sh->queue.empty() && !sh->busy); });
  }
}

RouterStats ShardRouter::Stats() const {
  Impl& impl = *impl_;
  RouterStats out;
  out.num_shards = static_cast<int>(impl.shards.size());
  const std::shared_ptr<const ScoreSnapshot> snap = Snapshot();
  out.epoch = snap->epoch;
  out.stream_consistent = snap->stream_consistent;

  std::vector<const LatencyHistogram*> update_hists;
  std::vector<const LatencyHistogram*> publish_hists;
  for (size_t s = 0; s < impl.shards.size(); ++s) {
    Impl::Shard& sh = *impl.shards[s];
    ShardStatsSnapshot ss;
    ss.shard = static_cast<int>(s);
    ss.owned_nodes = static_cast<int>(impl.owned_lists[s].size());
    ss.enqueued = sh.enqueued.load(std::memory_order_relaxed);
    ss.applied = sh.applied.load(std::memory_order_relaxed);
    ss.rejected = sh.rejected.load(std::memory_order_relaxed);
    ss.backpressure_waits =
        sh.backpressure_waits.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      ss.queue_depth = static_cast<int64_t>(sh.queue.size());
      ss.queue_peak = sh.queue_peak;
    }
    ss.update_latency = SnapshotHistograms({&sh.update_hist});
    ss.publish_latency = SnapshotHistograms({&sh.publish_hist});

    out.total_enqueued += ss.enqueued;
    out.total_applied += ss.applied;
    out.total_rejected += ss.rejected;
    out.total_backpressure_waits += ss.backpressure_waits;
    out.queue_depth += ss.queue_depth;
    update_hists.push_back(&sh.update_hist);
    publish_hists.push_back(&sh.publish_hist);
    out.shards.push_back(std::move(ss));
  }
  out.update_latency = SnapshotHistograms(update_hists);
  out.publish_latency = SnapshotHistograms(publish_hists);
  return out;
}

int ShardRouter::num_nodes() const { return impl_->n; }

}  // namespace serve
}  // namespace umgad
