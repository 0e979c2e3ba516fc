// Differential oracle for the sharded serving front-end: after any
// submitted-and-drained update stream, ShardRouter's published snapshot
// must be bit-identical to a flat single-scorer OnlineScorer (and through
// it to RescoreFullNaive) for every shards x UMGAD_THREADS x arena-mode
// combination — including streams with invalid updates (rejected in
// order, identically on every replica) and insert/remove toggles split
// across bursts. Also covers the owner-masked component-provider mode of
// OnlineScorer directly, Query/Snapshot semantics, the publish rule (one
// snapshot per advance of the stream position), Stats() counters, and
// Create's option validation.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/model_io.h"
#include "core/umgad.h"
#include "graph/datasets.h"
#include "oracle_harness.h"
#include "serve/dynamic_adjacency.h"
#include "serve/online_scorer.h"
#include "serve/shard_router.h"

namespace umgad {
namespace {

using serve::DynamicAdjacency;
using serve::EdgeUpdate;
using serve::OnlineScorer;
using serve::RouterOptions;
using serve::RouterStats;
using serve::ScoreSnapshot;
using serve::ServeOptions;
using serve::ShardRouter;
using ::umgad::testing::OracleSweep;

UmgadConfig ServeConfig() {
  UmgadConfig config;
  config.epochs = 2;
  config.hidden_dim = 8;
  config.mask_repeats = 1;
  config.num_subgraphs = 1;
  config.subgraph_size = 4;
  config.num_score_negatives = 2;
  config.seed = 5;
  return config;
}

/// Train once per process; every test below reads from this snapshot.
struct RouterFixture {
  MultiplexGraph graph = MakeTiny(123);
  UmgadModel model{ServeConfig()};
  TrainedModel trained;

  RouterFixture() {
    UMGAD_CHECK(model.Fit(graph).ok());
    auto snapshot = TrainedModel::FromFitted(model, graph);
    UMGAD_CHECK(snapshot.ok());
    trained = *std::move(snapshot);
  }
};

const RouterFixture& Fixture() {
  static const RouterFixture* fixture = new RouterFixture();
  return *fixture;
}

/// Deterministic valid toggle sequence (same construction as the flat
/// serve oracle's): inserts always hit absent edges, removals present ones.
std::vector<EdgeUpdate> MakeUpdateSequence(const MultiplexGraph& graph,
                                           int count, uint64_t seed) {
  std::vector<DynamicAdjacency> mirror;
  for (int r = 0; r < graph.num_relations(); ++r) {
    mirror.emplace_back(graph.layer(r));
  }
  Rng rng(seed);
  std::vector<EdgeUpdate> updates;
  while (static_cast<int>(updates.size()) < count) {
    EdgeUpdate u;
    u.relation = static_cast<int>(rng.UniformInt(graph.num_relations()));
    u.src = static_cast<int>(rng.UniformInt(graph.num_nodes()));
    u.dst = static_cast<int>(rng.UniformInt(graph.num_nodes()));
    if (u.src == u.dst) continue;
    u.add = !mirror[u.relation].Has(u.src, u.dst);
    if (u.add) {
      mirror[u.relation].AddEntry(u.src, u.dst, 1.0f);
      mirror[u.relation].AddEntry(u.dst, u.src, 1.0f);
    } else {
      mirror[u.relation].RemoveEntry(u.src, u.dst);
      mirror[u.relation].RemoveEntry(u.dst, u.src);
    }
    updates.push_back(u);
  }
  return updates;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << label << " node " << i;
  }
}

/// The flat oracle with the router's apply discipline: one update at a
/// time, invalid updates skipped (counted), in stream order.
struct FlatRun {
  std::vector<double> initial;
  std::vector<double> final_scores;
  std::vector<double> full_rescore;
  int64_t rejected = 0;
};

FlatRun RunFlat(const std::vector<EdgeUpdate>& updates) {
  auto scorer = OnlineScorer::Create(Fixture().trained, Fixture().graph);
  UMGAD_CHECK(scorer.ok());
  FlatRun run;
  run.initial = (*scorer)->scores();
  for (const EdgeUpdate& u : updates) {
    if (!(*scorer)->ApplyEdgeUpdate(u).ok()) ++run.rejected;
  }
  run.final_scores = (*scorer)->scores();
  run.full_rescore = (*scorer)->RescoreFullNaive();
  return run;
}

Result<std::unique_ptr<ShardRouter>> MakeRouter(int shards,
                                                RouterOptions options = {}) {
  options.num_shards = shards;
  return ShardRouter::Create(Fixture().trained, Fixture().graph, options);
}

// ------------------------- the sharded oracle sweep -----------------------

TEST(ShardRouterTest, DrainedRouterMatchesFlatOracleAcrossGrid) {
  const std::vector<EdgeUpdate> updates =
      MakeUpdateSequence(Fixture().graph, 12, /*seed=*/31);
  const OracleSweep sweep;  // {1, 4} threads x arena on/off
  const bool prev_arena = ArenaEnabled();
  SetNumThreads(1);
  SetArenaEnabled(true);
  const FlatRun flat = RunFlat(updates);
  ExpectSameBits(flat.final_scores, flat.full_rescore, "flat self-check");
  EXPECT_EQ(flat.rejected, 0);

  for (bool arena : sweep.arena_modes) {
    for (int threads : sweep.thread_counts) {
      for (int shards : {1, 2, 4}) {
        SetArenaEnabled(arena);
        SetNumThreads(threads);
        const std::string label = "shards=" + std::to_string(shards) +
                                  " threads=" + std::to_string(threads) +
                                  " arena=" + (arena ? "1" : "0");
        RouterOptions options;
        options.max_burst = 3;  // force mid-stream burst boundaries
        auto router = MakeRouter(shards, options);
        ASSERT_TRUE(router.ok()) << label << ": "
                                 << router.status().ToString();
        // The initial snapshot is epoch 1, stream-consistent, and equal to
        // the flat scorer's initial pass.
        auto initial = (*router)->Snapshot();
        ASSERT_NE(initial, nullptr) << label;
        EXPECT_EQ(initial->epoch, 1u) << label;
        EXPECT_TRUE(initial->stream_consistent) << label;
        ExpectSameBits(initial->scores, flat.initial, label + " init");

        EXPECT_EQ((*router)->Submit(updates),
                  static_cast<int64_t>(updates.size()))
            << label;
        (*router)->Flush();
        auto drained = (*router)->Snapshot();
        EXPECT_TRUE(drained->stream_consistent) << label;
        EXPECT_EQ(drained->max_applied,
                  static_cast<int64_t>(updates.size()))
            << label;
        ExpectSameBits(drained->scores, flat.final_scores, label);
      }
    }
  }
  SetNumThreads(1);
  SetArenaEnabled(prev_arena);
}

TEST(ShardRouterTest, InvalidUpdatesRejectIdenticallyOnEveryReplica) {
  // A stream salted with updates that fail validation mid-stream: a
  // duplicate insert (FailedPrecondition once the first insert landed), a
  // removal of an absent edge, an out-of-range node, and a self-loop.
  // Every shard must reject exactly the same set, in order, regardless of
  // how its queue chopped the stream into bursts.
  const std::vector<EdgeUpdate> valid =
      MakeUpdateSequence(Fixture().graph, 8, /*seed=*/53);
  const int n = Fixture().graph.num_nodes();
  std::vector<EdgeUpdate> updates;
  for (size_t k = 0; k < valid.size(); ++k) {
    updates.push_back(valid[k]);
    if (k == 1) updates.push_back(valid[1]);  // duplicate toggle: invalid
    if (k == 3) {
      EdgeUpdate bad = valid[3];
      bad.dst = n;  // out of range
      updates.push_back(bad);
    }
    if (k == 5) {
      EdgeUpdate loop;
      loop.relation = 0;
      loop.src = 2;
      loop.dst = 2;
      updates.push_back(loop);
    }
  }
  const FlatRun flat = RunFlat(updates);
  ASSERT_EQ(flat.rejected, 3);

  for (int shards : {2, 4}) {
    RouterOptions options;
    options.max_burst = 4;
    auto router = MakeRouter(shards, options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    const std::string label = "shards=" + std::to_string(shards);
    (*router)->Submit(updates);
    (*router)->Flush();
    auto snap = (*router)->Snapshot();
    EXPECT_TRUE(snap->stream_consistent) << label;
    // Rejected updates still advance the stream position.
    EXPECT_EQ(snap->max_applied, static_cast<int64_t>(updates.size()))
        << label;
    ExpectSameBits(snap->scores, flat.final_scores, label);

    const RouterStats stats = (*router)->Stats();
    EXPECT_EQ(stats.total_rejected,
              flat.rejected * static_cast<int64_t>(shards))
        << label;
    for (const auto& s : stats.shards) {
      EXPECT_EQ(s.rejected, flat.rejected) << label << " shard " << s.shard;
    }
  }
}

TEST(ShardRouterTest, ToggleAcrossSubmitsConverges) {
  // Insert then remove the same edge, submitted separately so the two legs
  // can land in different bursts on different shards: the drained router
  // must come back to its initial snapshot exactly.
  const MultiplexGraph& graph = Fixture().graph;
  EdgeUpdate insert;
  insert.relation = 0;
  insert.src = 0;
  for (insert.dst = 1; insert.dst < graph.num_nodes(); ++insert.dst) {
    if (!graph.layer(0).Has(insert.src, insert.dst)) break;
  }
  ASSERT_LT(insert.dst, graph.num_nodes());
  insert.add = true;
  EdgeUpdate remove = insert;
  remove.add = false;

  RouterOptions options;
  options.max_burst = 1;  // every update is its own burst
  auto router = MakeRouter(2, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  const std::vector<double> initial = (*router)->Snapshot()->scores;

  (*router)->Submit({insert});
  (*router)->Submit({remove});
  (*router)->Flush();
  ExpectSameBits((*router)->Snapshot()->scores, initial, "toggle");
  EXPECT_EQ((*router)->Stats().total_rejected, 0);
}

TEST(ShardRouterTest, FullQueuesBlockSubmitWithoutLosingUpdates) {
  // A full queue makes Submit wait, never shed: with room for one update
  // per shard, the whole sequence still reaches every replica in order.
  const std::vector<EdgeUpdate> updates =
      MakeUpdateSequence(Fixture().graph, 16, /*seed=*/71);
  RouterOptions options;
  options.queue_capacity = 1;
  options.max_burst = 1;
  auto router = MakeRouter(2, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  EXPECT_EQ((*router)->Submit(updates), static_cast<int64_t>(updates.size()));
  (*router)->Flush();

  const RouterStats stats = (*router)->Stats();
  EXPECT_EQ(stats.total_dropped, 0);
  for (const auto& s : stats.shards) {
    EXPECT_EQ(s.enqueued, static_cast<int64_t>(updates.size()))
        << "shard " << s.shard;
    EXPECT_LE(s.queue_peak, 1) << "shard " << s.shard;
  }
  ExpectSameBits((*router)->Snapshot()->scores, RunFlat(updates).final_scores,
                 "capacity 1");
}

// ------------------------- reads and metrics ------------------------------

TEST(ShardRouterTest, QueryReadsTheLatestSnapshot) {
  auto router = MakeRouter(2);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  const int n = (*router)->num_nodes();
  const std::vector<double>& all = (*router)->Snapshot()->scores;

  auto subset = (*router)->Query({0, n - 1, n / 2});
  ASSERT_TRUE(subset.ok()) << subset.status().ToString();
  ASSERT_EQ(subset->size(), 3u);
  EXPECT_EQ((*subset)[0], all[0]);
  EXPECT_EQ((*subset)[1], all[n - 1]);
  EXPECT_EQ((*subset)[2], all[n / 2]);

  EXPECT_FALSE((*router)->Query({n}).ok());
  EXPECT_FALSE((*router)->Query({-1}).ok());

  // Epochs advance monotonically with published work.
  const uint64_t before = (*router)->Snapshot()->epoch;
  (*router)->Submit(MakeUpdateSequence(Fixture().graph, 4, /*seed=*/83));
  (*router)->Flush();
  EXPECT_GT((*router)->Snapshot()->epoch, before);
}

TEST(ShardRouterTest, LockstepRoundsPublishOnceEach) {
  // One update per Submit + Flush round: only the gather that brings the
  // last shard to the new position publishes, so the epoch advances by
  // exactly one per round, and a concurrent reader only ever sees
  // snapshots with every shard at the same position.
  const int rounds = 8;
  const std::vector<EdgeUpdate> updates =
      MakeUpdateSequence(Fixture().graph, rounds, /*seed=*/43);
  const FlatRun flat = RunFlat(updates);
  for (int shards : {1, 2, 3}) {
    const std::string label = "shards=" + std::to_string(shards);
    auto router = MakeRouter(shards);
    ASSERT_TRUE(router.ok()) << label << ": " << router.status().ToString();
    const uint64_t epoch0 = (*router)->Snapshot()->epoch;

    std::atomic<bool> stop{false};
    std::atomic<int64_t> torn{0};
    std::thread reader([&] {
      while (!stop.load()) {
        const std::shared_ptr<const ScoreSnapshot> snap =
            (*router)->Snapshot();
        if (!snap->stream_consistent) torn.fetch_add(1);
        std::this_thread::yield();
      }
    });
    for (const EdgeUpdate& u : updates) {
      (*router)->Submit({u});
      (*router)->Flush();
    }
    stop.store(true);
    reader.join();

    const std::shared_ptr<const ScoreSnapshot> drained = (*router)->Snapshot();
    EXPECT_EQ(drained->epoch - epoch0, static_cast<uint64_t>(rounds))
        << label;
    EXPECT_EQ(torn.load(), 0) << label;
    EXPECT_EQ(drained->min_applied, rounds) << label;
    EXPECT_TRUE(drained->stream_consistent) << label;
    ExpectSameBits(drained->scores, flat.final_scores, label);
  }
}

TEST(ShardRouterTest, StatsCoverEveryCounter) {
  const std::vector<EdgeUpdate> updates =
      MakeUpdateSequence(Fixture().graph, 10, /*seed=*/97);
  RouterOptions options;
  options.max_burst = 4;
  auto router = MakeRouter(2, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  (*router)->Submit(updates);
  (*router)->Flush();

  const RouterStats stats = (*router)->Stats();
  EXPECT_EQ(stats.num_shards, 2);
  EXPECT_TRUE(stats.stream_consistent);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.total_enqueued, static_cast<int64_t>(2 * updates.size()));
  EXPECT_EQ(stats.total_applied, static_cast<int64_t>(2 * updates.size()));
  EXPECT_EQ(stats.total_rejected, 0);
  EXPECT_EQ(stats.total_dropped, 0);
  // One latency sample per update per shard. Only the gathers that
  // advance the stream position publish, so a shard's own publish count
  // can be zero; the drain ends on a publish, so the total cannot.
  EXPECT_EQ(stats.update_latency.count,
            static_cast<int64_t>(2 * updates.size()));
  EXPECT_GT(stats.publish_latency.count, 0);
  EXPECT_GE(stats.update_latency.p99_us, stats.update_latency.p50_us);
  EXPECT_GE(stats.cache_hit_rate, 0.0);
  EXPECT_LE(stats.cache_hit_rate, 1.0);

  // Round-robin ownership: shard s owns ceil((n - s) / S) nodes.
  const int n = (*router)->num_nodes();
  ASSERT_EQ(stats.shards.size(), 2u);
  for (int s = 0; s < 2; ++s) {
    const auto& shard = stats.shards[s];
    EXPECT_EQ(shard.owned_nodes, (n - s + 1) / 2) << "shard " << s;
    EXPECT_EQ(shard.queue_depth, 0);
    EXPECT_GT(shard.queue_peak, 0);
    EXPECT_EQ(shard.update_latency.count,
              static_cast<int64_t>(updates.size()));
  }
  // The human-readable rendering names the headline fields.
  const std::string text = FormatRouterStats(stats);
  EXPECT_NE(text.find("stream-consistent"), std::string::npos);
  EXPECT_NE(text.find("update latency"), std::string::npos);
  EXPECT_NE(text.find("shard 1"), std::string::npos);
}

// ------------------------- component-provider mode ------------------------

TEST(ShardRouterTest, OwnerMaskedScorerProvidesComponentsOnly) {
  const int n = Fixture().graph.num_nodes();
  ServeOptions masked;
  masked.owned_nodes.assign(n, 0);
  for (int i = 0; i < n; i += 2) masked.owned_nodes[i] = 1;
  auto scorer =
      OnlineScorer::Create(Fixture().trained, Fixture().graph, masked);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  EXPECT_TRUE((*scorer)->component_only());
  EXPECT_TRUE((*scorer)->scores().empty());
  auto query = (*scorer)->Query({0});
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kFailedPrecondition);

  // Owned component slices are bit-identical to the unmasked scorer's —
  // the invariant the router's board gather rests on.
  auto flat = OnlineScorer::Create(Fixture().trained, Fixture().graph);
  ASSERT_TRUE(flat.ok());
  const auto masked_comps = (*scorer)->Components();
  const auto flat_comps = (*flat)->Components();
  ASSERT_EQ(masked_comps.size(), flat_comps.size());
  for (size_t v = 0; v < masked_comps.size(); ++v) {
    ASSERT_EQ(masked_comps[v].attr_used, flat_comps[v].attr_used);
    ASSERT_EQ(masked_comps[v].struct_used, flat_comps[v].struct_used);
    for (int i = 0; i < n; i += 2) {
      if (masked_comps[v].attr_used) {
        EXPECT_EQ((*masked_comps[v].attr_val)[i], (*flat_comps[v].attr_val)[i])
            << "view " << v << " node " << i;
      }
      if (masked_comps[v].struct_used) {
        for (int r = 0; r < Fixture().graph.num_relations(); ++r) {
          EXPECT_EQ((*masked_comps[v].residual)[r][i],
                    (*flat_comps[v].residual)[r][i])
              << "view " << v << " rel " << r << " node " << i;
        }
      }
    }
  }

  // Complementary masks' moments merge exactly into the flat scorer's —
  // what lets the router publish without re-summing n components.
  ServeOptions odd;
  odd.owned_nodes.assign(n, 0);
  for (int i = 1; i < n; i += 2) odd.owned_nodes[i] = 1;
  auto other = OnlineScorer::Create(Fixture().trained, Fixture().graph, odd);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  const auto even_moments = (*scorer)->Moments();
  const auto odd_moments = (*other)->Moments();
  const auto flat_moments = (*flat)->Moments();
  ASSERT_EQ(even_moments.size(), flat_moments.size());
  for (size_t v = 0; v < flat_moments.size(); ++v) {
    serve::ViewMoments merged = even_moments[v];
    merged.attr.Merge(odd_moments[v].attr);
    merged.structure.Merge(odd_moments[v].structure);
    EXPECT_TRUE(merged.attr == flat_moments[v].attr) << "view " << v;
    EXPECT_TRUE(merged.structure == flat_moments[v].structure)
        << "view " << v;
  }

  // A wrongly sized mask is rejected at Create.
  ServeOptions bad;
  bad.owned_nodes.assign(n + 1, 1);
  EXPECT_FALSE(
      OnlineScorer::Create(Fixture().trained, Fixture().graph, bad).ok());
}

// ------------------------- option validation ------------------------------

TEST(ShardRouterTest, CreateValidatesOptions) {
  RouterOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(
      ShardRouter::Create(Fixture().trained, Fixture().graph, options).ok());
  options = RouterOptions();
  options.queue_capacity = 0;
  EXPECT_FALSE(
      ShardRouter::Create(Fixture().trained, Fixture().graph, options).ok());
  options = RouterOptions();
  options.max_burst = 0;
  EXPECT_FALSE(
      ShardRouter::Create(Fixture().trained, Fixture().graph, options).ok());
  // A shard beyond n would own nothing yet still replicate the graph.
  options = RouterOptions();
  options.num_shards = Fixture().graph.num_nodes() + 1;
  EXPECT_FALSE(
      ShardRouter::Create(Fixture().trained, Fixture().graph, options).ok());

  // Fingerprint mismatches fail the same way the flat scorer's Create does.
  MultiplexGraph other = MakeTiny(124);
  auto mismatch = ShardRouter::Create(Fixture().trained, other);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace umgad
