// Concurrency and lifetime regression for the serve layer, meant to run
// under TSan and ASan/LSan in CI as well as plain builds:
//  - readers hammer Query()/Snapshot()/Stats() while Submit() streams
//    update bursts through the shard workers — snapshots must never be
//    torn (right size, monotone epochs, coherent min/max positions) and
//    the drained result must still equal the flat oracle bit for bit;
//  - repeated TrainedModel::Load/Score and OnlineScorer/ShardRouter
//    rebuilds must not leak persistent tape nodes: every rebuild runs
//    inside a ParamScope that rewinds the persistent arena region
//    (ROADMAP item 2 — previously each rebuild leaked its parameter
//    leaves for the process lifetime).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/model_io.h"
#include "core/umgad.h"
#include "graph/datasets.h"
#include "serve/dynamic_adjacency.h"
#include "serve/online_scorer.h"
#include "serve/shard_router.h"
#include "tensor/autograd.h"

namespace umgad {
namespace {

using serve::DynamicAdjacency;
using serve::EdgeUpdate;
using serve::OnlineScorer;
using serve::RouterOptions;
using serve::ScoreSnapshot;
using serve::ShardRouter;

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

struct ConcurrencyFixture {
  MultiplexGraph graph = MakeTiny(123);
  UmgadModel model{ServeConfig()};
  TrainedModel trained;

  ConcurrencyFixture() {
    UMGAD_CHECK(model.Fit(graph).ok());
    auto snapshot = TrainedModel::FromFitted(model, graph);
    UMGAD_CHECK(snapshot.ok());
    trained = *std::move(snapshot);
  }
};

const ConcurrencyFixture& Fixture() {
  static const ConcurrencyFixture* fixture = new ConcurrencyFixture();
  return *fixture;
}

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

// ------------------------- the TSan hammer --------------------------------

TEST(ServeConcurrencyTest, ConcurrentQueriesNeverTearDuringBursts) {
  const int n = Fixture().graph.num_nodes();
  const std::vector<EdgeUpdate> updates =
      MakeUpdateSequence(Fixture().graph, 24, /*seed=*/131);

  RouterOptions options;
  options.num_shards = 2;
  options.max_burst = 3;
  auto router =
      ShardRouter::Create(Fixture().trained, Fixture().graph, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_epoch = 0;
      Rng rng(1000 + static_cast<uint64_t>(t));
      while (!done.load(std::memory_order_acquire)) {
        auto snap = (*router)->Snapshot();
        // Never torn: the snapshot is immutable and fully formed at
        // publish, so its invariants hold no matter when it is read.
        if (snap == nullptr || snap->epoch == 0 ||
            snap->scores.size() != static_cast<size_t>(n) ||
            snap->min_applied > snap->max_applied ||
            snap->epoch < last_epoch) {
          failures.fetch_add(1);
          return;
        }
        last_epoch = snap->epoch;
        const int node = static_cast<int>(rng.UniformInt(n));
        auto score = (*router)->Query({node});
        if (!score.ok()) {
          failures.fetch_add(1);
          return;
        }
        if ((*score)[0] != snap->scores[node]) {
          // A Query after Snapshot may see a *newer* snapshot, never an
          // older or partial one. Same epoch means the same immutable
          // snapshot object, so differing bits would be a torn read.
          auto again = (*router)->Snapshot();
          if (again->epoch <= snap->epoch) {
            failures.fetch_add(1);
            return;
          }
        }
        const auto stats = (*router)->Stats();
        if (stats.num_shards != 2 || stats.total_applied < 0 ||
            stats.queue_depth < 0) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  // Stream the updates in small bursts while the readers run.
  for (size_t k = 0; k < updates.size(); k += 4) {
    const size_t end = std::min(updates.size(), k + 4);
    std::vector<EdgeUpdate> burst(updates.begin() + static_cast<long>(k),
                                  updates.begin() + static_cast<long>(end));
    (*router)->Submit(burst);
  }
  (*router)->Flush();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Drained: the concurrent run still lands on the flat oracle's bits.
  auto flat = OnlineScorer::Create(Fixture().trained, Fixture().graph);
  ASSERT_TRUE(flat.ok());
  for (const EdgeUpdate& u : updates) {
    ASSERT_TRUE((*flat)->ApplyEdgeUpdate(u).ok());
  }
  auto snap = (*router)->Snapshot();
  EXPECT_TRUE(snap->stream_consistent);
  const std::vector<double> flat_scores = (*flat)->scores();
  ASSERT_EQ(snap->scores.size(), flat_scores.size());
  for (size_t i = 0; i < snap->scores.size(); ++i) {
    EXPECT_EQ(snap->scores[i], flat_scores[i]) << "node " << i;
  }
}

TEST(ServeConcurrencyTest, ConcurrentSubmittersShareOneStreamOrder) {
  // Two producers race Submit(); the router serialises them into one
  // global order, so every shard applies the same stream and the final
  // snapshot is stream-consistent. The two toggle sequences touch
  // disjoint edges, so every interleaving is valid and converges to the
  // same final adjacency.
  const std::vector<EdgeUpdate> a =
      MakeUpdateSequence(Fixture().graph, 8, /*seed=*/151);
  EdgeUpdate insert;  // a fresh edge 'b' toggles on and off repeatedly
  insert.relation = 0;
  insert.src = 0;
  const MultiplexGraph& graph = Fixture().graph;
  for (insert.dst = 1; insert.dst < graph.num_nodes(); ++insert.dst) {
    if (!graph.layer(0).Has(insert.src, insert.dst)) break;
  }
  ASSERT_LT(insert.dst, graph.num_nodes());
  bool overlaps = false;
  for (const EdgeUpdate& u : a) {
    if (u.relation == insert.relation &&
        ((u.src == insert.src && u.dst == insert.dst) ||
         (u.src == insert.dst && u.dst == insert.src))) {
      overlaps = true;
    }
  }
  ASSERT_FALSE(overlaps) << "fixture sequences must touch disjoint edges";

  RouterOptions options;
  options.num_shards = 2;
  options.max_burst = 2;
  auto router =
      ShardRouter::Create(Fixture().trained, Fixture().graph, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  std::thread producer_a([&] {
    for (const EdgeUpdate& u : a) (*router)->Submit({u});
  });
  std::thread producer_b([&] {
    for (int k = 0; k < 4; ++k) {
      EdgeUpdate on = insert;
      on.add = true;
      EdgeUpdate off = insert;
      off.add = false;
      (*router)->Submit({on, off});
    }
  });
  producer_a.join();
  producer_b.join();
  (*router)->Flush();

  const auto snap = (*router)->Snapshot();
  EXPECT_TRUE(snap->stream_consistent);
  EXPECT_EQ(snap->max_applied, static_cast<int64_t>(a.size() + 8));
  EXPECT_EQ((*router)->Stats().total_rejected, 0);

  // b's toggles cancel, so the result is just a's sequence applied flat.
  auto flat = OnlineScorer::Create(Fixture().trained, Fixture().graph);
  ASSERT_TRUE(flat.ok());
  for (const EdgeUpdate& u : a) {
    ASSERT_TRUE((*flat)->ApplyEdgeUpdate(u).ok());
  }
  const std::vector<double> flat_scores = (*flat)->scores();
  ASSERT_EQ(snap->scores.size(), flat_scores.size());
  for (size_t i = 0; i < snap->scores.size(); ++i) {
    EXPECT_EQ(snap->scores[i], flat_scores[i]) << "node " << i;
  }
}

TEST(ServeConcurrencyTest, ConcurrentReadersOfAnIdleScorerAgree) {
  // scores() and Query() build their answers from the components and the
  // moments without caching anything, so concurrent readers of an idle
  // scorer need no lock (TSan checks there is no write on this path).
  auto scorer = OnlineScorer::Create(Fixture().trained, Fixture().graph);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  ASSERT_TRUE(
      (*scorer)->ApplyEdgeUpdates(MakeUpdateSequence(Fixture().graph, 20, 9))
          .ok());
  const OnlineScorer& idle = **scorer;
  const std::vector<double> want = idle.scores();
  const int n = Fixture().graph.num_nodes();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        if (idle.scores() != want) mismatches.fetch_add(1);
        const std::vector<int> nodes = {(t * 7 + round) % n, n - 1, 0};
        Result<std::vector<double>> got = idle.Query(nodes);
        if (!got.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t k = 0; k < nodes.size(); ++k) {
          if ((*got)[k] != want[nodes[k]]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------- persistent-leaf reclamation --------------------

TEST(ServeConcurrencyTest, ScorerRebuildsDoNotLeakPersistentNodes) {
  ASSERT_GT(Fixture().graph.num_nodes(), 0);  // force fixture construction
  const int64_t baseline = ag::Tape::Global().stats().persistent_nodes;
  for (int round = 0; round < 3; ++round) {
    auto scorer = OnlineScorer::Create(Fixture().trained, Fixture().graph);
    ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
    EXPECT_FALSE((*scorer)->scores().empty());
  }
  EXPECT_EQ(ag::Tape::Global().stats().persistent_nodes, baseline)
      << "OnlineScorer::Create leaked parameter leaves";
}

TEST(ServeConcurrencyTest, RouterRebuildsDoNotLeakPersistentNodes) {
  ASSERT_GT(Fixture().graph.num_nodes(), 0);
  const int64_t baseline = ag::Tape::Global().stats().persistent_nodes;
  for (int round = 0; round < 2; ++round) {
    RouterOptions options;
    options.num_shards = 2;
    auto router =
        ShardRouter::Create(Fixture().trained, Fixture().graph, options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    (*router)->Submit(MakeUpdateSequence(Fixture().graph, 4, /*seed=*/161));
    (*router)->Flush();
  }
  EXPECT_EQ(ag::Tape::Global().stats().persistent_nodes, baseline)
      << "ShardRouter rebuilds leaked parameter leaves";
}

TEST(ServeConcurrencyTest, LoadScoreLoopsDoNotLeakPersistentNodes) {
  const std::string path = ::testing::TempDir() + "/leak_loop.umgm";
  ASSERT_TRUE(Fixture().trained.Save(path).ok());
  const int64_t baseline = ag::Tape::Global().stats().persistent_nodes;
  for (int round = 0; round < 3; ++round) {
    auto loaded = TrainedModel::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto scores = loaded->Score(Fixture().graph);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    EXPECT_EQ(scores->size(),
              static_cast<size_t>(Fixture().graph.num_nodes()));
  }
  std::remove(path.c_str());
  EXPECT_EQ(ag::Tape::Global().stats().persistent_nodes, baseline)
      << "TrainedModel::Load/Score loop leaked parameter leaves";
}

}  // namespace
}  // namespace umgad
