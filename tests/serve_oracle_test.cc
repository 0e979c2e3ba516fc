// Differential oracle for the online scoring service: after any sequence
// of randomized edge inserts/removals, the incrementally maintained scores
// must be bit-identical to RescoreFullNaive() — a from-scratch serial
// recompute with the same kernels — for every UMGAD_THREADS x arena-mode
// combination (the grid comes from tests/oracle_harness.h). Also covers
// the one-score-path contract (the fitted model's scores ==
// TrainedModel::Score == scores() == RescoreFullNaive() at any
// num_score_negatives), batched bursts (ApplyEdgeUpdates == one-at-a-time
// == full rescore, with prefix rollback on error), every engine plan shape
// (SGC and 2-layer GAT encoders, attribute-only, structure-only, no
// original view), ApplyEdgeUpdate's error paths, and the DynamicAdjacency
// bit-compatibility contract.

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
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
struct ServeFixture {
  MultiplexGraph graph = MakeTiny(123);
  UmgadModel model{ServeConfig()};
  TrainedModel trained;

  ServeFixture() {
    UMGAD_CHECK(model.Fit(graph).ok());
    auto snapshot = TrainedModel::FromFitted(model, graph);
    UMGAD_CHECK(snapshot.ok());
    trained = *std::move(snapshot);
  }
};

const ServeFixture& Fixture() {
  static const ServeFixture* fixture = new ServeFixture();
  return *fixture;
}

/// A deterministic mixed insert/remove sequence: each step picks a
/// relation and a node pair and toggles the edge (tracked in mirror
/// adjacencies so inserts always hit absent edges and removals present
/// ones). Identical across every sweep configuration.
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

/// Create a scorer, run the update sequence, and return the score trace
/// (initial scores plus the scores after each update), asserting
/// incremental == full-naive at every step.
std::vector<std::vector<double>> RunSequence(
    const std::vector<EdgeUpdate>& updates, const std::string& label) {
  auto scorer = OnlineScorer::Create(Fixture().trained, Fixture().graph);
  UMGAD_CHECK(scorer.ok());
  std::vector<std::vector<double>> trace;
  trace.push_back((*scorer)->scores());
  ExpectSameBits((*scorer)->scores(), (*scorer)->RescoreFullNaive(),
                 label + " init");
  for (size_t k = 0; k < updates.size(); ++k) {
    Status applied = (*scorer)->ApplyEdgeUpdate(updates[k]);
    EXPECT_TRUE(applied.ok()) << label << " update " << k << ": "
                              << applied.ToString();
    ExpectSameBits((*scorer)->scores(), (*scorer)->RescoreFullNaive(),
                   label + " update " + std::to_string(k));
    trace.push_back((*scorer)->scores());
  }
  EXPECT_EQ((*scorer)->stats().updates_applied,
            static_cast<int64_t>(updates.size()));
  return trace;
}

// ------------------------- the oracle sweep -------------------------------

TEST(ServeOracleTest, IncrementalMatchesFullRescoreAcrossThreadsAndArena) {
  const std::vector<EdgeUpdate> updates =
      MakeUpdateSequence(Fixture().graph, 12, /*seed=*/31);

  const OracleSweep sweep;  // {1, 4} threads x arena on/off
  const bool prev_arena = ArenaEnabled();
  SetNumThreads(1);
  SetArenaEnabled(true);
  const std::vector<std::vector<double>> reference =
      RunSequence(updates, "reference");

  for (bool arena : sweep.arena_modes) {
    for (int threads : sweep.thread_counts) {
      SetArenaEnabled(arena);
      SetNumThreads(threads);
      const std::string label = "threads=" + std::to_string(threads) +
                                " arena=" + (arena ? "1" : "0");
      const auto trace = RunSequence(updates, label);
      ASSERT_EQ(trace.size(), reference.size());
      for (size_t k = 0; k < trace.size(); ++k) {
        ExpectSameBits(trace[k], reference[k],
                       label + " step " + std::to_string(k));
      }
    }
  }
  SetNumThreads(1);
  SetArenaEnabled(prev_arena);
}

// ------------------------- score-path equivalences ------------------------

TEST(ServeOracleTest, BatchReplayReproducesFittedScores) {
  // A batch TrainedModel::Score over the artifact state replays the fitted
  // model's scores, and the engine built from that artifact serves them.
  auto replay = Fixture().trained.Score(Fixture().graph);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ExpectSameBits(*replay, Fixture().model.scores(), "batch replay");
  auto scorer = OnlineScorer::Create(Fixture().trained, Fixture().graph);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  ExpectSameBits((*scorer)->scores(), *replay, "serve vs batch replay");
}

TEST(ServeOracleTest, ZeroNegativesMatchesTrainingScores) {
  // With no structure negatives the per-node streams draw nothing; serve
  // scores still equal the fitted scores bit for bit.
  MultiplexGraph graph = MakeTiny(123);
  UmgadConfig config = ServeConfig();
  config.num_score_negatives = 0;
  UmgadModel model(config);
  ASSERT_TRUE(model.Fit(graph).ok());
  auto trained = TrainedModel::FromFitted(model, graph);
  ASSERT_TRUE(trained.ok());
  auto scorer = OnlineScorer::Create(*trained, graph);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  ExpectSameBits((*scorer)->scores(), model.scores(), "zero negatives");
  auto replay = trained->Score(graph);
  ASSERT_TRUE(replay.ok());
  ExpectSameBits(*replay, model.scores(), "zero negatives replay");
}

TEST(ServeOracleTest, FittedScoresEqualServeScores) {
  // Training and serving draw the residual negatives from the same
  // per-node streams, so the four score paths agree bit for bit at any
  // sample count, lane count and arena mode: Fit, TrainedModel::Score on
  // the reloaded artifact state, the incremental engine and its serial
  // oracle. After a stream of updates the engine still equals a batch
  // TrainedModel::Score over the mutated graph.
  const bool prev_arena = ArenaEnabled();
  MultiplexGraph graph = MakeTiny(123);
  const std::vector<EdgeUpdate> updates =
      MakeUpdateSequence(graph, 6, /*seed=*/59);
  for (int negatives : {0, 2, 16}) {
    for (bool arena : {true, false}) {
      for (int threads : {1, 4}) {
        SetArenaEnabled(arena);
        SetNumThreads(threads);
        const std::string label =
            "negatives=" + std::to_string(negatives) +
            " threads=" + std::to_string(threads) +
            " arena=" + (arena ? "1" : "0");
        UmgadConfig config = ServeConfig();
        config.num_score_negatives = negatives;
        UmgadModel model(config);
        ASSERT_TRUE(model.Fit(graph).ok()) << label;
        auto trained = TrainedModel::FromFitted(model, graph);
        ASSERT_TRUE(trained.ok()) << label;
        auto batch = trained->Score(graph);
        ASSERT_TRUE(batch.ok()) << label << ": " << batch.status().ToString();
        ExpectSameBits(*batch, model.scores(), label + " TrainedModel::Score");
        auto scorer = OnlineScorer::Create(*trained, graph);
        ASSERT_TRUE(scorer.ok()) << label << ": "
                                 << scorer.status().ToString();
        ExpectSameBits((*scorer)->scores(), model.scores(), label + " serve");
        ExpectSameBits((*scorer)->RescoreFullNaive(), model.scores(),
                       label + " naive");

        ASSERT_TRUE((*scorer)->ApplyEdgeUpdates(updates).ok()) << label;
        auto mutated =
            trained->Score((*scorer)->SnapshotGraph(),
                           /*check_fingerprint=*/false);
        ASSERT_TRUE(mutated.ok()) << label;
        ExpectSameBits((*scorer)->scores(), *mutated,
                       label + " after updates");
      }
    }
  }
  SetNumThreads(1);
  SetArenaEnabled(prev_arena);
}

TEST(ServeOracleTest, RevertedUpdateRestoresScores) {
  auto scorer = OnlineScorer::Create(Fixture().trained, Fixture().graph);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  const std::vector<double> initial = (*scorer)->scores();

  // An edge that does not exist: insert, then remove it again.
  const MultiplexGraph& graph = Fixture().graph;
  EdgeUpdate update;
  update.relation = 0;
  update.src = 0;
  for (update.dst = 1; update.dst < graph.num_nodes(); ++update.dst) {
    if (!graph.layer(0).Has(update.src, update.dst)) break;
  }
  ASSERT_LT(update.dst, graph.num_nodes());

  update.add = true;
  ASSERT_TRUE((*scorer)->ApplyEdgeUpdate(update).ok());
  EXPECT_GT((*scorer)->stats().last_dirty_rows, 0);
  EXPECT_GT((*scorer)->stats().last_rescored_nodes, 0);
  update.add = false;
  ASSERT_TRUE((*scorer)->ApplyEdgeUpdate(update).ok());

  ExpectSameBits((*scorer)->scores(), initial, "reverted update");
  EXPECT_EQ((*scorer)->stats().updates_applied, 2);
}

// ------------------------- batched updates --------------------------------

TEST(ServeOracleTest, BatchedUpdatesMatchSequentialAndFullRescore) {
  const std::vector<EdgeUpdate> updates =
      MakeUpdateSequence(Fixture().graph, 12, /*seed=*/61);

  // Reference: the same burst applied one update at a time.
  auto sequential =
      OnlineScorer::Create(Fixture().trained, Fixture().graph);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  for (const EdgeUpdate& u : updates) {
    ASSERT_TRUE((*sequential)->ApplyEdgeUpdate(u).ok());
  }

  // One coalesced pass over the whole burst (and a split into two bursts,
  // which must land on the same scores via a different coalescing).
  for (size_t split : {updates.size(), updates.size() / 2}) {
    auto scorer = OnlineScorer::Create(Fixture().trained, Fixture().graph);
    ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
    const std::string label = "split=" + std::to_string(split);
    std::vector<EdgeUpdate> head(updates.begin(),
                                 updates.begin() + static_cast<long>(split));
    std::vector<EdgeUpdate> tail(updates.begin() + static_cast<long>(split),
                                 updates.end());
    ASSERT_TRUE((*scorer)->ApplyEdgeUpdates(head).ok()) << label;
    if (!tail.empty()) {
      ASSERT_TRUE((*scorer)->ApplyEdgeUpdates(tail).ok()) << label;
    }
    EXPECT_EQ((*scorer)->stats().updates_applied,
              static_cast<int64_t>(updates.size()))
        << label;
    ExpectSameBits((*scorer)->scores(), (*sequential)->scores(),
                   label + " vs sequential");
    ExpectSameBits((*scorer)->scores(), (*scorer)->RescoreFullNaive(),
                   label + " vs full rescore");
  }
}

TEST(ServeOracleTest, BatchedUpdatesAllowToggleWithinBurst) {
  // A burst may insert an edge and remove it again: validation runs against
  // the mutated prefix, so both legs are legal and the net effect is zero.
  auto scorer = OnlineScorer::Create(Fixture().trained, Fixture().graph);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  const std::vector<double> initial = (*scorer)->scores();
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

  ASSERT_TRUE((*scorer)->ApplyEdgeUpdates({insert, remove}).ok());
  EXPECT_EQ((*scorer)->stats().updates_applied, 2);
  ExpectSameBits((*scorer)->scores(), initial, "toggle burst");
  ExpectSameBits((*scorer)->scores(), (*scorer)->RescoreFullNaive(),
                 "toggle burst vs full rescore");

  // An empty burst is a no-op.
  ASSERT_TRUE((*scorer)->ApplyEdgeUpdates({}).ok());
  EXPECT_EQ((*scorer)->stats().updates_applied, 2);
}

TEST(ServeOracleTest, BatchedUpdatesRollBackOnError) {
  // A bad update mid-burst rolls back the applied prefix: the adjacency,
  // the cached state, and the stats all stay exactly as before the call.
  auto scorer = OnlineScorer::Create(Fixture().trained, Fixture().graph);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  const std::vector<double> initial = (*scorer)->scores();
  const MultiplexGraph& graph = Fixture().graph;

  EdgeUpdate good;
  good.relation = 0;
  good.src = 0;
  for (good.dst = 1; good.dst < graph.num_nodes(); ++good.dst) {
    if (!graph.layer(0).Has(good.src, good.dst)) break;
  }
  ASSERT_LT(good.dst, graph.num_nodes());
  good.add = true;

  EdgeUpdate duplicate = good;  // second insert of the same edge fails
  Status burst = (*scorer)->ApplyEdgeUpdates({good, duplicate});
  ASSERT_FALSE(burst.ok());
  EXPECT_EQ(burst.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*scorer)->stats().updates_applied, 0);
  ExpectSameBits((*scorer)->scores(), initial, "after failed burst");
  ExpectSameBits((*scorer)->scores(), (*scorer)->RescoreFullNaive(),
                 "state consistency after failed burst");

  // The rolled-back edge is still absent, so the insert succeeds now.
  ASSERT_TRUE((*scorer)->ApplyEdgeUpdate(good).ok());
  EXPECT_EQ((*scorer)->stats().updates_applied, 1);
}

// ------------------------- engine plan shapes -----------------------------

/// Trains Tiny under `config`, then holds the engine to its oracle on that
/// plan shape: scores() == RescoreFullNaive() after every single update,
/// a burst through ApplyEdgeUpdates == the same updates one at a time, and
/// a two-shard router drained over the stream == the flat scorer.
void ExpectPlanShapeMatchesOracle(const UmgadConfig& config,
                                  const std::string& label) {
  MultiplexGraph graph = MakeTiny(123);
  UmgadModel model(config);
  ASSERT_TRUE(model.Fit(graph).ok()) << label;
  auto trained = TrainedModel::FromFitted(model, graph);
  ASSERT_TRUE(trained.ok()) << label;
  const std::vector<EdgeUpdate> updates =
      MakeUpdateSequence(graph, 10, /*seed=*/71);

  auto sequential = OnlineScorer::Create(*trained, graph);
  ASSERT_TRUE(sequential.ok()) << label << ": "
                               << sequential.status().ToString();
  ExpectSameBits((*sequential)->scores(), model.scores(), label + " init");
  for (size_t k = 0; k < updates.size(); ++k) {
    ASSERT_TRUE((*sequential)->ApplyEdgeUpdate(updates[k]).ok())
        << label << " update " << k;
    ExpectSameBits((*sequential)->scores(), (*sequential)->RescoreFullNaive(),
                   label + " update " + std::to_string(k));
  }

  auto burst = OnlineScorer::Create(*trained, graph);
  ASSERT_TRUE(burst.ok()) << label;
  ASSERT_TRUE((*burst)->ApplyEdgeUpdates(updates).ok()) << label;
  ExpectSameBits((*burst)->scores(), (*sequential)->scores(),
                 label + " burst vs sequential");

  serve::RouterOptions options;
  options.num_shards = 2;
  auto router = serve::ShardRouter::Create(*trained, graph, options);
  ASSERT_TRUE(router.ok()) << label << ": " << router.status().ToString();
  (*router)->Submit(updates);
  (*router)->Flush();
  ExpectSameBits((*router)->Snapshot()->scores, (*sequential)->scores(),
                 label + " two shards vs flat");
}

TEST(ServeOracleTest, SgcEncoderMatchesOracle) {
  UmgadConfig config = ServeConfig();
  config.encoder = EncoderKind::kSgc;
  ExpectPlanShapeMatchesOracle(config, "sgc");
}

TEST(ServeOracleTest, TwoLayerGatEncoderMatchesOracle) {
  UmgadConfig config = ServeConfig();
  config.encoder_layers = 2;
  ExpectPlanShapeMatchesOracle(config, "gat x2");
}

TEST(ServeOracleTest, AttributeOnlyMatchesOracle) {
  UmgadConfig config = ServeConfig();
  config.use_structure_recon = false;
  ExpectPlanShapeMatchesOracle(config, "attribute only");
}

TEST(ServeOracleTest, StructureOnlyMatchesOracle) {
  // No attribute chain is built on the original view; the other views'
  // attribute chains still carry the structure embedding.
  UmgadConfig config = ServeConfig();
  config.use_attribute_recon = false;
  ExpectPlanShapeMatchesOracle(config, "structure only");
}

TEST(ServeOracleTest, NoOriginalViewMatchesOracle) {
  UmgadConfig config = ServeConfig();
  config.use_original_view = false;
  ExpectPlanShapeMatchesOracle(config, "no original view");
}

// ------------------------- error paths ------------------------------------

TEST(ServeOracleTest, CreateChecksFingerprint) {
  MultiplexGraph other = MakeTiny(124);
  auto scorer = OnlineScorer::Create(Fixture().trained, other);
  ASSERT_FALSE(scorer.ok());
  EXPECT_EQ(scorer.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(scorer.status().message().find("fingerprint"),
            std::string::npos);
}

TEST(ServeOracleTest, ApplyEdgeUpdateRejectsInvalidUpdates) {
  auto scorer = OnlineScorer::Create(Fixture().trained, Fixture().graph);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  const std::vector<double> initial = (*scorer)->scores();
  const MultiplexGraph& graph = Fixture().graph;
  const int n = graph.num_nodes();

  EdgeUpdate bad;
  bad.src = 0;
  bad.dst = 1;
  bad.relation = graph.num_relations();
  EXPECT_FALSE((*scorer)->ApplyEdgeUpdate(bad).ok());
  bad.relation = -1;
  EXPECT_FALSE((*scorer)->ApplyEdgeUpdate(bad).ok());

  bad.relation = 0;
  bad.dst = n;
  EXPECT_FALSE((*scorer)->ApplyEdgeUpdate(bad).ok());
  bad.src = -1;
  bad.dst = 1;
  EXPECT_FALSE((*scorer)->ApplyEdgeUpdate(bad).ok());

  bad.src = 2;
  bad.dst = 2;  // self loop
  EXPECT_FALSE((*scorer)->ApplyEdgeUpdate(bad).ok());

  // Inserting a present edge / removing an absent one.
  EdgeUpdate conflict;
  conflict.relation = 0;
  conflict.src = graph.layer(0).row_ptr()[1] > 0 ? 0 : 1;
  bool found = false;
  for (int i = 0; i < n && !found; ++i) {
    for (int j = i + 1; j < n && !found; ++j) {
      if (graph.layer(0).Has(i, j)) {
        conflict.src = i;
        conflict.dst = j;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "fixture layer 0 has no edges";
  conflict.add = true;
  auto present = (*scorer)->ApplyEdgeUpdate(conflict);
  ASSERT_FALSE(present.ok());
  EXPECT_EQ(present.code(), StatusCode::kFailedPrecondition);

  found = false;
  EdgeUpdate absent;
  absent.relation = 0;
  for (int j = 1; j < n && !found; ++j) {
    if (!graph.layer(0).Has(0, j)) {
      absent.src = 0;
      absent.dst = j;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  absent.add = false;
  auto removal = (*scorer)->ApplyEdgeUpdate(absent);
  ASSERT_FALSE(removal.ok());
  EXPECT_EQ(removal.code(), StatusCode::kNotFound);

  // Every rejected update left the state untouched.
  EXPECT_EQ((*scorer)->stats().updates_applied, 0);
  ExpectSameBits((*scorer)->scores(), initial, "after rejected updates");
  ExpectSameBits((*scorer)->scores(), (*scorer)->RescoreFullNaive(),
                 "state consistency after rejections");
}

TEST(ServeOracleTest, QueryGathersAndValidates) {
  auto scorer = OnlineScorer::Create(Fixture().trained, Fixture().graph);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  const std::vector<double>& all = (*scorer)->scores();
  const int n = Fixture().graph.num_nodes();

  auto subset = (*scorer)->Query({0, n - 1, n / 2});
  ASSERT_TRUE(subset.ok()) << subset.status().ToString();
  ASSERT_EQ(subset->size(), 3u);
  EXPECT_EQ((*subset)[0], all[0]);
  EXPECT_EQ((*subset)[1], all[n - 1]);
  EXPECT_EQ((*subset)[2], all[n / 2]);

  EXPECT_FALSE((*scorer)->Query({n}).ok());
  EXPECT_FALSE((*scorer)->Query({-1}).ok());
}

TEST(ServeOracleTest, QueryMatchesScoresAndNaive) {
  // Query scores each node from its components and the current moments
  // with the same per-node function scores() uses, so after a stream the
  // three reads agree bit for bit, at any lane count.
  const std::vector<EdgeUpdate> updates =
      MakeUpdateSequence(Fixture().graph, 30, 17);
  const int n = Fixture().graph.num_nodes();
  std::vector<int> nodes;
  for (int k = 0; k < 3 * n; k += 7) nodes.push_back((k * 31) % n);
  std::vector<double> first;
  for (int lanes : {1, 4}) {
    SetNumThreads(lanes);
    const std::string label = "lanes=" + std::to_string(lanes);
    auto scorer = OnlineScorer::Create(Fixture().trained, Fixture().graph);
    ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
    ASSERT_TRUE((*scorer)->ApplyEdgeUpdates(updates).ok());
    const std::vector<double> all = (*scorer)->scores();
    const std::vector<double> naive = (*scorer)->RescoreFullNaive();
    auto queried = (*scorer)->Query(nodes);
    ASSERT_TRUE(queried.ok()) << queried.status().ToString();
    ASSERT_EQ(queried->size(), nodes.size());
    for (size_t k = 0; k < nodes.size(); ++k) {
      EXPECT_EQ((*queried)[k], all[nodes[k]]) << label << " node " << nodes[k];
      EXPECT_EQ((*queried)[k], naive[nodes[k]])
          << label << " node " << nodes[k];
    }
    if (first.empty()) {
      first = all;
    } else {
      ExpectSameBits(all, first, label + " vs lanes=1");
    }
  }
  SetNumThreads(1);
}

// ------------------------- DynamicAdjacency contract ----------------------

TEST(ServeOracleTest, DynamicAdjacencyRoundTripsCsr) {
  const MultiplexGraph& graph = Fixture().graph;
  for (int r = 0; r < graph.num_relations(); ++r) {
    DynamicAdjacency dyn(graph.layer(r));
    SparseMatrix back = dyn.ToSparse();
    EXPECT_EQ(back.row_ptr(), graph.layer(r).row_ptr()) << "relation " << r;
    EXPECT_EQ(back.col_idx(), graph.layer(r).col_idx()) << "relation " << r;
    EXPECT_EQ(back.values(), graph.layer(r).values()) << "relation " << r;
  }
}

TEST(ServeOracleTest, DynamicAdjacencyMutationsMatchBatchOperator) {
  // After a burst of random symmetric mutations, the lazily maintained
  // row sums and the on-the-fly normalised row walk must equal what the
  // batch path computes from the rebuilt CSR.
  const MultiplexGraph& graph = Fixture().graph;
  const int n = graph.num_nodes();
  DynamicAdjacency dyn(graph.layer(0));
  Rng rng(99);
  for (int step = 0; step < 40; ++step) {
    const int i = static_cast<int>(rng.UniformInt(n));
    const int j = static_cast<int>(rng.UniformInt(n));
    if (i == j) continue;
    if (dyn.Has(i, j)) {
      EXPECT_TRUE(dyn.RemoveEntry(i, j));
      EXPECT_TRUE(dyn.RemoveEntry(j, i));
    } else {
      EXPECT_TRUE(dyn.AddEntry(i, j, 1.0f));
      EXPECT_TRUE(dyn.AddEntry(j, i, 1.0f));
    }
  }
  // Double insert / double remove are rejected without changing state.
  const int64_t nnz = dyn.nnz();
  if (dyn.degree(0) > 0) {
    EXPECT_FALSE(dyn.AddEntry(0, dyn.neighbors(0)[0], 1.0f));
  }
  EXPECT_FALSE(dyn.AddEntry(1, 1, 1.0f));
  EXPECT_FALSE(dyn.RemoveEntry(0, 0));
  EXPECT_EQ(dyn.nnz(), nnz);

  SparseMatrix rebuilt = dyn.ToSparse();
  const std::vector<double> sums = rebuilt.RowSums();
  const SparseMatrix norm = rebuilt.NormalizedWithSelfLoops();
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(dyn.row_sum(i), sums[i]) << "row " << i;
    std::vector<std::pair<int, float>> walked;
    dyn.ForEachNormEntry(i, [&](int j, float v) { walked.emplace_back(j, v); });
    const int64_t begin = norm.row_ptr()[i];
    const int64_t end = norm.row_ptr()[i + 1];
    ASSERT_EQ(static_cast<int64_t>(walked.size()), end - begin) << "row " << i;
    for (int64_t k = begin; k < end; ++k) {
      EXPECT_EQ(walked[k - begin].first, norm.col_idx()[k]) << "row " << i;
      EXPECT_EQ(walked[k - begin].second, norm.values()[k]) << "row " << i;
    }
  }
}

}  // namespace
}  // namespace umgad
