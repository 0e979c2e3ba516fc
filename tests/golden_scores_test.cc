// Golden-score regression: the end-to-end anomaly scores of a fixed UMGAD
// run (GAT encoder — edge-softmax backward, all three parallel losses) and
// a fixed AnomMAN run are pinned against a checked-in fixture, across
// UMGAD_THREADS x UMGAD_ARENA. The fixture was serialised from the engine
// that PR 3 verified bit-identical to the pre-refactor seed engine, so
// kernel work after this PR inherits seed protection without rebuilding an
// old binary. On an intentional pipeline change, regenerate with
// tests/golden_scores_gen.cc (instructions in golden_scores_common.h).
//
// The loss history and first scores of the ten Table IV ablations of that
// UMGAD run are pinned the same way; between them they cover every view
// kind and every reconstruction-branch mix. So are the first scores of
// the other 21 baselines.
//
// Strictness: exact bit-equality in every build configuration. The build
// targets the baseline ISA and every dispatched kernel tier is
// contraction-free, so Release and Debug builds compute the same bits.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/model_io.h"
#include "golden_scores_common.h"
#include "golden_scores_fixture.h"
#include "serve/online_scorer.h"
#include "tensor/pool.h"

namespace umgad {
namespace testing {
namespace {

template <size_t N>
void ExpectBitsMatchFixture(const std::vector<double>& values,
                            const uint64_t (&golden)[N],
                            const std::string& label, int threads,
                            bool arena) {
  ASSERT_EQ(values.size(), N) << label;
  for (size_t i = 0; i < N; ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, &values[i], sizeof(bits));
    double expected = 0.0;
    std::memcpy(&expected, &golden[i], sizeof(expected));
    EXPECT_EQ(bits, golden[i])
        << label << " " << i << " threads=" << threads
        << " arena=" << (arena ? 1 : 0) << ": got " << values[i]
        << ", fixture " << expected << " (|diff| "
        << std::abs(values[i] - expected) << ")";
  }
}

TEST(GoldenScoresTest, UmgadBitEqualAcrossThreadsAndArena) {
  const bool prev_arena = ArenaEnabled();
  for (bool arena : {true, false}) {
    for (int threads : {1, 4}) {
      SetArenaEnabled(arena);
      SetNumThreads(threads);
      ExpectBitsMatchFixture(GoldenUmgadScores(), kGoldenUmgadScoreBits,
                             "UMGAD node", threads, arena);
    }
  }
  SetNumThreads(1);
  SetArenaEnabled(prev_arena);
}

TEST(GoldenScoresTest, ServedArtifactReproducesUmgadScores) {
  // The serve leg: the pinned scores must survive a full artifact round
  // trip — train, snapshot to .umgm, reload, and stand up the online
  // scorer, whose initial pass draws the same per-node negatives as Fit.
  // Training happens once (at the reference 1-thread / arena-on setting);
  // the served scores from the reloaded artifact must then reproduce the
  // fixture for every thread-count x arena-mode, which is exactly the
  // serve layer's determinism contract.
  const bool prev_arena = ArenaEnabled();
  SetArenaEnabled(true);
  SetNumThreads(1);
  MultiplexGraph graph = MakeTiny(kGoldenGraphSeed);
  UmgadModel model(GoldenUmgadConfig());
  ASSERT_TRUE(model.Fit(graph).ok());
  auto trained = TrainedModel::FromFitted(model, graph);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();

  const std::string path = ::testing::TempDir() + "/golden_serve.umgm";
  ASSERT_TRUE(trained->Save(path).ok());
  auto loaded = TrainedModel::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  for (bool arena : {true, false}) {
    for (int threads : {1, 4}) {
      SetArenaEnabled(arena);
      SetNumThreads(threads);
      auto scorer = serve::OnlineScorer::Create(*loaded, graph);
      ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
      std::vector<double> scores = (*scorer)->scores();
      scores.resize(kGoldenScoreCount);
      ExpectBitsMatchFixture(scores, kGoldenUmgadScoreBits,
                             "UMGAD-serve node", threads, arena);
    }
  }
  SetNumThreads(1);
  SetArenaEnabled(prev_arena);
}

TEST(GoldenScoresTest, AblationsBitEqualAcrossThreadsAndArena) {
  // The ten Table IV configs between them take every view kind alone and
  // together, each reconstruction branch alone, no masking and the SGC
  // encoder: the loss history pins each one's training pass, the scores
  // its scoring pass. Four threads fan each view's K x R GMAE passes out.
  const bool prev_arena = ArenaEnabled();
  for (bool arena : {true, false}) {
    for (int threads : {1, 4}) {
      SetArenaEnabled(arena);
      SetNumThreads(threads);
      for (int a = 0; a < kGoldenAblationCount; ++a) {
        const std::string name = kGoldenAblations[a].name;
        const GoldenRun run = GoldenAblationRun(kGoldenAblations[a]);
        ExpectBitsMatchFixture(run.loss_history, kGoldenAblationLossBits[a],
                               name + " epoch", threads, arena);
        ExpectBitsMatchFixture(run.scores, kGoldenAblationScoreBits[a],
                               name + " node", threads, arena);
      }
    }
  }
  SetNumThreads(1);
  SetArenaEnabled(prev_arena);
}

TEST(GoldenScoresTest, AnomManBitEqualAcrossThreadsAndArena) {
  const bool prev_arena = ArenaEnabled();
  for (bool arena : {true, false}) {
    for (int threads : {1, 4}) {
      SetArenaEnabled(arena);
      SetNumThreads(threads);
      ExpectBitsMatchFixture(GoldenAnomManScores(), kGoldenAnomManScoreBits,
                             "AnomMAN node", threads, arena);
    }
  }
  SetNumThreads(1);
  SetArenaEnabled(prev_arena);
}

TEST(GoldenScoresTest, BaselinesBitEqualAcrossThreadsAndArena) {
  // The other 21 baselines: between them they run every training loop,
  // context sampler and scoring pass in src/baselines.
  const bool prev_arena = ArenaEnabled();
  for (bool arena : {true, false}) {
    for (int threads : {1, 4}) {
      SetArenaEnabled(arena);
      SetNumThreads(threads);
      for (int b = 0; b < kGoldenBaselineCount; ++b) {
        ExpectBitsMatchFixture(GoldenBaselineScores(kGoldenBaselines[b]),
                               kGoldenBaselineScoreBits[b],
                               std::string(kGoldenBaselines[b]) + " node",
                               threads, arena);
      }
    }
  }
  SetNumThreads(1);
  SetArenaEnabled(prev_arena);
}

}  // namespace
}  // namespace testing
}  // namespace umgad
