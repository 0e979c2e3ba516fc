// Regenerates tests/golden_scores_fixture.h — run after any intentional
// change to the scored pipeline or to the setup in
// tests/golden_scores_common.h:
//
//   cmake --build build --target golden_scores_gen
//   ./build/tests/golden_scores_gen > tests/golden_scores_fixture.h
//
// Runs single-threaded with the arena on, the baseline configuration of
// the determinism contract (the test then asserts the other thread/arena
// combinations reproduce the same bits).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "golden_scores_common.h"
#include "tensor/pool.h"

namespace {

void PrintValues(const std::vector<double>& values, const char* indent) {
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    std::printf("%s0x%016" PRIx64 "ull,  // %.17g\n", indent, bits, v);
  }
}

void PrintArray(const char* name, const std::vector<double>& scores) {
  std::printf("inline constexpr uint64_t %s[%d] = {\n", name,
              umgad::testing::kGoldenScoreCount);
  PrintValues(scores, "    ");
  std::printf("};\n");
}

/// One row per ablation, in kGoldenAblations order.
void PrintAblationRows(const char* name, int width,
                       const std::vector<std::vector<double>>& rows) {
  std::printf("inline constexpr uint64_t %s[%d][%d] = {\n", name,
              umgad::testing::kGoldenAblationCount, width);
  for (int a = 0; a < umgad::testing::kGoldenAblationCount; ++a) {
    std::printf("    {  // %s\n", umgad::testing::kGoldenAblations[a].name);
    PrintValues(rows[a], "        ");
    std::printf("    },\n");
  }
  std::printf("};\n");
}

/// One row per baseline, in kGoldenBaselines order.
void PrintBaselineRows(const char* name) {
  std::printf("inline constexpr uint64_t %s[%d][%d] = {\n", name,
              umgad::testing::kGoldenBaselineCount,
              umgad::testing::kGoldenScoreCount);
  for (const char* baseline : umgad::testing::kGoldenBaselines) {
    std::printf("    {  // %s\n", baseline);
    PrintValues(umgad::testing::GoldenBaselineScores(baseline), "        ");
    std::printf("    },\n");
  }
  std::printf("};\n");
}

}  // namespace

int main() {
  umgad::SetNumThreads(1);
  umgad::SetArenaEnabled(true);
  std::printf(
      "#ifndef UMGAD_TESTS_GOLDEN_SCORES_FIXTURE_H_\n"
      "#define UMGAD_TESTS_GOLDEN_SCORES_FIXTURE_H_\n"
      "\n"
      "// Generated by tests/golden_scores_gen.cc — do not edit by hand.\n"
      "// Raw IEEE-754 bit patterns of the first %d anomaly scores of the\n"
      "// golden UMGAD run and of every baseline, and the per-epoch loss\n"
      "// history and first scores of each UMGAD ablation\n"
      "// (tests/golden_scores_common.h).\n"
      "\n"
      "#include <cstdint>\n"
      "\n"
      "namespace umgad {\n"
      "namespace testing {\n"
      "\n",
      umgad::testing::kGoldenScoreCount);
  PrintArray("kGoldenUmgadScoreBits", umgad::testing::GoldenUmgadScores());
  std::printf("\n");
  PrintArray("kGoldenAnomManScoreBits",
             umgad::testing::GoldenAnomManScores());
  std::vector<std::vector<double>> losses;
  std::vector<std::vector<double>> scores;
  for (const umgad::testing::GoldenAblation& ablation :
       umgad::testing::kGoldenAblations) {
    umgad::testing::GoldenRun run = umgad::testing::GoldenAblationRun(ablation);
    UMGAD_CHECK(static_cast<int>(run.loss_history.size()) ==
                umgad::testing::kGoldenEpochs);
    losses.push_back(std::move(run.loss_history));
    scores.push_back(std::move(run.scores));
  }
  std::printf("\n");
  PrintAblationRows("kGoldenAblationLossBits", umgad::testing::kGoldenEpochs,
                    losses);
  std::printf("\n");
  PrintAblationRows("kGoldenAblationScoreBits",
                    umgad::testing::kGoldenScoreCount, scores);
  std::printf("\n");
  PrintBaselineRows("kGoldenBaselineScoreBits");
  std::printf(
      "\n"
      "}  // namespace testing\n"
      "}  // namespace umgad\n"
      "\n"
      "#endif  // UMGAD_TESTS_GOLDEN_SCORES_FIXTURE_H_\n");
  return 0;
}
