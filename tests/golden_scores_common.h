#ifndef UMGAD_TESTS_GOLDEN_SCORES_COMMON_H_
#define UMGAD_TESTS_GOLDEN_SCORES_COMMON_H_

// Shared setup of the golden-score regression fixture: one deterministic
// graph + config, scored by UMGAD (GAT encoder — the edge-softmax backward
// path) and every baseline, plus the ten Table IV ablations of that UMGAD
// config. The generator (tests/golden_scores_gen.cc) serialises the first
// kGoldenScoreCount scores of each (and each ablation's per-epoch loss
// history) as raw double bit patterns into
// tests/golden_scores_fixture.h; golden_scores_test.cc asserts
// bit-equality against them across thread counts and arena modes. Change
// anything here and the fixture must be regenerated:
//
//   cmake --build build --target golden_scores_gen
//   ./build/tests/golden_scores_gen > tests/golden_scores_fixture.h

#include <memory>
#include <ostream>
#include <vector>

#include "baselines/detector.h"
#include "common/check.h"
#include "core/umgad.h"
#include "graph/datasets.h"

namespace umgad {
namespace testing {

inline constexpr uint64_t kGoldenGraphSeed = 123;
inline constexpr uint64_t kGoldenDetectorSeed = 7;
inline constexpr int kGoldenScoreCount = 32;  // per detector
inline constexpr int kGoldenEpochs = 8;

inline UmgadConfig GoldenUmgadConfig() {
  UmgadConfig config;
  // Small but complete: GAT encoder (default), all three views, both
  // reconstruction branches, contrastive refinement — every parallel loss
  // and the edge-softmax backward sit on this path.
  config.epochs = kGoldenEpochs;
  config.hidden_dim = 16;
  config.mask_repeats = 2;
  config.num_subgraphs = 2;
  config.subgraph_size = 6;
  config.seed = kGoldenDetectorSeed;
  return config;
}

inline std::vector<double> GoldenUmgadScores() {
  MultiplexGraph graph = MakeTiny(kGoldenGraphSeed);
  UmgadModel model(GoldenUmgadConfig());
  UMGAD_CHECK(model.Fit(graph).ok());
  std::vector<double> scores = model.scores();
  scores.resize(kGoldenScoreCount);
  return scores;
}

/// One Table IV ablation, applied on top of a base config (here
/// GoldenUmgadConfig(); umgad_test's AblationVariants runs the same list).
/// Between them the ten run every view kind alone and together, each
/// reconstruction branch alone, no masking, uniform fusion, no contrastive
/// term and the SGC encoder.
struct GoldenAblation {
  const char* name;
  void (*apply)(UmgadConfig*);
};

// Without this gtest prints the raw bytes of a parameterised case, function
// pointer included, and the listed (ctest) test name changes from run to
// run.
inline void PrintTo(const GoldenAblation& a, std::ostream* os) {
  *os << a.name;
}

inline constexpr GoldenAblation kGoldenAblations[] = {
    {"w/o M", [](UmgadConfig* c) { c->use_masking = false; }},
    {"w/o O", [](UmgadConfig* c) { c->use_original_view = false; }},
    {"w/o A", [](UmgadConfig* c) { c->DisableAugmentedViews(); }},
    {"w/o NA", [](UmgadConfig* c) { c->use_attr_augmented_view = false; }},
    {"w/o SA",
     [](UmgadConfig* c) { c->use_subgraph_augmented_view = false; }},
    {"w/o DCL", [](UmgadConfig* c) { c->use_contrastive = false; }},
    {"uniform-fusion", [](UmgadConfig* c) { c->use_relation_fusion = false; }},
    {"Att", [](UmgadConfig* c) { c->use_structure_recon = false; }},
    {"Str", [](UmgadConfig* c) { c->use_attribute_recon = false; }},
    {"SGC-encoder", [](UmgadConfig* c) { c->encoder = EncoderKind::kSgc; }},
};
inline constexpr int kGoldenAblationCount =
    static_cast<int>(sizeof(kGoldenAblations) / sizeof(kGoldenAblations[0]));

struct GoldenRun {
  std::vector<double> loss_history;  // one entry per epoch
  std::vector<double> scores;        // the first kGoldenScoreCount
};

inline GoldenRun GoldenAblationRun(const GoldenAblation& ablation) {
  MultiplexGraph graph = MakeTiny(kGoldenGraphSeed);
  UmgadConfig config = GoldenUmgadConfig();
  ablation.apply(&config);
  UmgadModel model(config);
  UMGAD_CHECK(model.Fit(graph).ok());
  GoldenRun run{model.loss_history(), model.scores()};
  run.scores.resize(kGoldenScoreCount);
  return run;
}

inline std::vector<double> GoldenBaselineScores(const char* name) {
  MultiplexGraph graph = MakeTiny(kGoldenGraphSeed);
  Result<std::unique_ptr<Detector>> detector =
      MakeDetector(name, kGoldenDetectorSeed);
  UMGAD_CHECK(detector.ok());
  UMGAD_CHECK((*detector)->Fit(graph).ok());
  std::vector<double> scores = (*detector)->scores();
  scores.resize(kGoldenScoreCount);
  return scores;
}

inline std::vector<double> GoldenAnomManScores() {
  return GoldenBaselineScores("AnomMAN");
}

/// Every baseline but AnomMAN (pinned on its own above), in Table II row
/// order.
inline constexpr const char* kGoldenBaselines[] = {
    "Radar",   "ComGA",    "RAND",    "TAM",        "CoLA",  "ANEMONE",
    "Sub-CR",  "ARISE",    "SL-GAD",  "PREM",       "GCCAD", "GRADATE",
    "VGOD",    "DOMINANT", "GCNAE",   "AnomalyDAE", "AdONE", "GAD-NR",
    "ADA-GAD", "GADAM",    "DualGAD",
};
inline constexpr int kGoldenBaselineCount =
    static_cast<int>(sizeof(kGoldenBaselines) / sizeof(kGoldenBaselines[0]));

}  // namespace testing
}  // namespace umgad

#endif  // UMGAD_TESTS_GOLDEN_SCORES_COMMON_H_
