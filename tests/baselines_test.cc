#include <cmath>

#include <gtest/gtest.h>

#include "baselines/detector.h"
#include "eval/metrics.h"
#include "graph/datasets.h"

namespace umgad {
namespace {

TEST(RegistryTest, AllNamesConstructible) {
  for (const std::string& name : AllDetectorNames()) {
    auto detector = MakeDetector(name, 1);
    ASSERT_TRUE(detector.ok()) << name;
    EXPECT_EQ((*detector)->name(), name);
  }
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  auto result = MakeDetector("NoSuchMethod", 1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, CountsMatchPaperTableII) {
  // 22 baselines + UMGAD.
  EXPECT_EQ(AllDetectorNames().size(), 23u);
  EXPECT_EQ(ScalableDetectorNames().size(), 9u);
}

TEST(RegistryTest, CategoriesMatchPaperBlocks) {
  EXPECT_EQ(CategoryOf("Radar"), DetectorCategory::kTraditional);
  EXPECT_EQ(CategoryOf("TAM"), DetectorCategory::kMpi);
  EXPECT_EQ(CategoryOf("CoLA"), DetectorCategory::kCl);
  EXPECT_EQ(CategoryOf("DOMINANT"), DetectorCategory::kGae);
  EXPECT_EQ(CategoryOf("AnomMAN"), DetectorCategory::kMv);
  EXPECT_EQ(CategoryOf("UMGAD"), DetectorCategory::kOurs);
  EXPECT_STREQ(CategoryName(DetectorCategory::kGae), "GAE");
}

TEST(RegistryTest, ScalableIsSubsetOfAll) {
  std::vector<std::string> all = AllDetectorNames();
  for (const std::string& name : ScalableDetectorNames()) {
    EXPECT_NE(std::find(all.begin(), all.end(), name), all.end()) << name;
  }
}

/// Every detector must fit the tiny dataset, produce one finite score per
/// node, and do meaningfully better than random on this easy benchmark.
class DetectorSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(DetectorSmoke, FitsAndScoresTinyDataset) {
  MultiplexGraph g = MakeTiny(13);
  auto detector = MakeDetector(GetParam(), 7);
  ASSERT_TRUE(detector.ok());
  ASSERT_TRUE((*detector)->Fit(g).ok()) << GetParam();
  const std::vector<double>& scores = (*detector)->scores();
  ASSERT_EQ(scores.size(), static_cast<size_t>(g.num_nodes()));
  for (double s : scores) EXPECT_TRUE(std::isfinite(s)) << GetParam();

  // Tiny has blatant injected anomalies; every mechanism should beat
  // random ranking on it. (Quality separation between methods is measured
  // by the benchmark harness, not asserted here.)
  EXPECT_GT(RocAuc(scores, g.labels()), 0.5) << GetParam();
  EXPECT_GE((*detector)->fit_seconds(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllDetectors, DetectorSmoke, ::testing::ValuesIn(AllDetectorNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(DetectorTest, RejectsDegenerateGraph) {
  auto g = MultiplexGraph::Create(
      "micro", Tensor(2, 2),
      {SparseMatrix::FromEdges(2, {Edge{0, 1}}, true)}, {"r"});
  ASSERT_TRUE(g.ok());
  for (const char* name : {"Radar", "DOMINANT", "CoLA"}) {
    auto detector = MakeDetector(name, 1);
    ASSERT_TRUE(detector.ok());
    EXPECT_FALSE((*detector)->Fit(*g).ok()) << name;
  }
}

TEST(DetectorTest, DeterministicForSameSeed) {
  MultiplexGraph g = MakeTiny(14);
  for (const char* name : {"Radar", "PREM", "DOMINANT"}) {
    auto a = MakeDetector(name, 5);
    auto b = MakeDetector(name, 5);
    ASSERT_TRUE((*a)->Fit(g).ok());
    ASSERT_TRUE((*b)->Fit(g).ok());
    for (size_t i = 0; i < (*a)->scores().size(); ++i) {
      EXPECT_DOUBLE_EQ((*a)->scores()[i], (*b)->scores()[i]) << name;
    }
  }
}

TEST(DetectorTest, TrainedDetectorsReportEpochTime) {
  MultiplexGraph g = MakeTiny(15);
  auto trained = MakeDetector("DOMINANT", 3);
  ASSERT_TRUE((*trained)->Fit(g).ok());
  EXPECT_GT((*trained)->epoch_seconds(), 0.0);
  // Training-free methods report zero epoch time.
  auto free = MakeDetector("PREM", 3);
  ASSERT_TRUE((*free)->Fit(g).ok());
  EXPECT_EQ((*free)->epoch_seconds(), 0.0);
}

TEST(DetectorTest, EpochTimeExcludesSetupAndScoring) {
  // epoch_seconds() is the mean time of a training epoch. CoLA's Fit also
  // builds the flattened view's operators before training and runs a
  // four-round RWR discrimination pass over every node after it (about 4%
  // of its Fit on Tiny), so its 60 epochs take clearly less than the whole
  // Fit. The 0.1% margin is far above rounding, so a Fit-over-epochs mean
  // fails it, and far below that share, so a scheduler stall inside
  // training does not.
  MultiplexGraph g = MakeTiny(15);
  auto cola = MakeDetector("CoLA", 3);
  ASSERT_TRUE((*cola)->Fit(g).ok());
  const double train_seconds = (*cola)->epoch_seconds() * 60;
  EXPECT_GT(train_seconds, 0.0);
  EXPECT_LT(train_seconds, (1.0 - 1e-3) * (*cola)->fit_seconds());
}

}  // namespace
}  // namespace umgad
