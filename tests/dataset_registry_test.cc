// Pins the declarative dataset registry to the legacy hand-written Make*
// generators it replaced: LegacyMake* below are verbatim copies of the
// pre-registry implementations (src/graph/datasets.cc before the dataset
// subsystem refactor), and every registered dataset must build
// bit-identically to them — same RNG stream consumption, same CSR arrays,
// same attribute bits, same labels.

#include <cmath>

#include <gtest/gtest.h>

#include "graph/anomaly_injection.h"
#include "graph/dataset_registry.h"
#include "graph/datasets.h"
#include "graph/generators.h"

namespace umgad {
namespace {

int ScaledNodes(int base, double scale) {
  return std::max(64, static_cast<int>(std::lround(base * scale)));
}

int64_t ScaledEdges(int64_t base, double scale) {
  return std::max<int64_t>(32, static_cast<int64_t>(std::llround(
      static_cast<double>(base) * scale)));
}

MultiplexGraph LegacyMakeRetail(uint64_t seed, double scale) {
  Rng rng(seed ^ 0x5e7a11ULL);
  SbmMultiplexConfig config;
  config.name = "Retail";
  config.num_nodes = ScaledNodes(3228, scale);
  config.feature_dim = 32;
  config.num_communities = 10;
  config.attribute_noise = 0.35;
  config.relations = {
      {.name = "View", .target_edges = ScaledEdges(7537, scale),
       .intra_community_prob = 0.65, .noise_frac = 0.45},
      {.name = "Cart", .target_edges = 0, .subset_of = 0,
       .subset_frac = 0.11, .subset_intra_boost = 3.0},
      {.name = "Buy", .target_edges = 0, .subset_of = 1,
       .subset_frac = 0.6, .subset_intra_boost = 1.6},
  };
  MultiplexGraph g = GenerateSbmMultiplex(config, &rng);

  InjectionConfig inj;
  inj.clique_size = 5;
  inj.num_cliques = std::max(1, static_cast<int>(std::lround(3 * scale)));
  inj.num_attribute_anomalies = inj.clique_size * inj.num_cliques;
  InjectAnomalies(&g, inj, &rng);
  return g;
}

MultiplexGraph LegacyMakeAlibaba(uint64_t seed, double scale) {
  Rng rng(seed ^ 0xa11baba0ULL);
  SbmMultiplexConfig config;
  config.name = "Alibaba";
  config.num_nodes = ScaledNodes(2265, scale);
  config.feature_dim = 32;
  config.num_communities = 8;
  config.attribute_noise = 0.4;
  config.relations = {
      {.name = "View", .target_edges = ScaledEdges(3493, scale),
       .intra_community_prob = 0.6, .noise_frac = 0.5},
      {.name = "Cart", .target_edges = 0, .subset_of = 0,
       .subset_frac = 0.12, .subset_intra_boost = 3.0},
      {.name = "Buy", .target_edges = 0, .subset_of = 1,
       .subset_frac = 0.58, .subset_intra_boost = 1.6},
  };
  MultiplexGraph g = GenerateSbmMultiplex(config, &rng);

  InjectionConfig inj;
  inj.clique_size = 5;
  inj.num_cliques = std::max(1, static_cast<int>(std::lround(3 * scale)));
  inj.num_attribute_anomalies = inj.clique_size * inj.num_cliques;
  InjectAnomalies(&g, inj, &rng);
  return g;
}

MultiplexGraph LegacyMakeAmazon(uint64_t seed, double scale) {
  Rng rng(seed ^ 0xa3a204ULL);
  SbmMultiplexConfig config;
  config.name = "Amazon";
  config.num_nodes = ScaledNodes(1194, scale);
  config.feature_dim = 32;
  config.num_communities = 6;
  config.attribute_noise = 0.3;
  config.relations = {
      {.name = "U-P-U", .target_edges = ScaledEdges(8000, scale),
       .intra_community_prob = 0.9},
      {.name = "U-S-U", .target_edges = ScaledEdges(70000, scale),
       .intra_community_prob = 0.5, .noise_frac = 0.85},
      {.name = "U-V-U", .target_edges = ScaledEdges(24000, scale),
       .intra_community_prob = 0.7, .noise_frac = 0.3},
  };
  MultiplexGraph g = GenerateSbmMultiplex(config, &rng);

  FraudRingConfig rings;
  rings.ring_size = 8;
  rings.num_rings = std::max(1, static_cast<int>(std::lround(10 * scale)));
  rings.ring_density = 0.3;
  rings.relation_affinity = {0.9, 0.5, 0.75};
  rings.camouflage = 0.85;
  rings.contact_edges = 8;
  PlantFraudRings(&g, rings, &rng);
  return g;
}

MultiplexGraph LegacyMakeYelpChi(uint64_t seed, double scale) {
  Rng rng(seed ^ 0x9e19c41ULL);
  SbmMultiplexConfig config;
  config.name = "YelpChi";
  config.num_nodes = ScaledNodes(4596, scale);
  config.feature_dim = 32;
  config.num_communities = 12;
  config.attribute_noise = 0.45;
  config.relations = {
      {.name = "R-U-R", .target_edges = ScaledEdges(4900, scale),
       .intra_community_prob = 0.9},
      {.name = "R-S-R", .target_edges = ScaledEdges(68000, scale),
       .intra_community_prob = 0.5, .noise_frac = 0.8},
      {.name = "R-T-R", .target_edges = ScaledEdges(23000, scale),
       .intra_community_prob = 0.6, .noise_frac = 0.45},
  };
  MultiplexGraph g = GenerateSbmMultiplex(config, &rng);

  FraudRingConfig rings;
  rings.ring_size = 10;
  rings.num_rings = std::max(1, static_cast<int>(std::lround(66 * scale)));
  rings.ring_density = 0.25;
  rings.relation_affinity = {0.85, 0.45, 0.6};
  rings.camouflage = 0.8;
  rings.contact_edges = 6;
  PlantFraudRings(&g, rings, &rng);
  return g;
}

MultiplexGraph LegacyMakeDGFin(uint64_t seed, double scale) {
  Rng rng(seed ^ 0xd9f17ULL);
  SbmMultiplexConfig config;
  config.name = "DG-Fin";
  config.num_nodes = ScaledNodes(37000, scale);
  config.feature_dim = 32;
  config.num_communities = 24;
  config.attribute_noise = 0.4;
  config.relations = {
      {.name = "U-C-U", .target_edges = ScaledEdges(4400, scale),
       .intra_community_prob = 0.95},
      {.name = "U-B-U", .target_edges = ScaledEdges(24000, scale),
       .intra_community_prob = 0.6, .noise_frac = 0.35},
      {.name = "U-R-U", .target_edges = ScaledEdges(14000, scale),
       .intra_community_prob = 0.8},
  };
  MultiplexGraph g = GenerateSbmMultiplex(config, &rng);

  FraudRingConfig rings;
  rings.ring_size = 5;
  rings.num_rings = std::max(1, static_cast<int>(std::lround(31 * scale)));
  rings.ring_density = 0.3;
  rings.relation_affinity = {0.3, 0.9, 0.6};
  rings.camouflage = 0.74;
  rings.contact_edges = 5;
  PlantFraudRings(&g, rings, &rng);
  return g;
}

MultiplexGraph LegacyMakeTSocial(uint64_t seed, double scale) {
  Rng rng(seed ^ 0x7500c1a1ULL);
  SbmMultiplexConfig config;
  config.name = "T-Social";
  config.num_nodes = ScaledNodes(28900, scale);
  config.feature_dim = 32;
  config.num_communities = 20;
  config.attribute_noise = 0.4;
  config.relations = {
      {.name = "U-R-U", .target_edges = ScaledEdges(340000, scale),
       .intra_community_prob = 0.7, .noise_frac = 0.25},
      {.name = "U-F-U", .target_edges = ScaledEdges(15000, scale),
       .intra_community_prob = 0.85},
      {.name = "U-G-U", .target_edges = ScaledEdges(12000, scale),
       .intra_community_prob = 0.85},
  };
  MultiplexGraph g = GenerateSbmMultiplex(config, &rng);

  FraudRingConfig rings;
  rings.ring_size = 10;
  rings.num_rings = std::max(1, static_cast<int>(std::lround(87 * scale)));
  rings.ring_density = 0.25;
  rings.relation_affinity = {0.4, 0.9, 0.8};
  rings.camouflage = 0.7;
  rings.contact_edges = 6;
  PlantFraudRings(&g, rings, &rng);
  return g;
}

MultiplexGraph LegacyMakeTiny(uint64_t seed) {
  Rng rng(seed ^ 0x7171717ULL);
  SbmMultiplexConfig config;
  config.name = "Tiny";
  config.num_nodes = 200;
  config.feature_dim = 16;
  config.num_communities = 4;
  config.attribute_noise = 0.3;
  config.relations = {
      {.name = "rel-a", .target_edges = 600, .intra_community_prob = 0.9},
      {.name = "rel-b", .target_edges = 300, .intra_community_prob = 0.7},
  };
  MultiplexGraph g = GenerateSbmMultiplex(config, &rng);

  InjectionConfig inj;
  inj.clique_size = 5;
  inj.num_cliques = 1;
  inj.num_attribute_anomalies = 5;
  inj.candidate_pool = 30;
  InjectAnomalies(&g, inj, &rng);
  return g;
}

void ExpectBitIdentical(const MultiplexGraph& actual,
                        const MultiplexGraph& expected) {
  EXPECT_EQ(actual.name(), expected.name());
  ASSERT_EQ(actual.num_nodes(), expected.num_nodes());
  ASSERT_EQ(actual.num_relations(), expected.num_relations());
  ASSERT_EQ(actual.feature_dim(), expected.feature_dim());
  EXPECT_EQ(actual.labels(), expected.labels());
  for (int r = 0; r < actual.num_relations(); ++r) {
    EXPECT_EQ(actual.relation_name(r), expected.relation_name(r));
    EXPECT_EQ(actual.layer(r).row_ptr(), expected.layer(r).row_ptr())
        << "relation " << r;
    EXPECT_EQ(actual.layer(r).col_idx(), expected.layer(r).col_idx())
        << "relation " << r;
    EXPECT_EQ(actual.layer(r).values(), expected.layer(r).values())
        << "relation " << r;
  }
  EXPECT_EQ(MaxAbsDiff(actual.attributes(), expected.attributes()), 0.0);
}

struct LegacyCase {
  const char* name;
  MultiplexGraph (*legacy)(uint64_t, double);
  double scale;
};

// Without this gtest prints the raw bytes of the case, function pointer
// included, and the listed (ctest) test name changes from run to run.
void PrintTo(const LegacyCase& c, std::ostream* os) { *os << c.name; }

class RegistryVsLegacy : public ::testing::TestWithParam<LegacyCase> {};

TEST_P(RegistryVsLegacy, BitIdentical) {
  const LegacyCase& c = GetParam();
  for (uint64_t seed : {uint64_t{1}, uint64_t{1234}}) {
    auto built = DatasetRegistry::Global().Build(c.name, seed, c.scale);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ExpectBitIdentical(*built, c.legacy(seed, c.scale));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, RegistryVsLegacy,
    ::testing::Values(
        LegacyCase{"Retail", LegacyMakeRetail, 0.12},
        LegacyCase{"Alibaba", LegacyMakeAlibaba, 0.12},
        LegacyCase{"Amazon", LegacyMakeAmazon, 0.12},
        LegacyCase{"YelpChi", LegacyMakeYelpChi, 0.12},
        LegacyCase{"DG-Fin", LegacyMakeDGFin, 0.02},
        LegacyCase{"T-Social", LegacyMakeTSocial, 0.02}),
    [](const ::testing::TestParamInfo<LegacyCase>& info) {
      std::string name = info.param.name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(DatasetRegistryTest, TinyMatchesLegacyAndIgnoresScale) {
  for (uint64_t seed : {uint64_t{7}, uint64_t{123}}) {
    auto built = DatasetRegistry::Global().Build("Tiny", seed, /*scale=*/1.0);
    ASSERT_TRUE(built.ok());
    ExpectBitIdentical(*built, LegacyMakeTiny(seed));
    // Tiny's shape is pinned: scale must not change anything.
    auto scaled = DatasetRegistry::Global().Build("Tiny", seed,
                                                  /*scale=*/3.0);
    ASSERT_TRUE(scaled.ok());
    ExpectBitIdentical(*scaled, *built);
  }
}

TEST(DatasetRegistryTest, MakeWrappersGoThroughRegistry) {
  ExpectBitIdentical(MakeRetail(5, 0.1),
                     *DatasetRegistry::Global().Build("Retail", 5, 0.1));
  ExpectBitIdentical(MakeTiny(5),
                     *DatasetRegistry::Global().Build("Tiny", 5));
}

TEST(DatasetRegistryTest, NamesAndGroups) {
  DatasetRegistry& registry = DatasetRegistry::Global();
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"Retail", "Alibaba", "Amazon",
                                      "YelpChi", "DG-Fin", "T-Social",
                                      "Tiny"}));
  EXPECT_EQ(registry.NamesInGroup(DatasetGroup::kSmall),
            SmallDatasetNames());
  EXPECT_EQ(registry.NamesInGroup(DatasetGroup::kLarge),
            LargeDatasetNames());
  EXPECT_EQ(registry.NamesInGroup(DatasetGroup::kTest),
            (std::vector<std::string>{"Tiny"}));
}

TEST(DatasetRegistryTest, FindAndBuildErrors) {
  DatasetRegistry& registry = DatasetRegistry::Global();
  EXPECT_NE(registry.Find("Retail"), nullptr);
  EXPECT_EQ(registry.Find("NoSuchDataset"), nullptr);
  EXPECT_FALSE(registry.Contains("NoSuchDataset"));
  auto missing = registry.Build("NoSuchDataset", 1);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(DatasetRegistryTest, PaperStatsPresentForPaperDatasets) {
  for (const DatasetSpec& spec : DatasetRegistry::Global().specs()) {
    if (spec.group == DatasetGroup::kTest) continue;
    EXPECT_FALSE(spec.paper_nodes.empty()) << spec.name;
    EXPECT_FALSE(spec.paper_anomalies.empty()) << spec.name;
  }
}

TEST(DatasetRegistryTest, RuntimeRegistrationAndShadowing) {
  // A fresh (non-global) registry keeps the Global() one clean.
  DatasetSpec custom;
  custom.name = "custom-sbm";
  custom.seed_salt = 0xc0ffeeULL;
  custom.group = DatasetGroup::kTest;
  custom.base_nodes = 120;
  custom.feature_dim = 8;
  custom.num_communities = 3;
  custom.relations = {
      {.name = "a", .target_edges = 400, .intra_community_prob = 0.9}};
  custom.anomalies.kind = AnomalySpec::Kind::kInjectedCliques;
  custom.anomalies.clique_size = 4;
  custom.anomalies.base_count = 1;

  DatasetRegistry& registry = DatasetRegistry::Global();
  const size_t before = registry.specs().size();
  registry.Register(custom);
  ASSERT_TRUE(registry.Contains("custom-sbm"));
  auto built = registry.Build("custom-sbm", 3);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->num_nodes(), 120);
  EXPECT_EQ(built->num_relations(), 1);
  EXPECT_GT(built->num_anomalies(), 0);

  // Re-registering replaces in place instead of duplicating.
  custom.base_nodes = 150;
  registry.Register(custom);
  EXPECT_EQ(registry.specs().size(), before + 1);
  EXPECT_EQ(registry.Build("custom-sbm", 3)->num_nodes(), 150);
}

}  // namespace
}  // namespace umgad
