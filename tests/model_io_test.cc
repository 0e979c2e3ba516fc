// The trained-model artifact (.umgm): bit-exact round trips of weights,
// config, fingerprint, and scoring Rng state; Score() replaying the fitted
// scores exactly; the malformed-file matrix (bad magic/version,
// truncation sweep, hostile counts, corrupt config, trailer damage)
// mirroring the graph container's coverage in graph_io_test.cc; and the
// version-evolution matrix (v1 back-compat, trailing-config tolerance,
// future-version rejection) backing the policy in docs/FORMATS.md.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

#include "core/model_io.h"
#include "core/umgad.h"
#include "graph/datasets.h"

namespace umgad {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

template <typename T>
void PatchPod(std::string* bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(&(*bytes)[offset], &value, sizeof(T));
}

UmgadConfig SmallConfig() {
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

/// One fitted model per process: training even the small config is the
/// expensive part of this suite, and every test below only reads from it.
struct Fitted {
  MultiplexGraph graph = MakeTiny(123);
  UmgadModel model{SmallConfig()};
  TrainedModel trained;

  Fitted() {
    UMGAD_CHECK(model.Fit(graph).ok());
    auto snapshot = TrainedModel::FromFitted(model, graph);
    UMGAD_CHECK(snapshot.ok());
    trained = *std::move(snapshot);
  }
};

const Fitted& GetFitted() {
  static const Fitted* fitted = new Fitted();
  return *fitted;
}

/// Byte offsets inside a v2 .umgm file (docs/FORMATS.md). The config block
/// is length-prefixed (core 116 bytes today); the fingerprint's layer_nnz
/// array makes everything after it depend on the relation count.
struct Layout {
  static constexpr size_t kVersion = 4;
  static constexpr size_t kConfigLength = 12;
  static constexpr size_t kConfigEncoder = 16;
  static constexpr size_t kConfigHiddenDim = 20;
  static constexpr uint32_t kConfigCoreBytes = 116;
  size_t config_end;
  size_t tensor_count;
  size_t first_tensor_shape;

  explicit Layout(int num_relations) {
    // header 12 + config length 4 + config 116 +
    // fingerprint (12 + 8R + 8) + rng (32 + 1 + 8).
    config_end = 12 + 4 + 116;
    tensor_count = config_end + 12 + 8 * static_cast<size_t>(num_relations) +
                   8 + 41;
    first_tensor_shape = tensor_count + 8;
  }
};

std::string SavedArtifactBytes(const std::string& tag) {
  const std::string path = TempPath(tag + ".umgm");
  UMGAD_CHECK(GetFitted().trained.Save(path).ok());
  std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  return bytes;
}

Result<TrainedModel> LoadBytes(const std::string& tag,
                               const std::string& bytes) {
  const std::string path = TempPath(tag + ".umgm");
  WriteFile(path, bytes);
  auto result = TrainedModel::Load(path);
  std::remove(path.c_str());
  return result;
}

// ------------------------- round trip -------------------------------------

TEST(ModelIoTest, FromFittedRequiresFit) {
  UmgadModel unfitted(SmallConfig());
  auto result = TrainedModel::FromFitted(unfitted, GetFitted().graph);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ModelIoTest, RoundTripIsBitExact) {
  const Fitted& fitted = GetFitted();
  const std::string path = TempPath("round_trip.umgm");
  ASSERT_TRUE(fitted.trained.Save(path).ok());
  auto loaded = TrainedModel::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  // Config: every serialised field, not just the ones the small config
  // overrides (a skipped field in WriteConfig/ReadConfig shifts all later
  // reads, so defaults catch it too).
  const UmgadConfig& a = fitted.trained.config();
  const UmgadConfig& b = loaded->config();
  EXPECT_EQ(a.encoder == EncoderKind::kGat, b.encoder == EncoderKind::kGat);
  EXPECT_EQ(a.hidden_dim, b.hidden_dim);
  EXPECT_EQ(a.encoder_layers, b.encoder_layers);
  EXPECT_EQ(a.decoder_layers, b.decoder_layers);
  EXPECT_EQ(a.mask_ratio, b.mask_ratio);
  EXPECT_EQ(a.mask_repeats, b.mask_repeats);
  EXPECT_EQ(a.subgraph_size, b.subgraph_size);
  EXPECT_EQ(a.num_subgraphs, b.num_subgraphs);
  EXPECT_EQ(a.rwr_restart, b.rwr_restart);
  EXPECT_EQ(a.attr_swap_ratio, b.attr_swap_ratio);
  EXPECT_EQ(a.eta, b.eta);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.beta, b.beta);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.mu, b.mu);
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.epsilon, b.epsilon);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.learning_rate, b.learning_rate);
  EXPECT_EQ(a.weight_decay, b.weight_decay);
  EXPECT_EQ(a.num_negatives, b.num_negatives);
  EXPECT_EQ(a.num_score_negatives, b.num_score_negatives);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.use_masking, b.use_masking);
  EXPECT_EQ(a.use_original_view, b.use_original_view);
  EXPECT_EQ(a.use_attr_augmented_view, b.use_attr_augmented_view);
  EXPECT_EQ(a.use_subgraph_augmented_view, b.use_subgraph_augmented_view);
  EXPECT_EQ(a.use_contrastive, b.use_contrastive);
  EXPECT_EQ(a.use_relation_fusion, b.use_relation_fusion);
  EXPECT_EQ(a.use_attribute_recon, b.use_attribute_recon);
  EXPECT_EQ(a.use_structure_recon, b.use_structure_recon);

  // Fingerprint and Rng state.
  EXPECT_TRUE(loaded->fingerprint().Matches(fitted.trained.fingerprint()));
  EXPECT_EQ(loaded->fingerprint().content_hash,
            fitted.trained.fingerprint().content_hash);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded->scoring_rng_state().s[i],
              fitted.trained.scoring_rng_state().s[i]);
  }
  EXPECT_EQ(loaded->scoring_rng_state().has_cached_normal,
            fitted.trained.scoring_rng_state().has_cached_normal);
  EXPECT_EQ(loaded->scoring_rng_state().cached_normal,
            fitted.trained.scoring_rng_state().cached_normal);

  // Weights, bit for bit.
  ASSERT_EQ(loaded->weights().size(), fitted.trained.weights().size());
  EXPECT_GT(loaded->weights().size(), 0u);
  for (size_t t = 0; t < loaded->weights().size(); ++t) {
    const Tensor& got = loaded->weights()[t];
    const Tensor& want = fitted.trained.weights()[t];
    ASSERT_TRUE(got.SameShape(want)) << "weight " << t;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(got.size()) * sizeof(float)),
              0)
        << "weight " << t;
  }
}

TEST(ModelIoTest, ScoreReplaysFittedScoresBitExact) {
  // The whole point of the artifact: a reloaded model re-scores the
  // training graph to exactly the floats the fitted model produced
  // (stored weights + checkpointed Rng stream, same kernels).
  const Fitted& fitted = GetFitted();
  const std::string path = TempPath("replay.umgm");
  ASSERT_TRUE(fitted.trained.Save(path).ok());
  auto loaded = TrainedModel::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  auto scores = loaded->Score(fitted.graph);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ASSERT_EQ(scores->size(), fitted.model.scores().size());
  for (size_t i = 0; i < scores->size(); ++i) {
    EXPECT_EQ((*scores)[i], fitted.model.scores()[i]) << "node " << i;
  }
}

TEST(ModelIoTest, ScoreChecksFingerprint) {
  const Fitted& fitted = GetFitted();
  MultiplexGraph other = MakeTiny(124);  // same shape, different content
  auto guarded = fitted.trained.Score(other);
  ASSERT_FALSE(guarded.ok());
  EXPECT_NE(guarded.status().message().find("fingerprint"),
            std::string::npos);
  // The serve layer's opt-out: same shape scores fine without the check.
  auto unguarded = fitted.trained.Score(other, /*check_fingerprint=*/false);
  ASSERT_TRUE(unguarded.ok()) << unguarded.status().ToString();
  EXPECT_EQ(unguarded->size(), static_cast<size_t>(other.num_nodes()));
}

TEST(ModelIoTest, FingerprintSeesContentChanges) {
  const Fitted& fitted = GetFitted();
  GraphFingerprint base = FingerprintGraph(fitted.graph);
  EXPECT_TRUE(base.Matches(FingerprintGraph(fitted.graph)));
  MultiplexGraph other = MakeTiny(124);
  GraphFingerprint changed = FingerprintGraph(other);
  // Same shape: only the content hash separates them.
  ASSERT_EQ(base.num_nodes, changed.num_nodes);
  EXPECT_FALSE(base.Matches(changed));
}

// ------------------------- error paths ------------------------------------

TEST(ModelIoTest, MissingAndUnwritablePaths) {
  auto missing = TrainedModel::Load("/nonexistent/model.umgm");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(
      GetFitted().trained.Save("/nonexistent/dir/model.umgm").ok());
}

TEST(ModelIoTest, RejectsBadMagicAndVersion) {
  auto garbage = LoadBytes("bad_magic", "XXXXYYYYZZZZ");
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.status().message().find("not a umgad model"),
            std::string::npos);

  std::string bytes = SavedArtifactBytes("bad_version");
  bytes[Layout::kVersion] = 0x00;
  auto result = LoadBytes("bad_version", bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unsupported model format"),
            std::string::npos);
}

// --------------------- version evolution (FORMATS.md) ---------------------

TEST(ModelIoTest, RejectsFutureVersionWithUpgradeHint) {
  // An old server handed a v3 artifact must fail closed with a message
  // that names the fix, not limp along misparsing bytes.
  std::string bytes = SavedArtifactBytes("future_version");
  PatchPod<uint32_t>(&bytes, Layout::kVersion, 3);
  auto result = LoadBytes("future_version", bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("newer than this build supports"),
            std::string::npos);
}

TEST(ModelIoTest, LoadsV1ArtifactsForever) {
  // v1 had no config length prefix: excise it and stamp version 1. The
  // loader must read the fixed-size config path and produce a model that
  // re-saves byte-identically to the v2 original.
  const std::string v2 = SavedArtifactBytes("v1_compat");
  std::string v1 = v2.substr(0, Layout::kConfigLength) +
                   v2.substr(Layout::kConfigLength + 4);
  PatchPod<uint32_t>(&v1, Layout::kVersion, 1);
  auto loaded = LoadBytes("v1_compat", v1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->config().hidden_dim, SmallConfig().hidden_dim);

  const std::string path = TempPath("v1_resaved.umgm");
  ASSERT_TRUE(loaded->Save(path).ok());
  const std::string resaved = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(resaved, v2);
}

TEST(ModelIoTest, SkipsUnknownTrailingConfigFields) {
  // Forward compatibility within v2: a newer minor revision may append
  // optional config fields and bump only the length prefix. This build
  // must load the core fields and skip the rest.
  std::string bytes = SavedArtifactBytes("trailing_config");
  const Layout layout(GetFitted().trained.fingerprint().num_relations);
  const std::string extra(12, '\x5a');
  bytes.insert(layout.config_end, extra);
  PatchPod<uint32_t>(&bytes, Layout::kConfigLength,
                     Layout::kConfigCoreBytes + 12);
  auto loaded = LoadBytes("trailing_config", bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->config().hidden_dim, SmallConfig().hidden_dim);
  EXPECT_EQ(loaded->config().seed, SmallConfig().seed);
  EXPECT_TRUE(
      loaded->fingerprint().Matches(GetFitted().trained.fingerprint()));
}

TEST(ModelIoTest, RejectsCorruptConfigLength) {
  // Shorter than the core this version requires: a semantic change snuck
  // in without a version bump, or plain corruption. Either way, refuse.
  std::string bytes = SavedArtifactBytes("bad_config_len");
  PatchPod<uint32_t>(&bytes, Layout::kConfigLength, 4);
  auto too_small = LoadBytes("bad_config_len", bytes);
  ASSERT_FALSE(too_small.ok());
  EXPECT_NE(too_small.status().message().find("smaller than"),
            std::string::npos);

  bytes = SavedArtifactBytes("bad_config_len");
  PatchPod<uint32_t>(&bytes, Layout::kConfigLength, 1u << 20);
  auto absurd = LoadBytes("bad_config_len", bytes);
  ASSERT_FALSE(absurd.ok());
  EXPECT_NE(absurd.status().message().find("absurd config block"),
            std::string::npos);
}

TEST(ModelIoTest, RejectsTruncation) {
  const std::string bytes = SavedArtifactBytes("trunc");
  // Mid-header, mid-config, mid-weights, and just before the trailer (the
  // trailer is what catches a file missing only its tail).
  for (size_t cut : {size_t{6}, size_t{40}, bytes.size() / 2,
                     bytes.size() - 2}) {
    EXPECT_FALSE(LoadBytes("trunc", bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(ModelIoTest, RejectsCorruptConfig) {
  std::string bytes = SavedArtifactBytes("bad_config");
  PatchPod<uint32_t>(&bytes, Layout::kConfigEncoder, 7);
  auto bad_encoder = LoadBytes("bad_config", bytes);
  ASSERT_FALSE(bad_encoder.ok());
  EXPECT_NE(bad_encoder.status().message().find("unknown encoder kind"),
            std::string::npos);

  bytes = SavedArtifactBytes("bad_config");
  PatchPod<int32_t>(&bytes, Layout::kConfigHiddenDim, -1);
  auto bad_dim = LoadBytes("bad_config", bytes);
  ASSERT_FALSE(bad_dim.ok());
  EXPECT_NE(bad_dim.status().message().find("corrupt model config"),
            std::string::npos);
}

TEST(ModelIoTest, CorruptWeightCountFailsWithoutOom) {
  const Layout layout(GetFitted().trained.fingerprint().num_relations);

  // All-ones count reads as negative.
  std::string bytes = SavedArtifactBytes("bad_count");
  PatchPod<int64_t>(&bytes, layout.tensor_count, int64_t{-1});
  auto negative = LoadBytes("bad_count", bytes);
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("weight tensors declared"),
            std::string::npos);

  // Just past the format cap.
  bytes = SavedArtifactBytes("bad_count");
  PatchPod<int64_t>(&bytes, layout.tensor_count, int64_t{(1 << 20) + 1});
  auto oversized = LoadBytes("bad_count", bytes);
  ASSERT_FALSE(oversized.ok());
  EXPECT_NE(oversized.status().message().find("weight tensors declared"),
            std::string::npos);
}

TEST(ModelIoTest, HostileTensorShapeFailsWithoutOom) {
  const Layout layout(GetFitted().trained.fingerprint().num_relations);
  // rows and cols each at the per-axis cap: the element count (2^48) must
  // be caught by the remaining-file-size guard, whose divide-based check
  // survives products that would wrap a 64-bit byte count.
  std::string bytes = SavedArtifactBytes("bad_shape");
  PatchPod<int32_t>(&bytes, layout.first_tensor_shape, 1 << 24);
  PatchPod<int32_t>(&bytes, layout.first_tensor_shape + 4, 1 << 24);
  auto result = LoadBytes("bad_shape", bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("weight data"), std::string::npos);

  // An axis beyond the cap is rejected at the shape check itself.
  bytes = SavedArtifactBytes("bad_shape");
  PatchPod<int32_t>(&bytes, layout.first_tensor_shape, (1 << 24) + 1);
  result = LoadBytes("bad_shape", bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("declares shape"),
            std::string::npos);
}

TEST(ModelIoTest, RejectsANonFiniteWeight) {
  // Element 0 of weight tensor 1: tensor 0's shape and data come first.
  const Layout layout(GetFitted().trained.fingerprint().num_relations);
  const std::string bytes = SavedArtifactBytes("nan_weight");
  const size_t second_tensor_data =
      layout.first_tensor_shape + 8 +
      sizeof(float) * GetFitted().trained.weights()[0].size() + 8;
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    -std::numeric_limits<float>::infinity()}) {
    std::string patched = bytes;
    PatchPod<float>(&patched, second_tensor_data, bad);
    auto result = LoadBytes("nan_weight", patched);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(
        result.status().message().find("weight 1 element 0 is not finite"),
        std::string::npos)
        << result.status().message();
  }
}

TEST(ModelIoTest, RejectsTrailerDamage) {
  std::string bytes = SavedArtifactBytes("bad_trailer");
  bytes[bytes.size() - 1] ^= 0x5a;
  auto result = LoadBytes("bad_trailer", bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("trailer mismatch"),
            std::string::npos);
}

TEST(ModelIoTest, WeightShapeMismatchIsCaughtAtScoreTime) {
  // A structurally valid file whose stored tensors do not fit the config's
  // registration structure: shrink hidden_dim so BuildViews wants smaller
  // weights than the file carries.
  std::string bytes = SavedArtifactBytes("shape_mismatch");
  PatchPod<int32_t>(&bytes, Layout::kConfigHiddenDim, 4);
  auto loaded = LoadBytes("shape_mismatch", bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto scores = loaded->Score(GetFitted().graph);
  ASSERT_FALSE(scores.ok());
  EXPECT_NE(scores.status().message().find("shape mismatch"),
            std::string::npos);
}

}  // namespace
}  // namespace umgad
