#include <gtest/gtest.h>

#include "core/gmae.h"
#include "core/relation_fusion.h"
#include "tensor/init.h"

namespace umgad {
namespace {

std::shared_ptr<const SparseMatrix> ChainGraph(int n) {
  std::vector<Edge> edges;
  for (int i = 0; i + 1 < n; ++i) edges.push_back(Edge{i, i + 1});
  return std::make_shared<const SparseMatrix>(
      SparseMatrix::FromEdges(n, edges, true).NormalizedWithSelfLoops());
}

UmgadConfig SmallConfig(EncoderKind kind) {
  UmgadConfig config;
  config.encoder = kind;
  config.hidden_dim = 8;
  config.encoder_layers = 1;
  config.decoder_layers = 1;
  return config;
}

class GmaeEncoders : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(GmaeEncoders, ReconstructionShapes) {
  Rng rng(1);
  Gmae gmae(6, SmallConfig(GetParam()), &rng);
  auto adj = ChainGraph(10);
  ag::VarPtr x = ag::Constant(RandomNormal(10, 6, 0, 1, &rng));
  ag::VarPtr recon = gmae.ReconstructAttributes(adj, x, {1, 3, 5});
  EXPECT_EQ(recon->value().rows(), 10);
  EXPECT_EQ(recon->value().cols(), 6);
  EXPECT_TRUE(recon->value().AllFinite());
  ag::VarPtr z = gmae.Embed(adj, x);
  EXPECT_EQ(z->value().rows(), 10);
  EXPECT_EQ(z->value().cols(), 8);
}

TEST_P(GmaeEncoders, MaskedInputChangesOutput) {
  Rng rng(2);
  Gmae gmae(4, SmallConfig(GetParam()), &rng);
  auto adj = ChainGraph(8);
  ag::VarPtr x = ag::Constant(RandomNormal(8, 4, 0, 1, &rng));
  Tensor unmasked = gmae.ReconstructAttributes(adj, x, {})->value();
  Tensor masked = gmae.ReconstructAttributes(adj, x, {0, 1, 2, 3})->value();
  EXPECT_GT(MaxAbsDiff(unmasked, masked), 1e-6);
}

TEST_P(GmaeEncoders, DeeperEncoderBuilds) {
  Rng rng(3);
  UmgadConfig config = SmallConfig(GetParam());
  config.encoder_layers = 2;
  Gmae gmae(5, config, &rng);
  auto adj = ChainGraph(6);
  ag::VarPtr x = ag::Constant(RandomNormal(6, 5, 0, 1, &rng));
  EXPECT_TRUE(gmae.Embed(adj, x)->value().AllFinite());
}

INSTANTIATE_TEST_SUITE_P(BothEncoders, GmaeEncoders,
                         ::testing::Values(EncoderKind::kGat,
                                           EncoderKind::kSgc),
                         [](const auto& info) {
                           return info.param == EncoderKind::kGat ? "GAT"
                                                                  : "SGC";
                         });

TEST(GmaeTest, MaskTokenIsTrainable) {
  Rng rng(4);
  Gmae gmae(4, SmallConfig(EncoderKind::kSgc), &rng);
  auto adj = ChainGraph(6);
  ag::VarPtr x = ag::Constant(RandomNormal(6, 4, 0, 1, &rng));
  ag::VarPtr recon = gmae.ReconstructAttributes(adj, x, {2});
  ag::Backward(ag::Mean(recon));
  // The [MASK] token is the first registered parameter and must receive a
  // gradient through the masked row.
  bool token_has_grad = false;
  for (const auto& p : gmae.Parameters()) {
    if (p->value().rows() == 1 && p->value().cols() == 4 && p->has_grad() &&
        p->grad().SquaredNorm() > 0.0) {
      token_has_grad = true;
    }
  }
  EXPECT_TRUE(token_has_grad);
}

TEST(RelationFusionTest, LearnableWeightsAreTrainable) {
  Rng rng(5);
  RelationFusion fusion(3, /*learnable=*/true, &rng);
  EXPECT_EQ(fusion.Parameters().size(), 1u);
  std::vector<ag::VarPtr> xs = {
      ag::Constant(Tensor::Full(2, 2, 1.0f)),
      ag::Constant(Tensor::Full(2, 2, 2.0f)),
      ag::Constant(Tensor::Full(2, 2, 3.0f)),
  };
  ag::VarPtr fused = fusion.FuseTensors(xs);
  // Fused value is a convex combination: between min and max inputs.
  EXPECT_GT(fused->value().at(0, 0), 1.0f);
  EXPECT_LT(fused->value().at(0, 0), 3.0f);
  ag::Backward(ag::Mean(fused));
  EXPECT_GT(fusion.Parameters()[0]->grad().SquaredNorm(), 0.0);
}

TEST(RelationFusionTest, UniformModeHasNoParameters) {
  Rng rng(6);
  RelationFusion fusion(4, /*learnable=*/false, &rng);
  EXPECT_TRUE(fusion.Parameters().empty());
  std::vector<double> w = fusion.Weights();
  for (double v : w) EXPECT_NEAR(v, 0.25, 1e-9);
}

TEST(RelationFusionTest, WeightsMatchSoftmaxOfLogits) {
  Rng rng(7);
  RelationFusion fusion(2, /*learnable=*/true, &rng);
  std::vector<double> w = fusion.Weights();
  EXPECT_NEAR(w[0] + w[1], 1.0, 1e-9);
  // Fusing scalar losses equals the weighted sum of the scalars.
  std::vector<ag::VarPtr> losses = {
      ag::Constant(Tensor::Full(1, 1, 2.0f)),
      ag::Constant(Tensor::Full(1, 1, 6.0f)),
  };
  ag::VarPtr fused = fusion.FuseLosses(losses);
  EXPECT_NEAR(fused->value().scalar(), w[0] * 2.0 + w[1] * 6.0, 1e-5);
}

}  // namespace
}  // namespace umgad
