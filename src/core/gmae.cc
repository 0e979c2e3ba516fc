#include "core/gmae.h"

#include "tensor/init.h"

namespace umgad {

Gmae::Gmae(int in_dim, const UmgadConfig& config, Rng* rng)
    : kind_(config.encoder) {
  mask_token_ = RegisterParameter(
      RandomNormal(1, in_dim, 0.0, 0.02, rng));

  const int h = config.hidden_dim;
  const int depth = std::max(1, config.encoder_layers);
  if (kind_ == EncoderKind::kGat) {
    for (int l = 0; l < depth; ++l) {
      const int in = (l == 0) ? in_dim : h;
      // ELU between layers, linear final layer (embeddings feed dot
      // products, so an unbounded last layer helps edge logits).
      const nn::Activation act =
          (l + 1 < depth) ? nn::Activation::kElu : nn::Activation::kNone;
      gat_layers_.push_back(
          std::make_unique<nn::GatConv>(in, h, act, rng));
      RegisterChild(gat_layers_.back().get());
    }
  } else {
    for (int l = 0; l < depth; ++l) {
      const int in = (l == 0) ? in_dim : h;
      const nn::Activation act =
          (l + 1 < depth) ? nn::Activation::kRelu : nn::Activation::kNone;
      sgc_layers_.push_back(
          std::make_unique<nn::SgcConv>(in, h, /*hops=*/1, act, rng));
      RegisterChild(sgc_layers_.back().get());
    }
  }
  decoder_ = std::make_unique<nn::SgcConv>(
      h, in_dim, /*hops=*/std::max(1, config.decoder_layers),
      nn::Activation::kNone, rng);
  RegisterChild(decoder_.get());
}

ag::VarPtr Gmae::Encode(const std::shared_ptr<const SparseMatrix>& adj,
                        const ag::VarPtr& h0) const {
  ag::VarPtr h = h0;
  if (kind_ == EncoderKind::kGat) {
    for (const auto& layer : gat_layers_) h = layer->Forward(adj, h);
  } else {
    for (const auto& layer : sgc_layers_) h = layer->Forward(adj, h);
  }
  return h;
}

ag::VarPtr Gmae::ReconstructAttributes(
    std::shared_ptr<const SparseMatrix> adj, const ag::VarPtr& x,
    const std::vector<int>& masked) const {
  ag::VarPtr input = x;
  if (!masked.empty()) {
    input = ag::MaskRows(input, masked, mask_token_);
  }
  ag::VarPtr h = Encode(adj, input);
  return decoder_->Forward(adj, h);
}

ag::VarPtr Gmae::Embed(std::shared_ptr<const SparseMatrix> adj,
                       const ag::VarPtr& x) const {
  return Encode(adj, x);
}

}  // namespace umgad
