#include "nn/gat.h"

#include "tensor/init.h"

namespace umgad {
namespace nn {

GatConv::GatConv(int in_dim, int out_dim, Activation act, Rng* rng,
                 float negative_slope)
    : act_(act), slope_(negative_slope) {
  weight_ = RegisterParameter(XavierUniform(in_dim, out_dim, rng));
  attn_src_ = RegisterParameter(XavierUniform(1, out_dim, rng));
  attn_dst_ = RegisterParameter(XavierUniform(1, out_dim, rng));
}

ag::VarPtr GatConv::Forward(std::shared_ptr<const SparseMatrix> adj,
                            const ag::VarPtr& x) const {
  return Activate(ag::GatAttention(x, weight_, attn_src_, attn_dst_,
                                   std::move(adj), slope_),
                  act_);
}

ag::VarPtr GatConv::ForwardNaive(std::shared_ptr<const SparseMatrix> adj,
                                 const ag::VarPtr& x) const {
  return Activate(ag::GatAttentionNaive(x, weight_, attn_src_, attn_dst_,
                                        std::move(adj), slope_),
                  act_);
}

}  // namespace nn
}  // namespace umgad
