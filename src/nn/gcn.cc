#include "nn/gcn.h"

#include "tensor/init.h"

namespace umgad {
namespace nn {

ag::VarPtr Activate(const ag::VarPtr& x, Activation act) {
  switch (act) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return ag::Relu(x);
    case Activation::kLeakyRelu:
      return ag::LeakyRelu(x, 0.2f);
    case Activation::kElu:
      return ag::Elu(x);
    case Activation::kTanh:
      return ag::Tanh(x);
  }
  return x;
}

SgcConv::SgcConv(int in_dim, int out_dim, int hops, Activation act, Rng* rng)
    : hops_(hops), act_(act) {
  UMGAD_CHECK_GE(hops, 0);
  weight_ = RegisterParameter(XavierUniform(in_dim, out_dim, rng));
  bias_ = RegisterParameter(Tensor(1, out_dim));
}

ag::VarPtr SgcConv::Forward(std::shared_ptr<const SparseMatrix> norm_adj,
                            const ag::VarPtr& x) const {
  ag::VarPtr h = ag::MatMul(x, weight_);
  for (int l = 0; l < hops_; ++l) {
    h = ag::Spmm(norm_adj, h);
  }
  h = ag::AddRowBroadcast(h, bias_);
  return Activate(h, act_);
}

}  // namespace nn
}  // namespace umgad
