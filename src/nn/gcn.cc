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
  // The MatMul and Spmm outputs are read by nothing but the next op's
  // forward: the Spmm and AddRowBroadcast closures read no input value, and
  // the MatMul and Spmm closures no output value. So each is dropped as soon
  // as the op after it is built; the node keeps its shape for grad().
  ag::VarPtr h = ag::MatMul(x, weight_);
  for (int l = 0; l < hops_; ++l) {
    ag::VarPtr next = ag::Spmm(norm_adj, h);
    h->mutable_value() = Tensor();
    h = next;
  }
  ag::VarPtr out = ag::AddRowBroadcast(h, bias_);
  h->mutable_value() = Tensor();
  return Activate(out, act_);
}

}  // namespace nn
}  // namespace umgad
