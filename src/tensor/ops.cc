#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/thread_pool.h"

namespace umgad {
namespace ag {

namespace {

/// Reusable per-thread scratch for the loss-backward ownership buckets
/// (MaskedEdgeSoftmaxCE and DualContrastiveLoss below). The bucket shapes
/// repeat exactly across training steps, so after the first backward of a
/// run every ScratchSized/ScratchZeroed call is served from the existing
/// capacity and steady-state backwards perform zero scratch mallocs
/// (asserted in pool_test). Safe as thread_local: a thread waiting in
/// ParallelFor runs only chunks of its own call, so two loss backwards never
/// interleave on one thread, and the chunks they fan out to only read the
/// owning thread's buckets.
struct LossScratch {
  std::vector<int64_t> ptr;
  std::vector<int64_t> fill;
  std::vector<int> other;
  std::vector<double> delta;
  std::vector<int> inc;
};

LossScratch& TlsLossScratch() {
  thread_local LossScratch scratch;
  return scratch;
}

std::atomic<int64_t> g_loss_scratch_fresh_bytes{0};

/// Size `v` to `n` elements, reusing capacity; counts fresh allocations.
template <typename T>
std::vector<T>& ScratchSized(std::vector<T>& v, size_t n) {
  if (v.capacity() < n) {
    g_loss_scratch_fresh_bytes.fetch_add(
        static_cast<int64_t>(n * sizeof(T)), std::memory_order_relaxed);
    v.reserve(n);
  }
  v.resize(n);
  return v;
}

/// Like ScratchSized, but every element reset to zero.
template <typename T>
std::vector<T>& ScratchZeroed(std::vector<T>& v, size_t n) {
  if (v.capacity() < n) {
    g_loss_scratch_fresh_bytes.fetch_add(
        static_cast<int64_t>(n * sizeof(T)), std::memory_order_relaxed);
    v.reserve(n);
  }
  v.assign(n, T{});
  return v;
}

/// Grain sizes for the parallel hot loops (shared with src/tensor/tensor.cc
/// via common/thread_pool.h).
constexpr int64_t kElemGrain = kParallelElemGrain;
constexpr int64_t kRowGrain = kParallelRowGrain;

/// All ops funnel through this helper: the node is drawn from the global
/// tape (transient — reclaimed by Tape::Reset()), requires a gradient iff
/// any input does, and the backward closure is only attached in that case.
VarPtr MakeNode(Tensor value, const VarPtr* inputs, uint32_t n,
                const char* op, std::function<void(Node*)>&& backward) {
  bool needs_grad = false;
  for (uint32_t i = 0; i < n; ++i) {
    needs_grad = needs_grad || inputs[i]->requires_grad();
  }
  Tape& tape = Tape::Global();
  Node* node = tape.NewNode(std::move(value), needs_grad, op,
                            /*persistent=*/false);
  node->set_inputs(tape.CopyInputs(inputs, n), n);
  if (needs_grad) node->set_backward(std::move(backward));
  return VarPtr(node);
}

VarPtr MakeNode(Tensor value, std::initializer_list<VarPtr> inputs,
                const char* op, std::function<void(Node*)> backward) {
  return MakeNode(std::move(value), inputs.begin(),
                  static_cast<uint32_t>(inputs.size()), op,
                  std::move(backward));
}

VarPtr MakeNode(Tensor value, const std::vector<VarPtr>& inputs,
                const char* op, std::function<void(Node*)> backward) {
  return MakeNode(std::move(value), inputs.data(),
                  static_cast<uint32_t>(inputs.size()), op,
                  std::move(backward));
}

bool Wants(const VarPtr& v) { return v->requires_grad(); }

/// Grain for fan-outs over edge-candidate sets (each set is an O(nc * d)
/// softmax, heavier than one row).
constexpr int64_t kSetGrain = 16;

/// True if `idx` names any row twice. The parallel ScaledCosine backward
/// needs exclusive row ownership; duplicate targets fall back to the
/// serial scatter (they do not occur on the trained paths, where masks are
/// drawn without replacement).
bool HasDuplicateRows(const std::vector<int>& idx) {
  std::vector<int> sorted = idx;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

/// Regroup a loss's scatter positions 0..m-1 by the partition block of the
/// row each position touches (key(k) -> global row), producing a schedule
/// ForEachRowBlocked can iterate. Positions stay ascending within a block
/// (stable counting sort), and every position is still processed exactly
/// once by one thread, so the blocked sweep computes the same floats as the
/// flat one — it only changes which rows a worker touches consecutively.
template <typename KeyFn>
std::shared_ptr<const RowBlocks> PositionBlocks(const RowBlocks* rows,
                                                int64_t m, KeyFn&& key) {
  if (rows == nullptr || rows->num_blocks <= 1) return nullptr;
  const int p = rows->num_blocks;
  auto out = std::make_shared<RowBlocks>();
  out->num_blocks = p;
  out->block_of.resize(m);
  out->block_ptr.assign(p + 1, 0);
  for (int64_t k = 0; k < m; ++k) {
    out->block_of[k] = rows->block_of[key(k)];
    ++out->block_ptr[out->block_of[k] + 1];
  }
  for (int b = 0; b < p; ++b) out->block_ptr[b + 1] += out->block_ptr[b];
  out->order.resize(m);
  std::vector<int64_t> fill(out->block_ptr.begin(),
                            out->block_ptr.end() - 1);
  for (int64_t k = 0; k < m; ++k) {
    out->order[fill[out->block_of[k]]++] = static_cast<int>(k);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Elementwise / linear algebra
// ---------------------------------------------------------------------------

VarPtr Add(const VarPtr& a, const VarPtr& b) {
  UMGAD_CHECK(a->value().SameShape(b->value()));
  return MakeNode(umgad::Add(a->value(), b->value()), {a, b}, "add",
                  [](Node* self) {
                    const Tensor& g = self->grad();
                    const auto& in = self->inputs();
                    if (Wants(in[0])) in[0]->grad().AddInPlace(g);
                    if (Wants(in[1])) in[1]->grad().AddInPlace(g);
                  });
}

VarPtr Sub(const VarPtr& a, const VarPtr& b) {
  UMGAD_CHECK(a->value().SameShape(b->value()));
  return MakeNode(umgad::Sub(a->value(), b->value()), {a, b}, "sub",
                  [](Node* self) {
                    const Tensor& g = self->grad();
                    const auto& in = self->inputs();
                    if (Wants(in[0])) in[0]->grad().AddInPlace(g);
                    if (Wants(in[1])) in[1]->grad().AxpyInPlace(-1.0f, g);
                  });
}

VarPtr AddN(const std::vector<VarPtr>& xs) {
  UMGAD_CHECK(!xs.empty());
  Tensor acc = xs[0]->value();
  for (size_t i = 1; i < xs.size(); ++i) acc.AddInPlace(xs[i]->value());
  return MakeNode(std::move(acc), xs, "addn", [](Node* self) {
    const Tensor& g = self->grad();
    for (const auto& in : self->inputs()) {
      if (Wants(in)) in->grad().AddInPlace(g);
    }
  });
}

VarPtr Hadamard(const VarPtr& a, const VarPtr& b) {
  UMGAD_CHECK(a->value().SameShape(b->value()));
  return MakeNode(
      umgad::Hadamard(a->value(), b->value()), {a, b}, "hadamard",
      [](Node* self) {
        const Tensor& g = self->grad();
        const auto& in = self->inputs();
        if (Wants(in[0])) {
          in[0]->grad().AddInPlace(umgad::Hadamard(g, in[1]->value()));
        }
        if (Wants(in[1])) {
          in[1]->grad().AddInPlace(umgad::Hadamard(g, in[0]->value()));
        }
      });
}

VarPtr ScalarMul(const VarPtr& a, float alpha) {
  return MakeNode(Scale(a->value(), alpha), {a}, "scalar_mul",
                  [alpha](Node* self) {
                    const auto& in = self->inputs();
                    if (Wants(in[0])) {
                      in[0]->grad().AxpyInPlace(alpha, self->grad());
                    }
                  });
}

VarPtr MatMul(const VarPtr& a, const VarPtr& b) {
  return MakeNode(umgad::MatMul(a->value(), b->value()), {a, b}, "matmul",
                  [](Node* self) {
                    const Tensor& g = self->grad();
                    const auto& in = self->inputs();
                    if (Wants(in[0])) {
                      in[0]->grad().AddInPlace(MatMulTransB(g, in[1]->value()));
                    }
                    if (Wants(in[1])) {
                      in[1]->grad().AddInPlace(MatMulTransA(in[0]->value(), g));
                    }
                  });
}

VarPtr Spmm(std::shared_ptr<const SparseMatrix> s, const VarPtr& x) {
  UMGAD_CHECK(s != nullptr);
  return MakeNode(s->Multiply(x->value()), {x}, "spmm",
                  [s](Node* self) {
                    const auto& in = self->inputs();
                    if (Wants(in[0])) {
                      in[0]->grad().AddInPlace(
                          s->MultiplyTransposed(self->grad()));
                    }
                  });
}

VarPtr AddRowBroadcast(const VarPtr& x, const VarPtr& bias) {
  UMGAD_CHECK_EQ(bias->value().rows(), 1);
  UMGAD_CHECK_EQ(bias->value().cols(), x->value().cols());
  Tensor out = x->value();
  const float* b = bias->value().data();
  ParallelFor(out.rows(), kRowGrain, [&out, b](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < r1; ++i) {
      float* row = out.row(i);
      for (int j = 0; j < out.cols(); ++j) row[j] += b[j];
    }
  });
  return MakeNode(std::move(out), {x, bias}, "add_row_broadcast",
                  [](Node* self) {
                    const Tensor& g = self->grad();
                    const auto& in = self->inputs();
                    if (Wants(in[0])) in[0]->grad().AddInPlace(g);
                    if (Wants(in[1])) {
                      float* db = in[1]->grad().data();
                      for (int i = 0; i < g.rows(); ++i) {
                        const float* grow = g.row(i);
                        for (int j = 0; j < g.cols(); ++j) db[j] += grow[j];
                      }
                    }
                  });
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

namespace {

template <typename Fwd, typename BwdFromInOut>
VarPtr UnaryOp(const VarPtr& a, const char* name, Fwd fwd,
               BwdFromInOut dval) {
  Tensor out = a->value();
  float* d = out.data();
  ParallelFor(out.size(), kElemGrain, [d, fwd](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) d[i] = fwd(d[i]);
  });
  return MakeNode(std::move(out), {a}, name, [dval](Node* self) {
    const auto& in = self->inputs();
    if (!Wants(in[0])) return;
    const Tensor& g = self->grad();
    const float* x = in[0]->value().data();
    const float* y = self->value().data();
    const float* gd = g.data();
    float* dx = in[0]->grad().data();
    ParallelFor(g.size(), kElemGrain,
                [dx, gd, x, y, dval](int64_t b, int64_t e) {
                  for (int64_t i = b; i < e; ++i) {
                    dx[i] += gd[i] * dval(x[i], y[i]);
                  }
                });
  });
}

}  // namespace

VarPtr Relu(const VarPtr& a) {
  return UnaryOp(
      a, "relu", [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

VarPtr LeakyRelu(const VarPtr& a, float slope) {
  return UnaryOp(
      a, "leaky_relu",
      [slope](float x) { return x > 0.0f ? x : slope * x; },
      [slope](float x, float) { return x > 0.0f ? 1.0f : slope; });
}

VarPtr Sigmoid(const VarPtr& a) {
  return UnaryOp(
      a, "sigmoid",
      [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

VarPtr Tanh(const VarPtr& a) {
  return UnaryOp(
      a, "tanh", [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

VarPtr Elu(const VarPtr& a, float alpha) {
  return UnaryOp(
      a, "elu",
      [alpha](float x) { return x > 0.0f ? x : alpha * (std::exp(x) - 1.0f); },
      [alpha](float x, float y) { return x > 0.0f ? 1.0f : y + alpha; });
}

// ---------------------------------------------------------------------------
// Row / shape ops
// ---------------------------------------------------------------------------

VarPtr RowL2Normalize(const VarPtr& a, float eps) {
  const Tensor& x = a->value();
  Tensor out = x;
  std::vector<float> norms(x.rows());
  ParallelFor(x.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < r1; ++i) {
      double n = x.RowNorm(i);
      norms[i] = static_cast<float>(n);
      if (n < eps) continue;
      float inv = static_cast<float>(1.0 / n);
      float* r = out.row(i);
      for (int j = 0; j < x.cols(); ++j) r[j] *= inv;
    }
  });
  return MakeNode(
      std::move(out), {a}, "row_l2_normalize",
      [norms = std::move(norms), eps](Node* self) {
        const auto& in = self->inputs();
        if (!Wants(in[0])) return;
        const Tensor& g = self->grad();
        const Tensor& y = self->value();
        Tensor& dx = in[0]->grad();
        const int d = g.cols();
        ParallelFor(g.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
          for (int i = static_cast<int>(r0); i < r1; ++i) {
            if (norms[i] < eps) continue;
            const float* grow = g.row(i);
            const float* yrow = y.row(i);
            double gy = 0.0;
            for (int j = 0; j < d; ++j) {
              gy += static_cast<double>(grow[j]) * yrow[j];
            }
            const float inv = 1.0f / norms[i];
            float* dxrow = dx.row(i);
            for (int j = 0; j < d; ++j) {
              dxrow[j] += inv * (grow[j] - static_cast<float>(gy) * yrow[j]);
            }
          }
        });
      });
}

VarPtr GatherRows(const VarPtr& a, std::vector<int> idx) {
  Tensor out = umgad::GatherRows(a->value(), idx);
  return MakeNode(std::move(out), {a}, "gather_rows",
                  [idx = std::move(idx)](Node* self) {
                    const auto& in = self->inputs();
                    if (!Wants(in[0])) return;
                    const Tensor& g = self->grad();
                    Tensor& dx = in[0]->grad();
                    const int d = g.cols();
                    for (size_t i = 0; i < idx.size(); ++i) {
                      const float* grow = g.row(static_cast<int>(i));
                      float* dxrow = dx.row(idx[i]);
                      for (int j = 0; j < d; ++j) dxrow[j] += grow[j];
                    }
                  });
}

VarPtr MaskRows(const VarPtr& a, std::vector<int> masked_idx,
                const VarPtr& token) {
  const Tensor& x = a->value();
  UMGAD_CHECK_EQ(token->value().rows(), 1);
  UMGAD_CHECK_EQ(token->value().cols(), x.cols());
  Tensor out = x;
  const float* tok = token->value().data();
  for (int i : masked_idx) {
    UMGAD_CHECK(i >= 0 && i < x.rows());
    std::copy(tok, tok + x.cols(), out.row(i));
  }
  std::vector<char> is_masked(x.rows(), 0);
  for (int i : masked_idx) is_masked[i] = 1;
  return MakeNode(
      std::move(out), {a, token}, "mask_rows",
      [flags = std::move(is_masked)](Node* self) {
        const Tensor& g = self->grad();
        const auto& in = self->inputs();
        const int d = g.cols();
        if (Wants(in[0])) {
          Tensor& dx = in[0]->grad();
          for (int i = 0; i < g.rows(); ++i) {
            if (flags[i]) continue;
            const float* grow = g.row(i);
            float* dxrow = dx.row(i);
            for (int j = 0; j < d; ++j) dxrow[j] += grow[j];
          }
        }
        if (Wants(in[1])) {
          float* dtok = in[1]->grad().data();
          for (int i = 0; i < g.rows(); ++i) {
            if (!flags[i]) continue;
            const float* grow = g.row(i);
            for (int j = 0; j < d; ++j) dtok[j] += grow[j];
          }
        }
      });
}

std::vector<float> SimplexWeights(const Tensor& logits) {
  // Stable softmax in float, normalised by a double denominator.
  const int r_count = logits.cols();
  std::vector<float> w(r_count);
  const float* l = logits.data();
  float mx = l[0];
  for (int r = 1; r < r_count; ++r) mx = std::max(mx, l[r]);
  double denom = 0.0;
  for (int r = 0; r < r_count; ++r) {
    w[r] = std::exp(l[r] - mx);
    denom += w[r];
  }
  for (int r = 0; r < r_count; ++r) {
    w[r] = static_cast<float>(w[r] / denom);
  }
  return w;
}

VarPtr SimplexWeightedSum(const std::vector<VarPtr>& xs,
                          const VarPtr& logits) {
  const int r_count = static_cast<int>(xs.size());
  UMGAD_CHECK_GT(r_count, 0);
  UMGAD_CHECK_EQ(logits->value().rows(), 1);
  UMGAD_CHECK_EQ(logits->value().cols(), r_count);

  std::vector<float> w = SimplexWeights(logits->value());
  Tensor out(xs[0]->value().rows(), xs[0]->value().cols());
  for (int r = 0; r < r_count; ++r) {
    UMGAD_CHECK(xs[r]->value().SameShape(out));
    out.AxpyInPlace(w[r], xs[r]->value());
  }

  std::vector<VarPtr> inputs = xs;
  inputs.push_back(logits);
  return MakeNode(
      std::move(out), std::move(inputs), "simplex_weighted_sum",
      [w, r_count](Node* self) {
        const Tensor& g = self->grad();
        const auto& in = self->inputs();
        std::vector<double> s(r_count, 0.0);
        for (int r = 0; r < r_count; ++r) {
          const float* xr = in[r]->value().data();
          const float* gd = g.data();
          double acc = 0.0;
          for (int64_t i = 0; i < g.size(); ++i) {
            acc += static_cast<double>(gd[i]) * xr[i];
          }
          s[r] = acc;
          if (Wants(in[r])) in[r]->grad().AxpyInPlace(w[r], g);
        }
        const VarPtr& logits_in = in[r_count];
        if (Wants(logits_in)) {
          double mean_s = 0.0;
          for (int r = 0; r < r_count; ++r) mean_s += w[r] * s[r];
          float* dl = logits_in->grad().data();
          for (int r = 0; r < r_count; ++r) {
            dl[r] += static_cast<float>(w[r] * (s[r] - mean_s));
          }
        }
      });
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

VarPtr Sum(const VarPtr& a) {
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(a->value().Sum());
  return MakeNode(std::move(out), {a}, "sum", [](Node* self) {
    const auto& in = self->inputs();
    if (!Wants(in[0])) return;
    const float gv = self->grad().scalar();
    Tensor& dx = in[0]->grad();
    float* d = dx.data();
    for (int64_t i = 0; i < dx.size(); ++i) d[i] += gv;
  });
}

VarPtr Mean(const VarPtr& a) {
  const int64_t n = a->value().size();
  UMGAD_CHECK_GT(n, 0);
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(a->value().Sum() / static_cast<double>(n));
  return MakeNode(std::move(out), {a}, "mean", [n](Node* self) {
    const auto& in = self->inputs();
    if (!Wants(in[0])) return;
    const float gv = self->grad().scalar() / static_cast<float>(n);
    Tensor& dx = in[0]->grad();
    float* d = dx.data();
    for (int64_t i = 0; i < dx.size(); ++i) d[i] += gv;
  });
}

// ---------------------------------------------------------------------------
// Fused losses
// ---------------------------------------------------------------------------

VarPtr ScaledCosineLoss(const VarPtr& recon, const Tensor& target,
                        std::vector<int> idx, float eta,
                        std::shared_ptr<const RowBlocks> blocks) {
  UMGAD_CHECK(recon->value().SameShape(target));
  UMGAD_CHECK(!idx.empty());
  UMGAD_CHECK_GE(eta, 1.0f);
  constexpr double kEps = 1e-12;

  const Tensor& r = recon->value();
  const int m = static_cast<int>(idx.size());
  // Block-affine schedule over the index pool: positions grouped by the
  // partition block of their target row, so one worker streams rows that
  // live together in cache.
  const std::shared_ptr<const RowBlocks> pool_blocks =
      PositionBlocks(blocks.get(), m, [&](int64_t k) { return idx[k]; });
  std::vector<double> cos(m, 0.0);
  std::vector<double> rnorm(m, 0.0);
  std::vector<double> tnorm(m, 0.0);
  std::vector<double> term(m, 0.0);
  // Phase 1 — per-row cosines and loss terms in parallel (slot k is owned
  // by the thread that processes it; every term is computed exactly as the
  // serial loop computes it).
  ForEachRowBlocked(m, pool_blocks.get(), kRowGrain, [&](int k) {
    const int i = idx[k];
    rnorm[k] = r.RowNorm(i);
    tnorm[k] = target.RowNorm(i);
    if (rnorm[k] < kEps || tnorm[k] < kEps) {
      cos[k] = 0.0;
    } else {
      cos[k] = r.RowDot(i, target, i) / (rnorm[k] * tnorm[k]);
      cos[k] = std::clamp(cos[k], -1.0, 1.0);
    }
    term[k] = std::pow(1.0 - cos[k], static_cast<double>(eta));
  });
  // Phase 2 — scalar sum in index order: the serial loop's accumulation.
  double loss = 0.0;
  for (int k = 0; k < m; ++k) loss += term[k];
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / m);

  return MakeNode(
      std::move(out), {recon}, "scaled_cosine_loss",
      [idx = std::move(idx), &target, eta, cos = std::move(cos),
       rnorm = std::move(rnorm), tnorm = std::move(tnorm),
       pool_blocks](Node* self) {
        const auto& in = self->inputs();
        if (!Wants(in[0])) return;
        const double gv = self->grad().scalar();
        const Tensor& r = in[0]->value();
        Tensor& dr = in[0]->grad();
        const int m = static_cast<int>(idx.size());
        const int d = r.cols();
        auto row_grad = [&](int k) {
          if (rnorm[k] < kEps || tnorm[k] < kEps) return;
          const int i = idx[k];
          // dL/dcos = -(eta/m) * (1 - cos)^(eta-1)
          const double dldc =
              -gv * (static_cast<double>(eta) / m) *
              std::pow(std::max(0.0, 1.0 - cos[k]),
                       static_cast<double>(eta) - 1.0);
          const double inv_rt = 1.0 / (rnorm[k] * tnorm[k]);
          const double c_over_r2 = cos[k] / (rnorm[k] * rnorm[k]);
          const float* rrow = r.row(i);
          const float* trow = target.row(i);
          float* drrow = dr.row(i);
          for (int j = 0; j < d; ++j) {
            drrow[j] += static_cast<float>(
                dldc * (trow[j] * inv_rt - c_over_r2 * rrow[j]));
          }
        };
        // Serial when idx aliases rows (the blocked/parallel sweep needs
        // exclusive row ownership); otherwise each k writes only
        // dr.row(idx[k]), which it owns exclusively, so the blocked sweep is
        // race-free and order-proof.
        if (HasDuplicateRows(idx)) {
          for (int k = 0; k < m; ++k) row_grad(k);
        } else {
          ForEachRowBlocked(m, pool_blocks.get(), kRowGrain, row_grad);
        }
      });
}

VarPtr ScaledCosineLossNaive(const VarPtr& recon, const Tensor& target,
                             std::vector<int> idx, float eta) {
  UMGAD_CHECK(recon->value().SameShape(target));
  UMGAD_CHECK(!idx.empty());
  UMGAD_CHECK_GE(eta, 1.0f);
  constexpr double kEps = 1e-12;

  // The seed's serial loops, kept verbatim as the differential oracle for
  // the row-partitioned kernel above.
  const Tensor& r = recon->value();
  const int m = static_cast<int>(idx.size());
  std::vector<double> cos(m, 0.0);
  std::vector<double> rnorm(m, 0.0);
  std::vector<double> tnorm(m, 0.0);
  double loss = 0.0;
  for (int k = 0; k < m; ++k) {
    const int i = idx[k];
    rnorm[k] = r.RowNorm(i);
    tnorm[k] = target.RowNorm(i);
    if (rnorm[k] < kEps || tnorm[k] < kEps) {
      cos[k] = 0.0;
    } else {
      cos[k] = r.RowDot(i, target, i) / (rnorm[k] * tnorm[k]);
      cos[k] = std::clamp(cos[k], -1.0, 1.0);
    }
    loss += std::pow(1.0 - cos[k], static_cast<double>(eta));
  }
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / m);

  return MakeNode(
      std::move(out), {recon}, "scaled_cosine_loss_naive",
      [idx = std::move(idx), target, eta, cos = std::move(cos),
       rnorm = std::move(rnorm), tnorm = std::move(tnorm)](Node* self) {
        const auto& in = self->inputs();
        if (!Wants(in[0])) return;
        const double gv = self->grad().scalar();
        const Tensor& r = in[0]->value();
        Tensor& dr = in[0]->grad();
        const int m = static_cast<int>(idx.size());
        const int d = r.cols();
        for (int k = 0; k < m; ++k) {
          if (rnorm[k] < kEps || tnorm[k] < kEps) continue;
          const int i = idx[k];
          // dL/dcos = -(eta/m) * (1 - cos)^(eta-1)
          const double dldc =
              -gv * (static_cast<double>(eta) / m) *
              std::pow(std::max(0.0, 1.0 - cos[k]),
                       static_cast<double>(eta) - 1.0);
          const double inv_rt = 1.0 / (rnorm[k] * tnorm[k]);
          const double c_over_r2 = cos[k] / (rnorm[k] * rnorm[k]);
          const float* rrow = r.row(i);
          const float* trow = target.row(i);
          float* drrow = dr.row(i);
          for (int j = 0; j < d; ++j) {
            drrow[j] += static_cast<float>(
                dldc * (trow[j] * inv_rt - c_over_r2 * rrow[j]));
          }
        }
      });
}

VarPtr MseLoss(const VarPtr& recon, const Tensor& target,
               std::vector<int> idx) {
  UMGAD_CHECK(recon->value().SameShape(target));
  if (idx.empty()) {
    idx.resize(recon->value().rows());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  }
  const Tensor& r = recon->value();
  const int d = r.cols();
  const double denom = static_cast<double>(idx.size()) * d;
  double loss = 0.0;
  for (int i : idx) {
    const float* rr = r.row(i);
    const float* tr = target.row(i);
    for (int j = 0; j < d; ++j) {
      const double diff = static_cast<double>(rr[j]) - tr[j];
      loss += diff * diff;
    }
  }
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / denom);
  return MakeNode(std::move(out), {recon}, "mse_loss",
                  [idx = std::move(idx), target, denom](Node* self) {
                    const auto& in = self->inputs();
                    if (!Wants(in[0])) return;
                    const double gv = self->grad().scalar();
                    const Tensor& r = in[0]->value();
                    Tensor& dr = in[0]->grad();
                    const int d = r.cols();
                    const double coef = gv * 2.0 / denom;
                    for (int i : idx) {
                      const float* rr = r.row(i);
                      const float* tr = target.row(i);
                      float* drr = dr.row(i);
                      for (int j = 0; j < d; ++j) {
                        drr[j] += static_cast<float>(
                            coef * (static_cast<double>(rr[j]) - tr[j]));
                      }
                    }
                  });
}

VarPtr MaskedEdgeSoftmaxCE(const VarPtr& z,
                           std::vector<EdgeCandidateSet> sets,
                           std::shared_ptr<const RowBlocks> blocks) {
  UMGAD_CHECK(!sets.empty());
  const Tensor& zv = z->value();
  const int m = static_cast<int>(sets.size());
  // Block-affine schedule over the sets, keyed by source row (the row
  // every candidate dot of the set streams against).
  const std::shared_ptr<const RowBlocks> set_blocks = PositionBlocks(
      blocks.get(), m, [&](int64_t e) { return sets[e].src; });
  std::vector<std::vector<float>> probs(m);
  std::vector<double> term(m, 0.0);
  // Phase 1 — per-set softmaxes fan out (slot e owned by its thread).
  ForEachRowBlocked(m, set_blocks.get(), kSetGrain, [&](int e) {
    const auto& set = sets[e];
    UMGAD_CHECK(!set.cands.empty());
    const int nc = static_cast<int>(set.cands.size());
    std::vector<double> scores(nc);
    DotChains chains(zv.cols());
    for (int c = 0; c < nc; ++c) {
      chains.Push(zv.row(set.src), zv.row(set.cands[c]), &scores[c]);
    }
    chains.Flush();
    double mx = -1e300;
    for (int c = 0; c < nc; ++c) mx = std::max(mx, scores[c]);
    double denom = 0.0;
    for (int c = 0; c < nc; ++c) {
      scores[c] = std::exp(scores[c] - mx);
      denom += scores[c];
    }
    probs[e].resize(nc);
    for (int c = 0; c < nc; ++c) {
      probs[e][c] = static_cast<float>(scores[c] / denom);
    }
    term[e] = -std::log(std::max(static_cast<double>(probs[e][0]), 1e-30));
  });
  // Phase 2 — scalar sum in set order (the serial accumulation).
  double loss = 0.0;
  for (int e = 0; e < m; ++e) loss += term[e];
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / m);

  return MakeNode(
      std::move(out), {z}, "masked_edge_softmax_ce",
      [sets = std::move(sets), probs = std::move(probs),
       blocks = std::move(blocks)](Node* self) {
        const auto& in = self->inputs();
        if (!Wants(in[0])) return;
        const double gv = self->grad().scalar();
        const Tensor& zv = in[0]->value();
        Tensor& dz = in[0]->grad();
        const int d = zv.cols();
        const int n = zv.rows();
        const double coef = gv / static_cast<double>(sets.size());
        const RowBlocks* row_blocks =
            (blocks != nullptr &&
             static_cast<int64_t>(blocks->block_of.size()) == n)
                ? blocks.get()
                : nullptr;
        // Sources and candidates alias freely across sets, so the serial
        // scatter cannot be partitioned by set. Two-phase ownership trick:
        // every (set, candidate) pair contributes delta * z.row(cand) to
        // dz.row(src) and delta * z.row(src) to dz.row(cand) — bucket both
        // contributions by *destination* row in the serial
        // (set, candidate, src-before-cand) order, then scatter with each
        // destination row owned by exactly one thread. Per element, the
        // additions land in the serial loop's order, so the result is
        // bit-identical for any UMGAD_THREADS.
        LossScratch& scratch = TlsLossScratch();
        std::vector<int64_t>& ptr = ScratchZeroed(scratch.ptr, n + 1);
        for (const auto& set : sets) {
          for (int c : set.cands) {
            ++ptr[set.src + 1];
            ++ptr[c + 1];
          }
        }
        for (int v = 0; v < n; ++v) ptr[v + 1] += ptr[v];
        std::vector<int>& other =
            ScratchSized(scratch.other, static_cast<size_t>(ptr[n]));
        std::vector<double>& delta =
            ScratchSized(scratch.delta, static_cast<size_t>(ptr[n]));
        std::vector<int64_t>& fill = ScratchSized(scratch.fill, n);
        std::copy(ptr.begin(), ptr.end() - 1, fill.begin());
        for (size_t e = 0; e < sets.size(); ++e) {
          const auto& set = sets[e];
          for (size_t c = 0; c < set.cands.size(); ++c) {
            const double dl = coef * (probs[e][c] - (c == 0 ? 1.0 : 0.0));
            const int cand = set.cands[c];
            int64_t slot = fill[set.src]++;
            other[slot] = cand;
            delta[slot] = dl;
            slot = fill[cand]++;
            other[slot] = set.src;
            delta[slot] = dl;
          }
        }
        ForEachRowBlocked(n, row_blocks, kRowGrain, [&](int v) {
          if (ptr[v] == ptr[v + 1]) return;
          float* dzrow = dz.row(v);
          for (int64_t p = ptr[v]; p < ptr[v + 1]; ++p) {
            const float* zrow = zv.row(other[p]);
            const double dl = delta[p];
            for (int j = 0; j < d; ++j) {
              dzrow[j] += static_cast<float>(dl * zrow[j]);
            }
          }
        });
      });
}

VarPtr MaskedEdgeSoftmaxCENaive(const VarPtr& z,
                                std::vector<EdgeCandidateSet> sets) {
  UMGAD_CHECK(!sets.empty());
  // The seed's serial loops, kept as the differential oracle.
  const Tensor& zv = z->value();
  const int m = static_cast<int>(sets.size());
  std::vector<std::vector<float>> probs(m);
  double loss = 0.0;
  for (int e = 0; e < m; ++e) {
    const auto& set = sets[e];
    UMGAD_CHECK(!set.cands.empty());
    const int nc = static_cast<int>(set.cands.size());
    std::vector<double> scores(nc);
    double mx = -1e300;
    for (int c = 0; c < nc; ++c) {
      scores[c] = zv.RowDot(set.src, zv, set.cands[c]);
      mx = std::max(mx, scores[c]);
    }
    double denom = 0.0;
    for (int c = 0; c < nc; ++c) {
      scores[c] = std::exp(scores[c] - mx);
      denom += scores[c];
    }
    probs[e].resize(nc);
    for (int c = 0; c < nc; ++c) {
      probs[e][c] = static_cast<float>(scores[c] / denom);
    }
    loss += -std::log(std::max(static_cast<double>(probs[e][0]), 1e-30));
  }
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / m);

  return MakeNode(
      std::move(out), {z}, "masked_edge_softmax_ce_naive",
      [sets = std::move(sets), probs = std::move(probs)](Node* self) {
        const auto& in = self->inputs();
        if (!Wants(in[0])) return;
        const double gv = self->grad().scalar();
        const Tensor& zv = in[0]->value();
        Tensor& dz = in[0]->grad();
        const int d = zv.cols();
        const double coef = gv / static_cast<double>(sets.size());
        for (size_t e = 0; e < sets.size(); ++e) {
          const auto& set = sets[e];
          const float* zsrc = zv.row(set.src);
          float* dzsrc = dz.row(set.src);
          for (size_t c = 0; c < set.cands.size(); ++c) {
            const double delta =
                coef * (probs[e][c] - (c == 0 ? 1.0 : 0.0));
            const float* zc = zv.row(set.cands[c]);
            float* dzc = dz.row(set.cands[c]);
            for (int j = 0; j < d; ++j) {
              dzsrc[j] += static_cast<float>(delta * zc[j]);
              dzc[j] += static_cast<float>(delta * zsrc[j]);
            }
          }
        }
      });
}

VarPtr PairDotBceLoss(const VarPtr& a, const VarPtr& b,
                      std::vector<float> labels) {
  const Tensor& av = a->value();
  const Tensor& bv = b->value();
  UMGAD_CHECK_EQ(av.rows(), bv.rows());
  UMGAD_CHECK_EQ(av.cols(), bv.cols());
  UMGAD_CHECK_EQ(static_cast<size_t>(av.rows()), labels.size());
  const int m = av.rows();
  double loss = 0.0;
  std::vector<float> sig(m);
  for (int i = 0; i < m; ++i) {
    const double s = av.RowDot(i, bv, i);
    // Numerically stable BCE-with-logits.
    loss += std::max(s, 0.0) - s * labels[i] + std::log1p(std::exp(-std::abs(s)));
    sig[i] = static_cast<float>(1.0 / (1.0 + std::exp(-s)));
  }
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / m);
  return MakeNode(
      std::move(out), {a, b}, "pair_dot_bce",
      [labels = std::move(labels), sig = std::move(sig)](Node* self) {
        const auto& in = self->inputs();
        const double gv = self->grad().scalar();
        const Tensor& av = in[0]->value();
        const Tensor& bv = in[1]->value();
        const int m = av.rows();
        const int d = av.cols();
        const double coef = gv / m;
        for (int i = 0; i < m; ++i) {
          const double dls = coef * (sig[i] - labels[i]);
          if (Wants(in[0])) {
            float* da = in[0]->grad().row(i);
            const float* br = bv.row(i);
            for (int j = 0; j < d; ++j) {
              da[j] += static_cast<float>(dls * br[j]);
            }
          }
          if (Wants(in[1])) {
            float* db = in[1]->grad().row(i);
            const float* ar = av.row(i);
            for (int j = 0; j < d; ++j) {
              db[j] += static_cast<float>(dls * ar[j]);
            }
          }
        }
      });
}

VarPtr DualContrastiveLoss(const VarPtr& zo, const VarPtr& za,
                           std::vector<int> neg_idx,
                           std::shared_ptr<const RowBlocks> blocks) {
  const Tensor& o = zo->value();
  const Tensor& a = za->value();
  UMGAD_CHECK(o.SameShape(a));
  UMGAD_CHECK_EQ(static_cast<size_t>(o.rows()), neg_idx.size());
  const int n = o.rows();
  // The loss is dense over all n rows, so the graph's RowBlocks schedule
  // applies directly (dropped if it does not cover these rows).
  const RowBlocks* fwd_blocks =
      (blocks != nullptr &&
       static_cast<int64_t>(blocks->block_of.size()) == n)
          ? blocks.get()
          : nullptr;
  std::vector<double> term(n, 0.0);
  std::vector<float> sig1(n);
  std::vector<float> sig2(n);
  // Phase 1 — per-row dot products / log-sum-exp in parallel.
  ForEachRowBlocked(n, fwd_blocks, kRowGrain, [&](int i) {
    const int j = neg_idx[i];
    const double sp = o.RowDot(i, a, i);
    const double s1 = o.RowDot(i, o, j);
    const double s2 = o.RowDot(i, a, j);
    const double mx = std::max(s1, s2);
    const double lse = mx + std::log(std::exp(s1 - mx) + std::exp(s2 - mx));
    term[i] = -sp + lse;
    sig1[i] = static_cast<float>(std::exp(s1 - lse));
    sig2[i] = static_cast<float>(std::exp(s2 - lse));
  });
  // Phase 2 — scalar sum in row order.
  double loss = 0.0;
  for (int i = 0; i < n; ++i) loss += term[i];
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / n);
  return MakeNode(
      std::move(out), {zo, za}, "dual_contrastive",
      [neg_idx = std::move(neg_idx), sig1 = std::move(sig1),
       sig2 = std::move(sig2), blocks = std::move(blocks)](Node* self) {
        const auto& in = self->inputs();
        const double gv = self->grad().scalar();
        const Tensor& o = in[0]->value();
        const Tensor& a = in[1]->value();
        const int n = o.rows();
        const int d = o.cols();
        const double coef = gv / n;
        const bool wo = Wants(in[0]);
        const bool wa = Wants(in[1]);
        if (!wo && !wa) return;
        const RowBlocks* row_blocks =
            (blocks != nullptr &&
             static_cast<int64_t>(blocks->block_of.size()) == n)
                ? blocks.get()
                : nullptr;
        // Negatives are shared (many i can draw the same j), so the serial
        // scatter cannot be partitioned by i. Ownership trick: each
        // destination row v receives its own term (i == v) plus one term
        // per incoming negative (neg_idx[i] == v); bucket the incoming i's
        // by v (counting sort, stable, so each bucket is ascending in i)
        // and apply every row's contributions in ascending-i order — the
        // serial order — with the row owned by one thread.
        LossScratch& scratch = TlsLossScratch();
        std::vector<int64_t>& ptr = ScratchZeroed(scratch.ptr, n + 1);
        for (int i = 0; i < n; ++i) ++ptr[neg_idx[i] + 1];
        for (int v = 0; v < n; ++v) ptr[v + 1] += ptr[v];
        std::vector<int>& inc = ScratchSized(scratch.inc, n);
        {
          std::vector<int64_t>& fill = ScratchSized(scratch.fill, n);
          std::copy(ptr.begin(), ptr.end() - 1, fill.begin());
          for (int i = 0; i < n; ++i) inc[fill[neg_idx[i]]++] = i;
        }
        if (wo) {
          Tensor& dzo = in[0]->grad();
          ForEachRowBlocked(n, row_blocks, kRowGrain, [&](int v) {
            float* dv = dzo.row(v);
            int64_t p = ptr[v];
            const int64_t end = ptr[v + 1];
            // Incoming negatives with i < v land before row v's own
            // term, the rest after. A self-negative (neg_idx[v] == v,
            // excluded by the samplers but harmless) ties at i == v and
            // lands after the own term — the serial doi-before-doj order.
            for (; p < end && inc[p] < v; ++p) {
              const int i = inc[p];
              const float* oi = o.row(i);
              for (int k = 0; k < d; ++k) {
                dv[k] += static_cast<float>(coef * sig1[i] * oi[k]);
              }
            }
            {
              const int j = neg_idx[v];
              const float* av = a.row(v);
              const float* oj = o.row(j);
              const float* aj = a.row(j);
              for (int k = 0; k < d; ++k) {
                dv[k] += static_cast<float>(
                    coef * (-av[k] + sig1[v] * oj[k] + sig2[v] * aj[k]));
              }
            }
            for (; p < end; ++p) {
              const int i = inc[p];
              const float* oi = o.row(i);
              for (int k = 0; k < d; ++k) {
                dv[k] += static_cast<float>(coef * sig1[i] * oi[k]);
              }
            }
          });
        }
        if (wa) {
          Tensor& dza = in[1]->grad();
          ForEachRowBlocked(n, row_blocks, kRowGrain, [&](int v) {
            float* dv = dza.row(v);
            int64_t p = ptr[v];
            const int64_t end = ptr[v + 1];
            for (; p < end && inc[p] < v; ++p) {
              const int i = inc[p];
              const float* oi = o.row(i);
              for (int k = 0; k < d; ++k) {
                dv[k] += static_cast<float>(coef * sig2[i] * oi[k]);
              }
            }
            {
              const float* ov = o.row(v);
              for (int k = 0; k < d; ++k) {
                dv[k] += static_cast<float>(-coef * ov[k]);
              }
            }
            for (; p < end; ++p) {
              const int i = inc[p];
              const float* oi = o.row(i);
              for (int k = 0; k < d; ++k) {
                dv[k] += static_cast<float>(coef * sig2[i] * oi[k]);
              }
            }
          });
        }
      });
}

VarPtr DualContrastiveLossNaive(const VarPtr& zo, const VarPtr& za,
                                std::vector<int> neg_idx) {
  // The seed's serial loops, kept as the differential oracle.
  const Tensor& o = zo->value();
  const Tensor& a = za->value();
  UMGAD_CHECK(o.SameShape(a));
  UMGAD_CHECK_EQ(static_cast<size_t>(o.rows()), neg_idx.size());
  const int n = o.rows();
  double loss = 0.0;
  std::vector<float> sig1(n);
  std::vector<float> sig2(n);
  for (int i = 0; i < n; ++i) {
    const int j = neg_idx[i];
    const double sp = o.RowDot(i, a, i);
    const double s1 = o.RowDot(i, o, j);
    const double s2 = o.RowDot(i, a, j);
    const double mx = std::max(s1, s2);
    const double lse = mx + std::log(std::exp(s1 - mx) + std::exp(s2 - mx));
    loss += -sp + lse;
    sig1[i] = static_cast<float>(std::exp(s1 - lse));
    sig2[i] = static_cast<float>(std::exp(s2 - lse));
  }
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / n);
  return MakeNode(
      std::move(out), {zo, za}, "dual_contrastive_naive",
      [neg_idx = std::move(neg_idx), sig1 = std::move(sig1),
       sig2 = std::move(sig2)](Node* self) {
        const auto& in = self->inputs();
        const double gv = self->grad().scalar();
        const Tensor& o = in[0]->value();
        const Tensor& a = in[1]->value();
        const int n = o.rows();
        const int d = o.cols();
        const double coef = gv / n;
        const bool wo = Wants(in[0]);
        const bool wa = Wants(in[1]);
        for (int i = 0; i < n; ++i) {
          const int j = neg_idx[i];
          const float* oi = o.row(i);
          const float* oj = o.row(j);
          const float* ai = a.row(i);
          const float* aj = a.row(j);
          if (wo) {
            float* doi = in[0]->grad().row(i);
            float* doj = in[0]->grad().row(j);
            for (int k = 0; k < d; ++k) {
              doi[k] += static_cast<float>(
                  coef * (-ai[k] + sig1[i] * oj[k] + sig2[i] * aj[k]));
              doj[k] += static_cast<float>(coef * sig1[i] * oi[k]);
            }
          }
          if (wa) {
            float* dai = in[1]->grad().row(i);
            float* daj = in[1]->grad().row(j);
            for (int k = 0; k < d; ++k) {
              dai[k] += static_cast<float>(-coef * oi[k]);
              daj[k] += static_cast<float>(coef * sig2[i] * oi[k]);
            }
          }
        }
      });
}

// ---------------------------------------------------------------------------
// Graph attention
// ---------------------------------------------------------------------------

void EdgeSoftmaxForward(const SparseMatrix& adj, float slope, const Tensor& h,
                        const Tensor& a_src, const Tensor& a_dst, Tensor* out,
                        std::vector<float>* alpha, std::vector<char>* pos) {
  const int n = h.rows();
  const int d = h.cols();
  // Block-affine when the adjacency carries a partition schedule; the
  // per-row arithmetic is untouched, so the floats match the flat sweep.
  const std::shared_ptr<const RowBlocks> blocks = adj.row_blocks();

  // Per-node projections s_i = <a_src, h_i>, t_i = <a_dst, h_i>, two rows
  // (four dots) per DotChains group.
  std::vector<double> s(n, 0.0);
  std::vector<double> t(n, 0.0);
  const float* asv = a_src.data();
  const float* adv = a_dst.data();
  ForEachRowRun(n, blocks.get(), kRowGrain, [&](const RowRun& run) {
    DotChains chains(d);
    for (int64_t r = 0; r < run.count; ++r) {
      const int i = run[r];
      chains.Push(asv, h.row(i), &s[i]);
      chains.Push(adv, h.row(i), &t[i]);
    }
    chains.Flush();
  });

  const auto& row_ptr = adj.row_ptr();
  const auto& cols = adj.col_idx();
  alpha->assign(adj.nnz(), 0.0f);
  pos->assign(adj.nnz(), 0);  // pre-activation sign per edge
  *out = Tensor(n, d);
  std::vector<float>& al = *alpha;
  std::vector<char>& sg = *pos;
  // Row-partitioned: node i owns its edge slice [row_ptr[i], row_ptr[i+1])
  // of alpha/pos and its output row, so the parallel sweep is race-free and
  // thread-count invariant.
  ForEachRowBlocked(n, blocks.get(), kRowGrain, [&](int i) {
    const int64_t begin = row_ptr[i];
    const int64_t end = row_ptr[i + 1];
    if (begin == end) return;
    double mx = -1e300;
    for (int64_t k = begin; k < end; ++k) {
      const double zraw = s[i] + t[cols[k]];
      sg[k] = zraw > 0.0 ? 1 : 0;
      const double e = zraw > 0.0 ? zraw : slope * zraw;
      al[k] = static_cast<float>(e);
      mx = std::max(mx, e);
    }
    double denom = 0.0;
    for (int64_t k = begin; k < end; ++k) {
      al[k] = static_cast<float>(std::exp(al[k] - mx));
      denom += al[k];
    }
    float* orow = out->row(i);
    for (int64_t k = begin; k < end; ++k) {
      al[k] = static_cast<float>(al[k] / denom);
      const float* hj = h.row(cols[k]);
      for (int j = 0; j < d; ++j) orow[j] += al[k] * hj[j];
    }
  });
}

void AttentionLogits(const float* h_row, int d, const Tensor& a_src,
                     const Tensor& a_dst, double* s, double* t) {
  const float* asv = a_src.data();
  const float* adv = a_dst.data();
  double ss = 0.0;
  double tt = 0.0;
  for (int j = 0; j < d; ++j) {
    ss += static_cast<double>(asv[j]) * h_row[j];
    tt += static_cast<double>(adv[j]) * h_row[j];
  }
  *s = ss;
  *t = tt;
}

void EdgeSoftmaxRow(double s_i, const double* t, const int* cols,
                    int64_t count, float slope, const Tensor& h, float* alpha,
                    char* pos, float* out) {
  const int d = h.cols();
  double mx = -1e300;
  for (int64_t k = 0; k < count; ++k) {
    const double zraw = s_i + t[cols[k]];
    if (pos != nullptr) pos[k] = zraw > 0.0 ? 1 : 0;
    const double e = zraw > 0.0 ? zraw : slope * zraw;
    alpha[k] = static_cast<float>(e);
    mx = std::max(mx, e);
  }
  double denom = 0.0;
  for (int64_t k = 0; k < count; ++k) {
    alpha[k] = static_cast<float>(std::exp(alpha[k] - mx));
    denom += alpha[k];
  }
  std::fill(out, out + d, 0.0f);
  for (int64_t k = 0; k < count; ++k) {
    alpha[k] = static_cast<float>(alpha[k] / denom);
    const float* hj = h.row(cols[k]);
    for (int j = 0; j < d; ++j) out[j] += alpha[k] * hj[j];
  }
}

void EdgeSoftmaxForwardNaive(const SparseMatrix& adj, float slope,
                             const Tensor& h, const Tensor& a_src,
                             const Tensor& a_dst, Tensor* out,
                             std::vector<float>* alpha,
                             std::vector<char>* pos) {
  const int n = h.rows();
  std::vector<double> s(n, 0.0);
  std::vector<double> t(n, 0.0);
  for (int i = 0; i < n; ++i) {
    AttentionLogits(h.row(i), h.cols(), a_src, a_dst, &s[i], &t[i]);
  }
  const auto& row_ptr = adj.row_ptr();
  alpha->assign(adj.nnz(), 0.0f);
  pos->assign(adj.nnz(), 0);
  *out = Tensor(n, h.cols());
  for (int i = 0; i < n; ++i) {
    const int64_t begin = row_ptr[i];
    EdgeSoftmaxRow(s[i], t.data(), adj.col_idx().data() + begin,
                   row_ptr[i + 1] - begin, slope, h, alpha->data() + begin,
                   pos->data() + begin, out->row(i));
  }
}

void EdgeSoftmaxBackward(const SparseMatrix& adj, float slope,
                         const std::vector<float>& alpha,
                         const std::vector<char>& pos,
                         const EdgeSoftmaxGrads& io) {
  const Tensor& g = *io.g;
  const Tensor& hv = *io.h;
  const int n = hv.rows();
  const int d = hv.cols();
  const auto& row_ptr = adj.row_ptr();
  const auto& cols = adj.col_idx();
  const bool wh = io.dh != nullptr;
  // Block-affine when the adjacency carries a partition schedule.
  const std::shared_ptr<const RowBlocks> blocks = adj.row_blocks();

  std::vector<double> ds(n, 0.0);
  std::vector<double> dt(n, 0.0);
  std::vector<double> dz(static_cast<size_t>(adj.nnz()), 0.0);

  // Phase 1 — per-edge pre-activation gradients, owned by the source row
  // (node i owns its edge slice of dz, plus ds[i]). dalpha_k = <g_i, h_{j_k}>
  // runs through DotChains over all of a task's edges in row order, so a
  // group of four spans rows when rows are short (most rows of a sparse
  // relation hold one to three edges); each dot is still the serial loop's
  // ascending-j sum. Then the softmax backward per row, with `weighted` and
  // ds summed in ascending k.
  ForEachRowRun(n, blocks.get(), kRowGrain, [&](const RowRun& run) {
    DotChains chains(d);
    for (int64_t r = 0; r < run.count; ++r) {
      const int i = run[r];
      const float* grow = g.row(i);
      for (int64_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        chains.Push(grow, hv.row(cols[k]), &dz[k]);
      }
    }
    chains.Flush();
    for (int64_t r = 0; r < run.count; ++r) {
      const int i = run[r];
      const int64_t begin = row_ptr[i];
      const int64_t end = row_ptr[i + 1];
      if (begin == end) continue;
      double weighted = 0.0;
      for (int64_t k = begin; k < end; ++k) weighted += alpha[k] * dz[k];
      double dsi = 0.0;
      for (int64_t k = begin; k < end; ++k) {
        const double de = alpha[k] * (dz[k] - weighted);
        const double z = pos[k] ? de : slope * de;
        dz[k] = z;
        dsi += z;
      }
      ds[i] = dsi;
    }
  });

  // Phase 2 — the dt / dh scatter, partitioned by *destination* node via
  // the cached incoming-edge index: every dt[v] / dh row v is written by
  // exactly one thread, and its contributions apply in ascending CSR
  // position — the order the serial all-rows scatter touches node v — so
  // the floats match the naive loop bit-for-bit.
  const std::shared_ptr<const SparseMatrix::IncomingIndex> inc =
      adj.incoming_index();
  ForEachRowBlocked(n, blocks.get(), kRowGrain, [&](int v) {
    const int64_t begin = inc->node_ptr[v];
    const int64_t end = inc->node_ptr[v + 1];
    double acc = 0.0;
    float* dhv = wh ? io.dh->row(v) : nullptr;
    for (int64_t p = begin; p < end; ++p) {
      const int64_t k = inc->edge[p];
      acc += dz[k];
      if (wh) {
        // Aggregation term: dH_v += alpha * g_i for each incoming i.
        const float* grow = g.row(inc->src[p]);
        for (int j = 0; j < d; ++j) {
          dhv[j] += alpha[k] * grow[j];
        }
      }
    }
    dt[v] = acc;
  });

  const float* asv = io.a_src->data();
  const float* adv = io.a_dst->data();
  // Phase 3 — per-row a_src/a_dst terms into dh (row-owned).
  if (wh) {
    Tensor& dh = *io.dh;
    ForEachRowBlocked(n, blocks.get(), kRowGrain, [&](int i) {
      float* dhr = dh.row(i);
      for (int j = 0; j < d; ++j) {
        dhr[j] += static_cast<float>(ds[i] * asv[j] + dt[i] * adv[j]);
      }
    });
  }
  // Phase 4 — the 1 x d attention-vector reductions stay serial: they
  // accumulate across *all* rows into one output row, and any chunked
  // combine would change the float summation order away from the oracle's.
  if (io.da_src != nullptr) {
    float* das = io.da_src->data();
    for (int i = 0; i < n; ++i) {
      if (ds[i] == 0.0) continue;
      const float* hr = hv.row(i);
      for (int j = 0; j < d; ++j) {
        das[j] += static_cast<float>(ds[i] * hr[j]);
      }
    }
  }
  if (io.da_dst != nullptr) {
    float* dad = io.da_dst->data();
    for (int i = 0; i < n; ++i) {
      if (dt[i] == 0.0) continue;
      const float* hr = hv.row(i);
      for (int j = 0; j < d; ++j) {
        dad[j] += static_cast<float>(dt[i] * hr[j]);
      }
    }
  }
}

void EdgeSoftmaxBackwardNaive(const SparseMatrix& adj, float slope,
                              const std::vector<float>& alpha,
                              const std::vector<char>& pos,
                              const EdgeSoftmaxGrads& io) {
  // The seed's serial scatter, kept as the differential oracle.
  const Tensor& g = *io.g;
  const Tensor& hv = *io.h;
  const int n = hv.rows();
  const int d = hv.cols();
  const auto& row_ptr = adj.row_ptr();
  const auto& cols = adj.col_idx();

  std::vector<double> ds(n, 0.0);
  std::vector<double> dt(n, 0.0);
  const bool wh = io.dh != nullptr;

  for (int i = 0; i < n; ++i) {
    const int64_t begin = row_ptr[i];
    const int64_t end = row_ptr[i + 1];
    if (begin == end) continue;
    const float* grow = g.row(i);
    // dalpha_k = <g_i, h_{j_k}>, then softmax backward.
    double weighted = 0.0;
    std::vector<double> dalpha(end - begin);
    for (int64_t k = begin; k < end; ++k) {
      const float* hj = hv.row(cols[k]);
      double acc = 0.0;
      for (int j = 0; j < d; ++j) {
        acc += static_cast<double>(grow[j]) * hj[j];
      }
      dalpha[k - begin] = acc;
      weighted += alpha[k] * acc;
    }
    for (int64_t k = begin; k < end; ++k) {
      const double de = alpha[k] * (dalpha[k - begin] - weighted);
      const double dzk = pos[k] ? de : slope * de;
      ds[i] += dzk;
      dt[cols[k]] += dzk;
      if (wh) {
        // Aggregation term: dH_j += alpha * g_i.
        float* dhj = io.dh->row(cols[k]);
        for (int j = 0; j < d; ++j) {
          dhj[j] += alpha[k] * grow[j];
        }
      }
    }
  }

  const float* asv = io.a_src->data();
  const float* adv = io.a_dst->data();
  if (wh) {
    Tensor& dh = *io.dh;
    for (int i = 0; i < n; ++i) {
      float* dhr = dh.row(i);
      for (int j = 0; j < d; ++j) {
        dhr[j] += static_cast<float>(ds[i] * asv[j] + dt[i] * adv[j]);
      }
    }
  }
  if (io.da_src != nullptr) {
    float* das = io.da_src->data();
    for (int i = 0; i < n; ++i) {
      if (ds[i] == 0.0) continue;
      const float* hr = hv.row(i);
      for (int j = 0; j < d; ++j) {
        das[j] += static_cast<float>(ds[i] * hr[j]);
      }
    }
  }
  if (io.da_dst != nullptr) {
    float* dad = io.da_dst->data();
    for (int i = 0; i < n; ++i) {
      if (dt[i] == 0.0) continue;
      const float* hr = hv.row(i);
      for (int j = 0; j < d; ++j) {
        dad[j] += static_cast<float>(dt[i] * hr[j]);
      }
    }
  }
}

namespace {

/// Shared body of GatAttention / GatAttentionNaive: forward kernel + tape
/// node whose closure routes to the matching backward kernel.
VarPtr MakeGatAttention(const VarPtr& h, const VarPtr& a_src,
                        const VarPtr& a_dst,
                        std::shared_ptr<const SparseMatrix> adj, float slope,
                        bool naive) {
  UMGAD_CHECK(adj != nullptr);
  const Tensor& hv = h->value();
  const int n = hv.rows();
  const int d = hv.cols();
  UMGAD_CHECK_EQ(adj->rows(), n);
  UMGAD_CHECK_EQ(a_src->value().cols(), d);
  UMGAD_CHECK_EQ(a_dst->value().cols(), d);

  Tensor out;
  std::vector<float> alpha;
  std::vector<char> pos;
  if (naive) {
    EdgeSoftmaxForwardNaive(*adj, slope, hv, a_src->value(), a_dst->value(),
                            &out, &alpha, &pos);
  } else {
    EdgeSoftmaxForward(*adj, slope, hv, a_src->value(), a_dst->value(), &out,
                       &alpha, &pos);
    if (h->requires_grad() || a_src->requires_grad() ||
        a_dst->requires_grad()) {
      // Build the ownership index during forward (often already inside the
      // K x R fan-out) rather than lazily inside the first backward batch.
      adj->EnsureIncomingIndex();
    }
  }

  return MakeNode(
      std::move(out), {h, a_src, a_dst},
      naive ? "gat_attention_naive" : "gat_attention",
      [adj, slope, naive, alpha = std::move(alpha),
       pos = std::move(pos)](Node* self) {
        const auto& in = self->inputs();
        EdgeSoftmaxGrads io;
        io.g = &self->grad();
        io.h = &in[0]->value();
        io.a_src = &in[1]->value();
        io.a_dst = &in[2]->value();
        if (Wants(in[0])) io.dh = &in[0]->grad();
        if (Wants(in[1])) io.da_src = &in[1]->grad();
        if (Wants(in[2])) io.da_dst = &in[2]->grad();
        if (naive) {
          EdgeSoftmaxBackwardNaive(*adj, slope, alpha, pos, io);
        } else {
          EdgeSoftmaxBackward(*adj, slope, alpha, pos, io);
        }
      });
}

}  // namespace

VarPtr GatAttention(const VarPtr& h, const VarPtr& a_src, const VarPtr& a_dst,
                    std::shared_ptr<const SparseMatrix> adj, float slope) {
  return MakeGatAttention(h, a_src, a_dst, std::move(adj), slope,
                          /*naive=*/false);
}

VarPtr GatAttentionNaive(const VarPtr& h, const VarPtr& a_src,
                         const VarPtr& a_dst,
                         std::shared_ptr<const SparseMatrix> adj,
                         float slope) {
  return MakeGatAttention(h, a_src, a_dst, std::move(adj), slope,
                          /*naive=*/true);
}

int64_t LossScratchFreshBytes() {
  return g_loss_scratch_fresh_bytes.load(std::memory_order_relaxed);
}

}  // namespace ag
}  // namespace umgad
