#ifndef UMGAD_TENSOR_OPS_H_
#define UMGAD_TENSOR_OPS_H_

#include <memory>
#include <vector>

#include "tensor/autograd.h"
#include "tensor/sparse.h"

namespace umgad {
namespace ag {

// ---------------------------------------------------------------------------
// Elementwise / linear algebra
// ---------------------------------------------------------------------------

VarPtr Add(const VarPtr& a, const VarPtr& b);
VarPtr Sub(const VarPtr& a, const VarPtr& b);
VarPtr AddN(const std::vector<VarPtr>& xs);
VarPtr Hadamard(const VarPtr& a, const VarPtr& b);
VarPtr ScalarMul(const VarPtr& a, float alpha);

/// C = A * B (dense).
VarPtr MatMul(const VarPtr& a, const VarPtr& b);

/// Y = S * X with a constant sparse operator (the normalised adjacency).
/// The matrix is shared, not copied; it must outlive the graph, which holds
/// a reference via shared_ptr.
VarPtr Spmm(std::shared_ptr<const SparseMatrix> s, const VarPtr& x);

/// Y = X + 1*bias^T broadcast over rows; bias is 1 x d.
VarPtr AddRowBroadcast(const VarPtr& x, const VarPtr& bias);

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

VarPtr Relu(const VarPtr& a);
VarPtr LeakyRelu(const VarPtr& a, float slope);
VarPtr Sigmoid(const VarPtr& a);
VarPtr Tanh(const VarPtr& a);
VarPtr Elu(const VarPtr& a, float alpha = 1.0f);

// ---------------------------------------------------------------------------
// Row / shape ops
// ---------------------------------------------------------------------------

/// Per-row L2 normalisation; rows with norm < eps pass through unscaled with
/// zero gradient (they only arise from degenerate inputs).
VarPtr RowL2Normalize(const VarPtr& a, float eps = 1e-12f);

/// out.row(i) = a.row(idx[i]).
VarPtr GatherRows(const VarPtr& a, std::vector<int> idx);

/// Copy of `a` with rows in `masked_idx` replaced by the (learnable) 1 x d
/// `token` — the paper's [MASK] token substitution (Eq. 1).
VarPtr MaskRows(const VarPtr& a, std::vector<int> masked_idx,
                const VarPtr& token);

/// y = sum_r softmax(logits)_r * xs[r]. Learnable relation fusion (Eq. 3):
/// the logits are free parameters and the weights live on the simplex.
VarPtr SimplexWeightedSum(const std::vector<VarPtr>& xs,
                          const VarPtr& logits);

/// The simplex weights softmax(logits) of a 1 x R logits row, exactly as
/// SimplexWeightedSum applies them.
std::vector<float> SimplexWeights(const Tensor& logits);

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

VarPtr Sum(const VarPtr& a);
VarPtr Mean(const VarPtr& a);

// ---------------------------------------------------------------------------
// Fused losses
// ---------------------------------------------------------------------------

/// Scaled cosine reconstruction error over a row subset (Eq. 4 / Eq. 13):
///   L = (1/|idx|) * sum_{i in idx} (1 - cos(recon_i, target_i))^eta.
/// `target` carries no gradient. It is not copied: the backward closure
/// reads it by reference, so it must stay alive and unchanged until
/// Backward() has run through the returned node or Tape::Reset() has
/// destroyed it (the training target is the graph's attribute matrix).
///
/// Forward and backward are row-partitioned over the pool (per-row terms in
/// parallel, the scalar sum serial in index order), bit-identical to the
/// kept-serial ScaledCosineLossNaive for any UMGAD_THREADS. When `idx`
/// contains duplicate rows the backward falls back to the serial scatter.
///
/// `blocks` (optional, from the graph partitioner) regroups the pool so
/// workers sweep rows block-affinely — a cache-locality schedule only,
/// bit-identical to the flat order for any P / thread count.
VarPtr ScaledCosineLoss(const VarPtr& recon, const Tensor& target,
                        std::vector<int> idx, float eta,
                        std::shared_ptr<const RowBlocks> blocks = nullptr);

/// The seed's fully serial forward+backward loops, kept as the
/// differential-testing oracle (tests/oracle_harness.h).
VarPtr ScaledCosineLossNaive(const VarPtr& recon, const Tensor& target,
                             std::vector<int> idx, float eta);

/// Mean squared error over all entries (or a row subset if idx not empty).
/// `target` carries no gradient. As in ScaledCosineLoss it is not copied:
/// it must stay alive and unchanged until Backward() has run through the
/// returned node, so an op value passed here must be Retain()ed first.
VarPtr MseLoss(const VarPtr& recon, const Tensor& target,
               std::vector<int> idx = {});

/// One masked edge with its softmax candidate set; cands[0] is the true
/// (masked) endpoint, the rest are negative samples.
struct EdgeCandidateSet {
  int src = 0;
  std::vector<int> cands;
};

/// Masked-edge reconstruction loss (Eq. 7): mean over sets of
///   -log softmax_c(z_src . z_cand)[0].
///
/// Forward fans the per-set softmaxes out across the pool; backward uses
/// the two-phase ownership trick — per-(set, candidate) coefficients from
/// the saved probabilities, then a scatter partitioned by *destination*
/// row of dz (sources and candidates alias freely across sets), with each
/// row's contributions applied in the serial loop's (set, candidate)
/// order. Bit-identical to MaskedEdgeSoftmaxCENaive for any UMGAD_THREADS.
/// `blocks` optionally makes both phases block-affine (cache schedule
/// only; same floats).
VarPtr MaskedEdgeSoftmaxCE(const VarPtr& z,
                           std::vector<EdgeCandidateSet> sets,
                           std::shared_ptr<const RowBlocks> blocks = nullptr);

/// Kept-serial oracle of MaskedEdgeSoftmaxCE.
VarPtr MaskedEdgeSoftmaxCENaive(const VarPtr& z,
                                std::vector<EdgeCandidateSet> sets);

/// Pairwise dot-product BCE: mean_i BCE(sigmoid(a_i . b_i), labels_i).
/// The discriminator loss used by the contrastive baselines.
VarPtr PairDotBceLoss(const VarPtr& a, const VarPtr& b,
                      std::vector<float> labels);

/// Dual-view contrastive loss (Eq. 17) between original-view rows `zo` and
/// augmented-view rows `za`, with per-node negatives `neg_idx`:
///   L = mean_i [ -zo_i . za_i + log(e^{zo_i . zo_j} + e^{zo_i . za_j}) ],
/// j = neg_idx[i]. Inputs should be row-normalised for numeric stability.
///
/// Forward is row-parallel (serial sum of per-row terms); backward
/// partitions by destination row, merging each row's own (i == v) and
/// incoming-negative (neg_idx[i] == v) contributions in ascending-i order
/// — the serial order. Bit-identical to DualContrastiveLossNaive.
/// `blocks` optionally makes the row sweeps block-affine (cache schedule
/// only; same floats).
VarPtr DualContrastiveLoss(const VarPtr& zo, const VarPtr& za,
                           std::vector<int> neg_idx,
                           std::shared_ptr<const RowBlocks> blocks = nullptr);

/// Kept-serial oracle of DualContrastiveLoss.
VarPtr DualContrastiveLossNaive(const VarPtr& zo, const VarPtr& za,
                                std::vector<int> neg_idx);

/// Cumulative bytes freshly allocated for the loss-backward ownership
/// buckets (the counting-sort scratch both parallel losses build each
/// step). The scratch is per-thread and reused across steps, so repeating a
/// backward at unchanged shapes must leave this counter flat — pool_test
/// asserts zero steady-state scratch allocations through it.
int64_t LossScratchFreshBytes();

// ---------------------------------------------------------------------------
// Graph attention
// ---------------------------------------------------------------------------

/// Single-head GAT layer before its activation: given features x (N x f),
/// the projection W (f x d) and attention vectors a_src, a_dst (1 x d),
///   H      = x W,
///   e_ij   = LeakyReLU(<a_src, h_i> + <a_dst, h_j>)  for j in N(i) u {i},
///   alpha  = softmax_j(e_ij),
///   out_i  = sum_j alpha_ij h_j.
/// The adjacency must contain self-loops if self-attention is desired (the
/// callers add them). H is not kept on the tape: the backward recomputes
/// it (same kernel, same inputs, same bits), differentiates through the
/// edge softmax via EdgeSoftmaxBackward (parallel) into a dH local to the
/// closure, and passes dH through the projection as MatMul does. The
/// tape holds the N x d output and the per-edge softmax state only.
/// Bit-identical to GatAttentionNaive for any UMGAD_THREADS.
VarPtr GatAttention(const VarPtr& x, const VarPtr& w, const VarPtr& a_src,
                    const VarPtr& a_dst,
                    std::shared_ptr<const SparseMatrix> adj, float slope);

/// Kept-serial oracle of GatAttention: MatMulNaive projections, serial
/// forward loops, EdgeSoftmaxBackwardNaive and the naive gradient products
/// in the closure.
VarPtr GatAttentionNaive(const VarPtr& x, const VarPtr& w, const VarPtr& a_src,
                         const VarPtr& a_dst,
                         std::shared_ptr<const SparseMatrix> adj,
                         float slope);

// --- Raw edge-softmax kernels (exposed for tests and benches) ---

/// Gradient inputs/accumulators of the edge-softmax backward. Non-null
/// accumulator pointers are += targets, matching the tape closure's
/// accumulate-into-grad semantics.
struct EdgeSoftmaxGrads {
  const Tensor* g = nullptr;      // upstream gradient, n x d
  const Tensor* h = nullptr;      // forward features, n x d
  const Tensor* a_src = nullptr;  // 1 x d
  const Tensor* a_dst = nullptr;  // 1 x d
  Tensor* dh = nullptr;
  Tensor* da_src = nullptr;
  Tensor* da_dst = nullptr;
};

/// The GAT attention forward kernel: fills `out` (n x d, overwritten) and
/// the per-edge softmax state (`alpha` weights, `pos` pre-activation
/// signs) consumed by the backward. Row-parallel; the *Naive variant is
/// the same arithmetic in plain serial loops.
void EdgeSoftmaxForward(const SparseMatrix& adj, float slope, const Tensor& h,
                        const Tensor& a_src, const Tensor& a_dst, Tensor* out,
                        std::vector<float>* alpha, std::vector<char>* pos);
void EdgeSoftmaxForwardNaive(const SparseMatrix& adj, float slope,
                             const Tensor& h, const Tensor& a_src,
                             const Tensor& a_dst, Tensor* out,
                             std::vector<float>* alpha,
                             std::vector<char>* pos);

/// The per-row pieces EdgeSoftmaxForwardNaive is built from.
/// AttentionLogits: *s = <a_src, h_row>, *t = <a_dst, h_row> over d
/// entries, accumulated in double.
void AttentionLogits(const float* h_row, int d, const Tensor& a_src,
                     const Tensor& a_dst, double* s, double* t);
/// One output row over the `count` columns cols[] (ascending, self loop
/// included): alpha[k] = softmax_k(LeakyReLU(s_i + t[cols[k]])), and
/// out[0, h.cols()) = sum_k alpha[k] h.row(cols[k]), overwriting out. A
/// non-null `pos` receives each pre-activation's sign.
void EdgeSoftmaxRow(double s_i, const double* t, const int* cols,
                    int64_t count, float slope, const Tensor& h, float* alpha,
                    char* pos, float* out);

/// Edge-softmax backward. The parallel kernel runs in three row-partitioned
/// phases — per-edge softmax gradients by source row, the dh/dt scatter by
/// *destination* node via the adjacency's cached incoming-edge index
/// (SparseMatrix::incoming_index()), then the per-row a_src/a_dst terms —
/// and is bit-identical to the kept-serial scatter loop
/// (EdgeSoftmaxBackwardNaive) for any UMGAD_THREADS.
void EdgeSoftmaxBackward(const SparseMatrix& adj, float slope,
                         const std::vector<float>& alpha,
                         const std::vector<char>& pos,
                         const EdgeSoftmaxGrads& io);
void EdgeSoftmaxBackwardNaive(const SparseMatrix& adj, float slope,
                              const std::vector<float>& alpha,
                              const std::vector<char>& pos,
                              const EdgeSoftmaxGrads& io);

}  // namespace ag
}  // namespace umgad

#endif  // UMGAD_TENSOR_OPS_H_
