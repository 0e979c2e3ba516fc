#ifndef UMGAD_CORE_GMAE_H_
#define UMGAD_CORE_GMAE_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "nn/gat.h"
#include "nn/gcn.h"

namespace umgad {

/// Graph Masked AutoEncoder for one relational subgraph (Sec. IV-A): a GNN
/// encoder (GAT or simplified GCN), a simplified-GCN decoder back to the
/// input width, and a learnable [MASK] token.
///
/// One instance serves both GMAE roles:
///  - attribute branch: ReconstructAttributes() masks rows with the token,
///    encodes over the (full) adjacency and decodes back to feature space
///    (Eq. 2 / Eq. 11);
///  - structure branch: Embed() produces latent node embeddings over a
///    perturbed adjacency for inner-product edge prediction (Eq. 6).
///
/// Weights are shared across the K masking repeats: the repeats are
/// stochastic re-draws of the same objective (standard GMAE practice); the
/// paper's per-k weight subscript is treated as notation, see DESIGN.md.
class Gmae : public nn::Module {
 public:
  Gmae(int in_dim, const UmgadConfig& config, Rng* rng);

  /// Token-mask the rows in `masked` (empty = no masking, the plain-GAE
  /// ablation / scoring pass), then encode and decode. Returns N x in_dim.
  /// `x` is the N x in_dim attribute node, read but never written: a view
  /// builds one ag::Constant per distinct input and hands it to every
  /// relation and repeat that encodes it, so concurrent callers share it.
  ag::VarPtr ReconstructAttributes(std::shared_ptr<const SparseMatrix> adj,
                                   const ag::VarPtr& x,
                                   const std::vector<int>& masked) const;

  /// Encoder output (N x hidden_dim) for structure reconstruction. `x` is
  /// shared as in ReconstructAttributes.
  ag::VarPtr Embed(std::shared_ptr<const SparseMatrix> adj,
                   const ag::VarPtr& x) const;

  // Layer access for the serve-layer per-row forward engine, which unrolls
  // the encoder/decoder stack into per-row stages (src/serve/engine.h).
  EncoderKind encoder_kind() const { return kind_; }
  const std::vector<std::unique_ptr<nn::GatConv>>& gat_layers() const {
    return gat_layers_;
  }
  const std::vector<std::unique_ptr<nn::SgcConv>>& sgc_layers() const {
    return sgc_layers_;
  }
  const nn::SgcConv& decoder() const { return *decoder_; }

 private:
  ag::VarPtr Encode(const std::shared_ptr<const SparseMatrix>& adj,
                    const ag::VarPtr& h) const;

  EncoderKind kind_;
  ag::VarPtr mask_token_;  // 1 x in_dim
  std::vector<std::unique_ptr<nn::GatConv>> gat_layers_;
  std::vector<std::unique_ptr<nn::SgcConv>> sgc_layers_;
  std::unique_ptr<nn::SgcConv> decoder_;
};

}  // namespace umgad

#endif  // UMGAD_CORE_GMAE_H_
