#ifndef UMGAD_CORE_VIEWS_H_
#define UMGAD_CORE_VIEWS_H_

#include <memory>
#include <vector>

#include "core/gmae.h"
#include "core/relation_fusion.h"
#include "graph/multiplex_graph.h"

namespace umgad {

/// Training-step output of a view: its scalar loss term and the fused
/// attribute reconstruction that feeds the dual-view contrastive loss.
struct ViewForward {
  ag::VarPtr loss;         // scalar; nullptr when the view has no active branch
  ag::VarPtr fused_recon;  // N x f; nullptr when attribute recon is off
};

/// Deterministic outputs used by the anomaly scorer (Eq. 19), computed on
/// the unperturbed graph after training.
struct ViewScoring {
  Tensor attr_recon;               // N x f; empty when attr recon is off
  std::vector<Tensor> embeddings;  // per relation, N x d_h; empty when off
};

/// One reconstruction view of UMGAD. A single class covers the three views
/// of Fig. 1: one skeleton (a GMAE per relation, a learnable fusion, masked
/// reconstruction losses) whose kinds differ only in the random draws that
/// perturb the inputs:
///  - kOriginal (Sec. IV-A): token-mask attributes / mask edges on the
///    original graph; separate attribute and structure GMAEs (W_enc1 vs
///    W_enc2); balance alpha (Eq. 9).
///  - kAttrAugmented (Sec. IV-B.1): swap node attributes, mask exactly the
///    swapped set, reconstruct against the *original* attributes
///    (attribute branch only).
///  - kSubgraphAugmented (Sec. IV-B.2): RWR-sample subgraphs, mask their
///    nodes and incident edges, reconstruct both attributes and structure;
///    balance beta (Eq. 16).
/// Forward makes the kind's draws sequentially, then runs the one K x R
/// fan-out and loss assembly every kind shares.
class ReconstructionView : public nn::Module {
 public:
  enum class Kind { kOriginal, kAttrAugmented, kSubgraphAugmented };

  ReconstructionView(Kind kind, int in_dim, int num_relations,
                     const UmgadConfig& config, Rng* rng);

  /// One training forward pass (all K masking repeats).
  /// `norm_adjs` are the full normalised adjacencies (one per relation);
  /// structure branches build their own perturbed operators internally.
  ViewForward Forward(const MultiplexGraph& graph,
                      const std::vector<std::shared_ptr<const SparseMatrix>>&
                          norm_adjs,
                      Rng* rng) const;

  /// Deterministic pass over the unperturbed graph for scoring.
  ViewScoring Score(const MultiplexGraph& graph,
                    const std::vector<std::shared_ptr<const SparseMatrix>>&
                        norm_adjs) const;

  /// Learned attribute-fusion weights a_r (diagnostics).
  std::vector<double> FusionWeights() const { return fusion_a_->Weights(); }

  Kind kind() const { return kind_; }

  // Component access for model serialization (core/model_io) and the
  // serve-layer forward engine (src/serve). struct_gmae() is nullptr when
  // the view shares the attribute encoder for structure embeddings (every
  // view except kOriginal).
  const Gmae& attr_gmae(int r) const { return *attr_gmae_[r]; }
  const Gmae* struct_gmae(int r) const {
    return struct_gmae_.empty() ? nullptr : struct_gmae_[r].get();
  }
  const RelationFusion& fusion_a() const { return *fusion_a_; }

 private:
  /// The structure branch's encoder: W_enc2 in the original view, the
  /// attribute encoder in the others.
  const Gmae& StructureEncoder(int r) const {
    return struct_gmae_.empty() ? *attr_gmae_[r] : *struct_gmae_[r];
  }

  Kind kind_;
  UmgadConfig config_;
  std::vector<std::unique_ptr<Gmae>> attr_gmae_;    // one per relation
  std::vector<std::unique_ptr<Gmae>> struct_gmae_;  // original view only
  std::unique_ptr<RelationFusion> fusion_a_;        // Eq. 3 (attributes)
  std::unique_ptr<RelationFusion> fusion_b_;        // Eq. 8 (structure)
};

/// The views `config` enables, built in training and scoring order
/// (original, attr-augmented, subgraph-augmented), each drawing its initial
/// weights from `rng` in that order. The attribute-level augmented view is
/// attribute-only, so the structure-only pipeline (Fig. 6 "Str") skips it.
std::vector<std::unique_ptr<ReconstructionView>> BuildActiveViews(
    const UmgadConfig& config, int in_dim, int num_relations, Rng* rng);

/// All node indices [0, n) — the loss subset for the no-masking ablation.
std::vector<int> AllNodes(int n);

/// Cap on edge-reconstruction targets per relation per repeat; bounds the
/// cost of Eq. 7 on dense layers (Amazon U-S-U) without changing the
/// estimator's expectation.
inline constexpr int kMaxEdgeTargets = 1536;

}  // namespace umgad

#endif  // UMGAD_CORE_VIEWS_H_
