#include "core/views.h"

#include <algorithm>
#include <unordered_set>

#include "common/thread_pool.h"
#include "core/masking.h"
#include "graph/graph_ops.h"
#include "nn/loss.h"

namespace umgad {

std::vector<int> AllNodes(int n) {
  std::vector<int> idx(n);
  for (int i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

namespace {

/// Normalised operator for a perturbed adjacency, shared into the tape.
/// When the full operators carry a partition schedule, the perturbed
/// per-repeat operator reuses it — masking removes edges, never nodes, so
/// the row ownership still applies.
std::shared_ptr<const SparseMatrix> NormShared(
    const SparseMatrix& adj,
    std::shared_ptr<const RowBlocks> blocks = nullptr) {
  auto op =
      std::make_shared<const SparseMatrix>(adj.NormalizedWithSelfLoops());
  if (blocks != nullptr) op->AttachRowBlocks(std::move(blocks));
  return op;
}

/// Uniform subsample of `edges` down to `cap` (order not preserved).
std::vector<Edge> CapEdges(std::vector<Edge> edges, int cap, Rng* rng) {
  if (static_cast<int>(edges.size()) <= cap) return edges;
  std::vector<int> keep =
      rng->SampleWithoutReplacement(static_cast<int>(edges.size()), cap);
  std::vector<Edge> out;
  out.reserve(cap);
  for (int k : keep) out.push_back(edges[k]);
  return out;
}

/// Sum of scalar loss nodes (already weighted); nullptr when empty.
ag::VarPtr SumLosses(const std::vector<ag::VarPtr>& losses) {
  if (losses.empty()) return nullptr;
  if (losses.size() == 1) return losses[0];
  return ag::AddN(losses);
}

/// One relation's pre-drawn structure-branch randomness. Every Forward*
/// below is split into two phases so the fan-out stays deterministic:
/// phase 1 walks the shared Rng *sequentially* (mask/negative sampling for
/// all K repeats, in the serial loop's order), phase 2 does the heavy,
/// RNG-free work (re-normalising the perturbed operator, GMAE encode, edge
/// loss) in parallel across all K repeats x R relations.
struct StructDraw {
  bool active = false;      // false -> contribute a constant-zero loss
  bool perturbed = false;   // true -> normalise `remaining`, else full op
  SparseMatrix remaining;   // adjacency minus masked edges (when perturbed)
  std::vector<ag::EdgeCandidateSet> cands;
};

/// Existing (unmasked) edges used as positive targets in the plain-GAE
/// ablation (w/o M): the model still reconstructs structure, but over the
/// observed graph rather than masked-out edges.
std::vector<Edge> SampleObservedEdges(const SparseMatrix& adj, double ratio,
                                      Rng* rng) {
  std::vector<Edge> all;
  const auto& rp = adj.row_ptr();
  const auto& ci = adj.col_idx();
  for (int i = 0; i < adj.rows(); ++i) {
    for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (i < ci[k]) all.push_back(Edge{i, ci[k]});
    }
  }
  const int target = std::max<int>(1, static_cast<int>(ratio * all.size()));
  return CapEdges(std::move(all), target, rng);
}

}  // namespace

ReconstructionView::ReconstructionView(Kind kind, int in_dim,
                                       int num_relations,
                                       const UmgadConfig& config, Rng* rng)
    : kind_(kind), config_(config) {
  for (int r = 0; r < num_relations; ++r) {
    attr_gmae_.push_back(std::make_unique<Gmae>(in_dim, config, rng));
    RegisterChild(attr_gmae_.back().get());
  }
  if (kind_ == Kind::kOriginal && config.use_structure_recon) {
    // Separate structure-branch weights (the paper's W_enc2/W_dec2).
    for (int r = 0; r < num_relations; ++r) {
      struct_gmae_.push_back(std::make_unique<Gmae>(in_dim, config, rng));
      RegisterChild(struct_gmae_.back().get());
    }
  }
  fusion_a_ = std::make_unique<RelationFusion>(
      num_relations, config.use_relation_fusion, rng);
  RegisterChild(fusion_a_.get());
  fusion_b_ = std::make_unique<RelationFusion>(
      num_relations, config.use_relation_fusion, rng);
  RegisterChild(fusion_b_.get());
}

ViewForward ReconstructionView::Forward(
    const MultiplexGraph& graph,
    const std::vector<std::shared_ptr<const SparseMatrix>>& norm_adjs,
    Rng* rng) const {
  switch (kind_) {
    case Kind::kOriginal:
      return ForwardOriginal(graph, norm_adjs, rng);
    case Kind::kAttrAugmented:
      return ForwardAttrAugmented(graph, norm_adjs, rng);
    case Kind::kSubgraphAugmented:
      return ForwardSubgraphAugmented(graph, norm_adjs, rng);
  }
  return {};
}

ViewForward ReconstructionView::ForwardOriginal(
    const MultiplexGraph& graph,
    const std::vector<std::shared_ptr<const SparseMatrix>>& norm_adjs,
    Rng* rng) const {
  const Tensor& x = graph.attributes();
  const int n = graph.num_nodes();
  const int r_count = graph.num_relations();
  const int repeats = config_.mask_repeats;

  // The K masking repeats are independent given their pre-drawn masks, so
  // the whole pass is two-phase: phase 1 walks the Rng *sequentially* in
  // the exact per-repeat order of the serial loop (attr mask first, then
  // the structure draws per relation), phase 2 fans the K x R RNG-free
  // branch constructions (Eq. 1-4 GMAE passes, Eq. 5-8 re-normalisation /
  // embedding / edge loss) out across the pool. Identical draws + an
  // identical graph make the result bit-identical to the serial loop.
  std::vector<std::vector<int>> attr_masks(repeats);
  std::vector<std::vector<StructDraw>> draws(repeats);
  for (int k = 0; k < repeats; ++k) {
    if (config_.use_attribute_recon && config_.use_masking) {
      attr_masks[k] = SampleMaskedNodes(n, config_.mask_ratio, rng);
    }
    if (config_.use_structure_recon) {
      draws[k].resize(r_count);
      for (int r = 0; r < r_count; ++r) {
        StructDraw& draw = draws[k][r];
        std::vector<Edge> targets;
        if (config_.use_masking) {
          EdgeMask mask =
              SampleEdgeMask(graph.layer(r), config_.mask_ratio, rng);
          targets = CapEdges(std::move(mask.masked), kMaxEdgeTargets, rng);
          draw.perturbed = true;
          draw.remaining = std::move(mask.remaining);
        } else {
          targets = SampleObservedEdges(graph.layer(r), config_.mask_ratio,
                                        rng);
        }
        if (targets.empty()) continue;
        draw.active = true;
        draw.cands = nn::BuildEdgeCandidates(targets, graph.layer(r),
                                             config_.num_negatives, rng);
      }
    }
  }

  // Partition schedule shared by all relations (null when unpartitioned).
  const std::shared_ptr<const RowBlocks> blocks =
      norm_adjs.empty() ? nullptr : norm_adjs[0]->row_blocks();
  std::vector<std::vector<ag::VarPtr>> recons(
      repeats, std::vector<ag::VarPtr>(r_count));
  std::vector<std::vector<ag::VarPtr>> per_relation(
      repeats, std::vector<ag::VarPtr>(r_count));
  // One attribute constant, read concurrently by every K x R branch.
  const ag::VarPtr x_node = ag::Constant(x);
  ParallelFor(static_cast<int64_t>(repeats) * r_count, 1,
              [&](int64_t b, int64_t e) {
    for (int64_t t = b; t < e; ++t) {
      const int k = static_cast<int>(t / r_count);
      const int r = static_cast<int>(t % r_count);
      if (config_.use_attribute_recon) {
        recons[k][r] = attr_gmae_[r]->ReconstructAttributes(
            norm_adjs[r], x_node, attr_masks[k]);
      }
      if (config_.use_structure_recon) {
        StructDraw& draw = draws[k][r];
        if (!draw.active) {
          per_relation[k][r] = ag::Constant(Tensor(1, 1));
        } else {
          std::shared_ptr<const SparseMatrix> op =
              draw.perturbed ? NormShared(draw.remaining, blocks)
                             : norm_adjs[r];
          ag::VarPtr z = struct_gmae_[r]->Embed(op, x_node);
          per_relation[k][r] =
              ag::MaskedEdgeSoftmaxCE(z, std::move(draw.cands), blocks);
        }
      }
    }
  });

  // Fusion and the per-repeat loss *nodes* are built sequentially in repeat
  // order so the loss-term order matches the serial loop. The loss forwards
  // themselves are row-parallel inside (ops.cc), so running this loop on
  // one thread costs only the node bookkeeping.
  std::vector<ag::VarPtr> attr_losses;
  std::vector<ag::VarPtr> struct_losses;
  ag::VarPtr last_fused;
  for (int k = 0; k < repeats; ++k) {
    if (config_.use_attribute_recon) {
      ag::VarPtr fused = fusion_a_->FuseTensors(recons[k]);
      const std::vector<int>& loss_idx =
          config_.use_masking ? attr_masks[k] : AllNodes(n);
      attr_losses.push_back(
          ag::ScaledCosineLoss(fused, x, loss_idx, config_.eta, blocks));
      last_fused = fused;
    }
    if (config_.use_structure_recon) {
      struct_losses.push_back(fusion_b_->FuseLosses(per_relation[k]));
    }
  }

  ViewForward out;
  out.fused_recon = last_fused;
  ag::VarPtr la = SumLosses(attr_losses);
  ag::VarPtr ls = SumLosses(struct_losses);
  if (la && ls) {
    out.loss = nn::ConvexCombine(la, ls, config_.alpha);  // Eq. 9
  } else {
    out.loss = la ? la : ls;
  }
  return out;
}

ViewForward ReconstructionView::ForwardAttrAugmented(
    const MultiplexGraph& graph,
    const std::vector<std::shared_ptr<const SparseMatrix>>& norm_adjs,
    Rng* rng) const {
  const Tensor& x = graph.attributes();
  const int r_count = graph.num_relations();

  const int repeats = config_.mask_repeats;

  // Phase 1 — draw every repeat's swap (Eq. 10) sequentially. Each
  // repeat's augmented matrix moves into one constant its R relations share.
  std::vector<AttributeSwap> swaps;
  std::vector<ag::VarPtr> x_nodes;
  swaps.reserve(repeats);
  x_nodes.reserve(repeats);
  for (int k = 0; k < repeats; ++k) {
    swaps.push_back(MakeAttributeSwap(x, config_.attr_swap_ratio, rng));
    x_nodes.push_back(ag::Constant(std::move(swaps.back().augmented)));
  }

  // Phase 2 — the K x R GMAE passes (Eq. 11) fan out across the pool.
  std::vector<std::vector<ag::VarPtr>> recons(
      repeats, std::vector<ag::VarPtr>(r_count));
  static const std::vector<int> kNoMask;
  ParallelFor(static_cast<int64_t>(repeats) * r_count, 1,
              [&](int64_t b, int64_t e) {
    for (int64_t t = b; t < e; ++t) {
      const int k = static_cast<int>(t / r_count);
      const int r = static_cast<int>(t % r_count);
      recons[k][r] = attr_gmae_[r]->ReconstructAttributes(
          norm_adjs[r], x_nodes[k],
          config_.use_masking ? swaps[k].swapped_nodes : kNoMask);
    }
  });

  std::vector<ag::VarPtr> losses;
  ag::VarPtr last_fused;
  const std::shared_ptr<const RowBlocks> blocks =
      norm_adjs.empty() ? nullptr : norm_adjs[0]->row_blocks();
  for (int k = 0; k < repeats; ++k) {
    ag::VarPtr fused = fusion_a_->FuseTensors(recons[k]);
    // Eq. 13: the target is the *original* attribute matrix.
    losses.push_back(ag::ScaledCosineLoss(fused, x, swaps[k].swapped_nodes,
                                          config_.eta, blocks));
    last_fused = fused;
  }

  ViewForward out;
  out.loss = SumLosses(losses);
  out.fused_recon = last_fused;
  return out;
}

ViewForward ReconstructionView::ForwardSubgraphAugmented(
    const MultiplexGraph& graph,
    const std::vector<std::shared_ptr<const SparseMatrix>>& norm_adjs,
    Rng* rng) const {
  const Tensor& x = graph.attributes();
  const int r_count = graph.num_relations();
  // Partition schedule shared by all relations (null when unpartitioned);
  // this view builds only perturbed operators, so the schedule is the sole
  // thing it takes from the full ones.
  const std::shared_ptr<const RowBlocks> blocks =
      norm_adjs.empty() ? nullptr : norm_adjs[0]->row_blocks();

  const int repeats = config_.mask_repeats;

  // Phase 1 — all Rng draws for all K repeats, in the serial order (per
  // repeat, per relation: RWR subgraph mask, edge-target cap, negative
  // candidates).
  std::vector<std::vector<SubgraphMask>> masks(repeats);
  std::vector<std::vector<StructDraw>> draws(repeats);
  std::vector<std::vector<int>> union_masked(repeats);
  for (int k = 0; k < repeats; ++k) {
    masks[k].resize(r_count);
    draws[k].resize(r_count);
    std::unordered_set<int> masked_set;
    for (int r = 0; r < r_count; ++r) {
      masks[k][r] = MakeSubgraphMask(
          graph.layer(r), config_.num_subgraphs, config_.subgraph_size,
          config_.rwr_restart, rng);
      masked_set.insert(masks[k][r].masked_nodes.begin(),
                        masks[k][r].masked_nodes.end());
      if (!config_.use_structure_recon) continue;
      std::vector<Edge> targets = CapEdges(
          std::move(masks[k][r].removed_edges), kMaxEdgeTargets, rng);
      // Self loops can appear among incident edges; drop them (a node
      // cannot be its own softmax candidate in Eq. 7).
      targets.erase(std::remove_if(targets.begin(), targets.end(),
                                   [](const Edge& e) {
                                     return e.src == e.dst;
                                   }),
                    targets.end());
      if (targets.empty()) continue;
      draws[k][r].active = true;
      draws[k][r].cands = nn::BuildEdgeCandidates(
          targets, graph.layer(r), config_.num_negatives, rng);
    }
    union_masked[k].assign(masked_set.begin(), masked_set.end());
    std::sort(union_masked[k].begin(), union_masked[k].end());
  }

  // Phase 2 — fan the K x R branches out: normalise the perturbed operator
  // once per (repeat, relation), then attribute reconstruction and/or the
  // structure loss.
  std::vector<std::vector<ag::VarPtr>> recons(
      repeats, std::vector<ag::VarPtr>(r_count));
  std::vector<std::vector<ag::VarPtr>> per_relation_struct(
      repeats, std::vector<ag::VarPtr>(r_count));
  const ag::VarPtr x_node = ag::Constant(x);
  static const std::vector<int> kNoMask;
  ParallelFor(static_cast<int64_t>(repeats) * r_count, 1,
              [&](int64_t b, int64_t e) {
    for (int64_t t = b; t < e; ++t) {
      const int k = static_cast<int>(t / r_count);
      const int r = static_cast<int>(t % r_count);
      std::shared_ptr<const SparseMatrix> op =
          NormShared(masks[k][r].remaining, blocks);
      if (config_.use_attribute_recon) {
        recons[k][r] = attr_gmae_[r]->ReconstructAttributes(
            op, x_node,
            config_.use_masking ? masks[k][r].masked_nodes : kNoMask);
      }
      if (config_.use_structure_recon) {
        if (!draws[k][r].active) {
          per_relation_struct[k][r] = ag::Constant(Tensor(1, 1));
        } else {
          ag::VarPtr z = attr_gmae_[r]->Embed(op, x_node);
          per_relation_struct[k][r] =
              ag::MaskedEdgeSoftmaxCE(z, std::move(draws[k][r].cands),
                                      blocks);
        }
      }
    }
  });

  std::vector<ag::VarPtr> attr_losses;
  std::vector<ag::VarPtr> struct_losses;
  ag::VarPtr last_fused;
  for (int k = 0; k < repeats; ++k) {
    if (config_.use_attribute_recon && r_count > 0) {
      ag::VarPtr fused = fusion_a_->FuseTensors(recons[k]);
      if (!union_masked[k].empty()) {
        attr_losses.push_back(ag::ScaledCosineLoss(
            fused, x, union_masked[k], config_.eta, blocks));
      }
      last_fused = fused;
    }
    if (config_.use_structure_recon && r_count > 0) {
      struct_losses.push_back(fusion_b_->FuseLosses(per_relation_struct[k]));
    }
  }

  ViewForward out;
  out.fused_recon = last_fused;
  ag::VarPtr lsa = SumLosses(attr_losses);
  ag::VarPtr lss = SumLosses(struct_losses);
  if (lsa && lss) {
    out.loss = nn::ConvexCombine(lsa, lss, config_.beta);  // Eq. 16
  } else {
    out.loss = lsa ? lsa : lss;
  }
  return out;
}

ViewScoring ReconstructionView::Score(
    const MultiplexGraph& graph,
    const std::vector<std::shared_ptr<const SparseMatrix>>& norm_adjs) const {
  ViewScoring out;
  const ag::VarPtr x = ag::Constant(graph.attributes());
  const int r_count = graph.num_relations();

  // The scoring pass is deterministic (no masking, no Rng), so both
  // per-relation loops fan out directly.
  if (config_.use_attribute_recon) {
    std::vector<ag::VarPtr> recons(r_count);
    ParallelFor(r_count, 1, [&](int64_t b, int64_t e) {
      for (int r = static_cast<int>(b); r < e; ++r) {
        recons[r] = attr_gmae_[r]->ReconstructAttributes(norm_adjs[r], x, {});
      }
    });
    out.attr_recon = fusion_a_->FuseTensors(recons)->value();
  }
  if (config_.use_structure_recon) {
    out.embeddings.resize(r_count);
    ParallelFor(r_count, 1, [&](int64_t b, int64_t e) {
      for (int r = static_cast<int>(b); r < e; ++r) {
        const Gmae& encoder =
            struct_gmae_.empty() ? *attr_gmae_[r] : *struct_gmae_[r];
        out.embeddings[r] = encoder.Embed(norm_adjs[r], x)->value();
      }
    });
  }
  return out;
}

}  // namespace umgad
