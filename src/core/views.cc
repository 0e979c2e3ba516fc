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

/// One relation's pre-drawn structure-branch randomness.
struct StructDraw {
  bool active = false;      // false -> contribute a constant-zero loss
  bool perturbed = false;   // true -> normalise `remaining`, else full op
  SparseMatrix remaining;   // adjacency minus masked edges (when perturbed)
  std::vector<ag::EdgeCandidateSet> cands;
};

/// One (repeat, relation) branch's pre-drawn inputs. Forward is split into
/// two phases so the fan-out stays deterministic: phase 1 (a Draw*
/// function below, one per view kind) walks the shared Rng *sequentially*
/// in the serial loop's order, phase 2 does the heavy, Rng-free work
/// (re-normalising the perturbed operator, the GMAE passes, the edge loss)
/// in parallel across all K repeats x R relations.
struct BranchDraw {
  std::vector<int> token_mask;  // rows the attribute pass masks (Eq. 1)
  bool attr_perturbed = false;  // attribute pass reads the perturbed op
  StructDraw structure;
};

/// One masking repeat's pre-drawn inputs.
struct RepeatDraw {
  ag::VarPtr x;                      // attribute input of all R branches
  std::vector<int> loss_rows;        // rows the attribute loss compares
  std::vector<BranchDraw> branches;  // one per relation
};

/// Existing (unmasked) edges used as positive targets in the plain-GAE
/// ablation (w/o M): the model still reconstructs structure, but over the
/// observed graph rather than masked-out edges.
std::vector<Edge> SampleObservedEdges(const SparseMatrix& adj, double ratio,
                                      Rng* rng) {
  std::vector<Edge> all = UndirectedEdges(adj);
  const int target = std::max<int>(1, static_cast<int>(ratio * all.size()));
  return CapEdges(std::move(all), target, rng);
}

/// Original view (Sec. IV-A): per repeat, the attribute token mask, then
/// per relation the edge mask (or, without masking, observed-edge targets)
/// and the negative candidates.
std::vector<RepeatDraw> DrawOriginal(const MultiplexGraph& graph,
                                     const UmgadConfig& config, Rng* rng) {
  const int n = graph.num_nodes();
  const int r_count = graph.num_relations();
  std::vector<RepeatDraw> draws(config.mask_repeats);
  for (RepeatDraw& repeat : draws) {
    repeat.branches.resize(r_count);
    std::vector<int> attr_mask;
    if (config.use_attribute_recon && config.use_masking) {
      attr_mask = SampleMaskedNodes(n, config.mask_ratio, rng);
    }
    if (config.use_structure_recon) {
      for (int r = 0; r < r_count; ++r) {
        StructDraw& draw = repeat.branches[r].structure;
        std::vector<Edge> targets;
        if (config.use_masking) {
          EdgeMask mask =
              SampleEdgeMask(graph.layer(r), config.mask_ratio, rng);
          targets = CapEdges(std::move(mask.masked), kMaxEdgeTargets, rng);
          draw.perturbed = true;
          draw.remaining = std::move(mask.remaining);
        } else {
          targets = SampleObservedEdges(graph.layer(r), config.mask_ratio,
                                        rng);
        }
        if (targets.empty()) continue;
        draw.active = true;
        draw.cands = nn::BuildEdgeCandidates(targets, graph.layer(r),
                                             config.num_negatives, rng);
      }
    }
    for (BranchDraw& branch : repeat.branches) branch.token_mask = attr_mask;
    repeat.loss_rows = config.use_masking ? std::move(attr_mask) : AllNodes(n);
  }
  // One attribute constant, read concurrently by every K x R branch.
  const ag::VarPtr x = ag::Constant(graph.attributes());
  for (RepeatDraw& repeat : draws) repeat.x = x;
  return draws;
}

/// Attribute-level augmented view (Sec. IV-B.1): per repeat, the attribute
/// swap (Eq. 10). The swapped matrix moves into one constant that the
/// repeat's R relations share; the loss compares the swapped rows against
/// the *original* attributes (Eq. 13).
std::vector<RepeatDraw> DrawAttrAugmented(const MultiplexGraph& graph,
                                          const UmgadConfig& config,
                                          Rng* rng) {
  std::vector<RepeatDraw> draws(config.mask_repeats);
  for (RepeatDraw& repeat : draws) {
    AttributeSwap swap =
        MakeAttributeSwap(graph.attributes(), config.attr_swap_ratio, rng);
    repeat.x = ag::Constant(std::move(swap.augmented));
    repeat.branches.resize(graph.num_relations());
    if (config.use_masking) {
      for (BranchDraw& branch : repeat.branches) {
        branch.token_mask = swap.swapped_nodes;
      }
    }
    repeat.loss_rows = std::move(swap.swapped_nodes);
  }
  return draws;
}

/// Subgraph-level augmented view (Sec. IV-B.2): per repeat and relation,
/// the RWR subgraph mask, the edge-target cap and the negative candidates.
/// Both branches read the perturbed operator; the attribute loss covers
/// the union of the repeat's masked nodes.
std::vector<RepeatDraw> DrawSubgraphAugmented(const MultiplexGraph& graph,
                                              const UmgadConfig& config,
                                              Rng* rng) {
  const int r_count = graph.num_relations();
  std::vector<RepeatDraw> draws(config.mask_repeats);
  for (RepeatDraw& repeat : draws) {
    repeat.branches.resize(r_count);
    std::unordered_set<int> masked_set;
    for (int r = 0; r < r_count; ++r) {
      BranchDraw& branch = repeat.branches[r];
      SubgraphMask mask = MakeSubgraphMask(
          graph.layer(r), config.num_subgraphs, config.subgraph_size,
          config.rwr_restart, rng);
      masked_set.insert(mask.masked_nodes.begin(), mask.masked_nodes.end());
      if (config.use_masking) branch.token_mask = std::move(mask.masked_nodes);
      branch.attr_perturbed = true;
      branch.structure.perturbed = true;
      branch.structure.remaining = std::move(mask.remaining);
      if (!config.use_structure_recon) continue;
      std::vector<Edge> targets =
          CapEdges(std::move(mask.removed_edges), kMaxEdgeTargets, rng);
      // Self loops can appear among incident edges; drop them (a node
      // cannot be its own softmax candidate in Eq. 7).
      targets.erase(std::remove_if(targets.begin(), targets.end(),
                                   [](const Edge& e) {
                                     return e.src == e.dst;
                                   }),
                    targets.end());
      if (targets.empty()) continue;
      branch.structure.active = true;
      branch.structure.cands = nn::BuildEdgeCandidates(
          targets, graph.layer(r), config.num_negatives, rng);
    }
    repeat.loss_rows.assign(masked_set.begin(), masked_set.end());
    std::sort(repeat.loss_rows.begin(), repeat.loss_rows.end());
  }
  const ag::VarPtr x = ag::Constant(graph.attributes());
  for (RepeatDraw& repeat : draws) repeat.x = x;
  return draws;
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

std::vector<std::unique_ptr<ReconstructionView>> BuildActiveViews(
    const UmgadConfig& config, int in_dim, int num_relations, Rng* rng) {
  std::vector<std::unique_ptr<ReconstructionView>> views;
  if (config.use_original_view) {
    views.push_back(std::make_unique<ReconstructionView>(
        ReconstructionView::Kind::kOriginal, in_dim, num_relations, config,
        rng));
  }
  if (config.use_attr_augmented_view && config.use_attribute_recon) {
    views.push_back(std::make_unique<ReconstructionView>(
        ReconstructionView::Kind::kAttrAugmented, in_dim, num_relations,
        config, rng));
  }
  if (config.use_subgraph_augmented_view) {
    views.push_back(std::make_unique<ReconstructionView>(
        ReconstructionView::Kind::kSubgraphAugmented, in_dim, num_relations,
        config, rng));
  }
  return views;
}

ViewForward ReconstructionView::Forward(
    const MultiplexGraph& graph,
    const std::vector<std::shared_ptr<const SparseMatrix>>& norm_adjs,
    Rng* rng) const {
  // Phase 1: the kind's draws, in the serial loop's Rng order.
  std::vector<RepeatDraw> draws =
      kind_ == Kind::kOriginal ? DrawOriginal(graph, config_, rng)
      : kind_ == Kind::kAttrAugmented
          ? DrawAttrAugmented(graph, config_, rng)
          : DrawSubgraphAugmented(graph, config_, rng);
  const bool attr = config_.use_attribute_recon;
  const bool structure =
      config_.use_structure_recon && kind_ != Kind::kAttrAugmented;
  const int repeats = static_cast<int>(draws.size());
  const int r_count = graph.num_relations();
  // Partition schedule shared by all relations (null when unpartitioned).
  const std::shared_ptr<const RowBlocks> blocks =
      norm_adjs.empty() ? nullptr : norm_adjs[0]->row_blocks();

  // Phase 2: the K x R Rng-free branch constructions (Eq. 1-4 GMAE passes,
  // Eq. 5-8 re-normalisation / embedding / edge loss) fan out across the
  // pool. Identical draws and an identical graph make the result
  // bit-identical to a serial loop.
  std::vector<std::vector<ag::VarPtr>> recons(
      repeats, std::vector<ag::VarPtr>(r_count));
  std::vector<std::vector<ag::VarPtr>> per_relation(
      repeats, std::vector<ag::VarPtr>(r_count));
  ParallelFor(static_cast<int64_t>(repeats) * r_count, 1,
              [&](int64_t b, int64_t e) {
    for (int64_t t = b; t < e; ++t) {
      const int k = static_cast<int>(t / r_count);
      const int r = static_cast<int>(t % r_count);
      BranchDraw& branch = draws[k].branches[r];
      StructDraw& draw = branch.structure;
      // The perturbed operator is normalised once, and only when read.
      std::shared_ptr<const SparseMatrix> perturbed;
      if (draw.perturbed &&
          ((attr && branch.attr_perturbed) || (structure && draw.active))) {
        perturbed = NormShared(draw.remaining, blocks);
      }
      if (attr) {
        recons[k][r] = attr_gmae_[r]->ReconstructAttributes(
            branch.attr_perturbed ? perturbed : norm_adjs[r], draws[k].x,
            branch.token_mask);
      }
      if (structure) {
        if (!draw.active) {
          per_relation[k][r] = ag::Constant(Tensor(1, 1));
        } else {
          ag::VarPtr z = StructureEncoder(r).Embed(
              draw.perturbed ? perturbed : norm_adjs[r], draws[k].x);
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
    if (attr) {
      ag::VarPtr fused = fusion_a_->FuseTensors(recons[k]);
      // The target is the original attribute matrix in every view.
      if (!draws[k].loss_rows.empty()) {
        attr_losses.push_back(ag::ScaledCosineLoss(
            fused, graph.attributes(), draws[k].loss_rows, config_.eta,
            blocks));
      }
      last_fused = fused;
    }
    if (structure) {
      struct_losses.push_back(fusion_b_->FuseLosses(per_relation[k]));
    }
  }

  ag::VarPtr la = SumLosses(attr_losses);
  ag::VarPtr ls = SumLosses(struct_losses);
  // Eq. 9 (original view) / Eq. 16 (subgraph-level augmented view).
  const float weight = kind_ == Kind::kOriginal ? config_.alpha : config_.beta;
  return {la && ls ? nn::ConvexCombine(la, ls, weight) : (la ? la : ls),
          last_fused};
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
        out.embeddings[r] = StructureEncoder(r).Embed(norm_adjs[r], x)->value();
      }
    });
  }
  return out;
}

}  // namespace umgad
