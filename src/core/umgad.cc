#include "core/umgad.h"

#include <cmath>

#include "common/check.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/scorer.h"
#include "graph/partition/partitioner.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace umgad {

UmgadModel::UmgadModel(UmgadConfig config) : config_(std::move(config)) {}

UmgadModel::~UmgadModel() = default;

Status UmgadModel::Fit(const MultiplexGraph& graph) {
  if (graph.num_nodes() < 4) {
    return Status::InvalidArgument("graph too small to fit UMGAD");
  }
  if (!config_.use_original_view && !config_.use_attr_augmented_view &&
      !config_.use_subgraph_augmented_view) {
    return Status::InvalidArgument("all reconstruction views are disabled");
  }
  if (!config_.use_attribute_recon && !config_.use_structure_recon) {
    return Status::InvalidArgument(
        "both attribute and structure reconstruction are disabled");
  }
  if (config_.eta < 1.0f) {
    return Status::InvalidArgument("eta must be >= 1 (Eq. 4)");
  }

  WallTimer total_timer;
  Rng rng(config_.seed);
  const int n = graph.num_nodes();
  const int r_count = graph.num_relations();
  const int f = graph.feature_dim();

  views_ = BuildActiveViews(config_, f, r_count, &rng);

  // Full normalised operators, shared across epochs and views.
  std::vector<std::shared_ptr<const SparseMatrix>> norm_adjs;
  norm_adjs.reserve(r_count);
  for (int r = 0; r < r_count; ++r) {
    norm_adjs.push_back(std::make_shared<const SparseMatrix>(
        graph.layer(r).NormalizedWithSelfLoops()));
  }
  // Partitioned training (perf-only; bit-identical for any P): derive the
  // cache-blocked row schedule once per graph — the node set is shared by
  // all relations — and attach it to every shared operator. Views reuse it
  // across relations x masking repeats and re-attach it to their perturbed
  // per-repeat operators; a resolved count <= 1 with partitions == 0 keeps
  // the flat engine as the oracle path.
  const int num_partitions = ResolvePartitionCount(config_.partitions);
  if (num_partitions >= 1) {
    PartitionOptions popts;
    popts.num_blocks = num_partitions;
    popts.method = ResolvePartitionMethod(config_.partition_method);
    popts.seed = config_.seed;
    Result<VertexPartition> part = PartitionGraph(graph, popts);
    if (!part.ok()) return part.status();
    for (int r = 0; r < r_count; ++r) {
      norm_adjs[r]->AttachRowBlocks(part.value().blocks);
    }
  }
  // Prewarm the backward ownership indexes these operators will need on
  // every epoch (cached per matrix): the transposed CSR for the Spmm
  // backward and — for GAT encoders — the incoming-edge index for the
  // edge-softmax backward. Building them here, fanned across relations,
  // keeps the duplicate-build race of concurrent lazy first calls out of
  // epoch 1's backward entirely.
  ParallelFor(r_count, 1, [&](int64_t b, int64_t e) {
    for (int r = static_cast<int>(b); r < e; ++r) {
      norm_adjs[r]->EnsureTransposedIndex();
      if (config_.encoder == EncoderKind::kGat) {
        norm_adjs[r]->EnsureIncomingIndex();
      }
    }
  });

  std::vector<ag::VarPtr> params;
  for (const auto& view : views_) {
    std::vector<ag::VarPtr> p = view->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  nn::Adam optimizer(params, config_.learning_rate, 0.9f, 0.999f, 1e-8f,
                     config_.weight_decay);

  // The three views own disjoint parameters and their forward passes are
  // independent given independent random streams, so each epoch fans the
  // active views out across the thread pool (barrier before the joint loss;
  // backward and the Adam step stay sequential). Each view gets an Rng
  // forked *sequentially* from the epoch Rng, which keeps every draw — and
  // therefore the fitted model — identical for any UMGAD_THREADS value.
  const int active_count = static_cast<int>(views_.size());

  scores_.clear();
  loss_history_.clear();
  first_epoch_fresh_bytes_ = 0;
  steady_state_fresh_bytes_ = 0;
  WallTimer epoch_timer;
  double epoch_time_acc = 0.0;
  Status diverged;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    epoch_timer.Restart();
    // Rewind the tape: last epoch's graph nodes die, their tensors return
    // to the pool, and this epoch's identically-shaped graph reuses them —
    // steady-state epochs perform zero tensor mallocs (tracked below).
    ag::Tape::Global().Reset();
    const int64_t fresh_before = TensorPool::Global().stats().fresh_bytes;
    optimizer.ZeroGrad();

    std::vector<Rng> view_rngs;
    view_rngs.reserve(active_count);
    for (int v = 0; v < active_count; ++v) view_rngs.push_back(rng.Fork());
    std::vector<ViewForward> forwards(active_count);
    ParallelFor(active_count, 1, [&](int64_t b, int64_t e) {
      for (int v = static_cast<int>(b); v < e; ++v) {
        forwards[v] = views_[v]->Forward(graph, norm_adjs, &view_rngs[v]);
      }
    });

    // L = L_O + lambda * L_NA + mu * L_SA + theta * L_DCL (Eq. 18).
    std::vector<ag::VarPtr> terms;
    std::vector<ag::VarPtr> fused;  // fused reconstructions, in view order
    for (int v = 0; v < active_count; ++v) {
      const ViewForward& forward = forwards[v];
      if (forward.fused_recon) fused.push_back(forward.fused_recon);
      if (!forward.loss) continue;
      const ReconstructionView::Kind kind = views_[v]->kind();
      if (kind == ReconstructionView::Kind::kOriginal) {
        terms.push_back(forward.loss);  // weight 1
      } else {
        terms.push_back(ag::ScalarMul(
            forward.loss, kind == ReconstructionView::Kind::kAttrAugmented
                              ? config_.lambda
                              : config_.mu));
      }
    }

    // Dual-view contrastive learning (Eq. 17): the original view against
    // each augmented view; with the original view ablated (w/o O) the two
    // augmented views contrast against each other so the term stays
    // defined. Either way the first fused reconstruction is the anchor.
    if (config_.use_contrastive && fused.size() > 1) {
      std::vector<int> neg = nn::SampleContrastiveNegatives(n, &rng);
      ag::VarPtr zo = ag::RowL2Normalize(fused[0]);
      std::vector<ag::VarPtr> cl_terms;
      for (size_t i = 1; i < fused.size(); ++i) {
        cl_terms.push_back(ag::DualContrastiveLoss(
            zo, ag::RowL2Normalize(fused[i]), neg,
            norm_adjs[0]->row_blocks()));
      }
      terms.push_back(ag::ScalarMul(
          cl_terms.size() == 1 ? cl_terms[0] : ag::AddN(cl_terms),
          config_.theta));
    }

    if (terms.empty()) {
      return Status::Internal("no loss terms were produced");
    }
    ag::VarPtr loss = terms.size() == 1 ? terms[0] : ag::AddN(terms);
    const double loss_value = loss->value().scalar();
    if (!std::isfinite(loss_value)) {
      diverged = Status::OutOfRange(StrFormat(
          "non-finite loss (%g) at epoch %d: training diverged", loss_value,
          epoch));
      break;
    }
    loss_history_.push_back(loss_value);

    ag::Backward(loss);
    optimizer.Step();
    const int64_t fresh_delta =
        TensorPool::Global().stats().fresh_bytes - fresh_before;
    if (epoch == 0) {
      first_epoch_fresh_bytes_ = fresh_delta;
    } else {
      steady_state_fresh_bytes_ += fresh_delta;
    }
    epoch_time_acc += epoch_timer.ElapsedSeconds();
  }
  epoch_seconds_ = loss_history_.empty()
                       ? 0.0
                       : epoch_time_acc / static_cast<double>(
                             loss_history_.size());
  // Drop the last epoch's graph so the scoring pass recycles its buffers
  // instead of allocating on top of them.
  ag::Tape::Global().Reset();
  if (!diverged.ok()) return diverged;

  // Scoring (Eq. 19) over the unperturbed graph. The Rng state is captured
  // first so a serialized model (core/model_io) and the online scorer draw
  // the same negatives: view->Score is deterministic, and
  // ComputeAnomalyScores seeds every per-node negative stream from one draw
  // made at precisely this point.
  scoring_rng_state_ = rng.state();
  scores_ = ScoreViews(views_, graph, norm_adjs, config_, &rng);
  threshold_ = SelectThresholdInflection(scores_);
  // Drop the scoring-pass graph (every step-local VarPtr is out of scope).
  ag::Tape::Global().Reset();
  fit_seconds_ = total_timer.ElapsedSeconds();
  return Status::OK();
}

std::vector<int> UmgadModel::PredictUnsupervised() const {
  UMGAD_CHECK(!scores_.empty());
  return PredictWithThreshold(scores_, threshold_.threshold);
}

std::vector<double> UmgadModel::OriginalFusionWeights() const {
  UMGAD_CHECK(!views_.empty() &&
              views_[0]->kind() == ReconstructionView::Kind::kOriginal);
  return views_[0]->FusionWeights();
}

}  // namespace umgad
