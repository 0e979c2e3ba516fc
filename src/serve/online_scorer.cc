#include "serve/online_scorer.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <mutex>
#include <utility>

#include "common/thread_pool.h"
#include "core/scorer.h"
#include "core/views.h"
#include "nn/gcn.h"
#include "tensor/autograd.h"

namespace umgad {
namespace serve {
namespace {

double SigmoidD(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// The batch activations' float arithmetic (tensor/ops.cc UnaryOp lambdas),
/// applied elementwise after a stage's accumulation.
float ApplyActivation(float x, nn::Activation act) {
  switch (act) {
    case nn::Activation::kNone:
      return x;
    case nn::Activation::kRelu:
      return x > 0.0f ? x : 0.0f;
    case nn::Activation::kLeakyRelu:
      return x > 0.0f ? x : 0.2f * x;
    case nn::Activation::kElu:
      return x > 0.0f ? x : std::exp(x) - 1.0f;
    case nn::Activation::kTanh:
      return std::tanh(x);
  }
  return x;
}

// ---------------------------------------------------------------------------
// Stage pipeline: each GMAE encoder/decoder unrolls into a list of per-row
// stages. A stage's row i is a pure function of the previous stage's rows
// (its own row for kProject/kBiasAct, the normalised-operator row pattern
// for kSpmm/kGatAttend), which is what the dirty-front propagation and the
// row-level cache rely on.
// ---------------------------------------------------------------------------

enum class StageKind { kProject, kSpmm, kGatAttend, kBiasAct };

struct StagePlan {
  StageKind kind = StageKind::kProject;
  int out_dim = 0;
  Tensor weight;        // kProject
  Tensor a_src, a_dst;  // kGatAttend
  float slope = 0.2f;   // kGatAttend
  Tensor bias;          // kBiasAct
  nn::Activation act = nn::Activation::kNone;  // kGatAttend / kBiasAct
};

struct ChainPlan {
  std::vector<StagePlan> stages;
  int embed_stage = -1;  // last encoder stage (the structure embedding)
};

struct ViewPlan {
  bool attr_used = false;       // attribute distances feed the score
  bool struct_used = false;     // structure residuals feed the score
  bool separate_struct = false; // kOriginal: struct embeddings use own chains
  std::vector<ChainPlan> attr_chains;    // per relation
  std::vector<ChainPlan> struct_chains;  // per relation (separate_struct)
  std::vector<float> fusion_w;           // SimplexWeightedSum softmax weights
};

void AppendSgcStages(ChainPlan* chain, const nn::SgcConv& layer) {
  const int out_dim = layer.weight_value().cols();
  StagePlan p;
  p.kind = StageKind::kProject;
  p.weight = layer.weight_value();
  p.out_dim = out_dim;
  chain->stages.push_back(std::move(p));
  for (int h = 0; h < layer.hops(); ++h) {
    StagePlan s;
    s.kind = StageKind::kSpmm;
    s.out_dim = out_dim;
    chain->stages.push_back(std::move(s));
  }
  StagePlan b;
  b.kind = StageKind::kBiasAct;
  b.bias = layer.bias_value();
  b.act = layer.activation();
  b.out_dim = out_dim;
  chain->stages.push_back(std::move(b));
}

ChainPlan BuildChain(const Gmae& gmae, bool with_decoder) {
  ChainPlan chain;
  if (gmae.encoder_kind() == EncoderKind::kGat) {
    for (const auto& layer : gmae.gat_layers()) {
      StagePlan p;
      p.kind = StageKind::kProject;
      p.weight = layer->weight_value();
      p.out_dim = p.weight.cols();
      chain.stages.push_back(std::move(p));
      StagePlan a;
      a.kind = StageKind::kGatAttend;
      a.a_src = layer->attn_src_value();
      a.a_dst = layer->attn_dst_value();
      a.slope = layer->negative_slope();
      a.act = layer->activation();
      a.out_dim = a.a_src.cols();
      chain.stages.push_back(std::move(a));
    }
  } else {
    for (const auto& layer : gmae.sgc_layers()) {
      AppendSgcStages(&chain, *layer);
    }
  }
  chain.embed_stage = static_cast<int>(chain.stages.size()) - 1;
  if (with_decoder) AppendSgcStages(&chain, gmae.decoder());
  return chain;
}

std::vector<float> SoftmaxWeights(const Tensor& logits) {
  // The SimplexWeightedSum forward's float softmax (tensor/ops.cc).
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

struct StageState {
  Tensor cache;                // n x out_dim
  std::vector<uint8_t> valid;  // per row
  // kGatAttend only: the per-node attention logits <a_src, h_i>, <a_dst,
  // h_i> over the previous stage's rows. Always resident (two doubles per
  // node) — only invalidated when the underlying projection row changes.
  std::vector<double> s, t;
  std::vector<uint8_t> st_valid;
};

struct ChainState {
  std::vector<StageState> stages;
};

struct ViewState {
  std::vector<ChainState> attr_chains;
  std::vector<ChainState> struct_chains;
  std::vector<double> attr_val;                          // per node
  std::vector<std::vector<double>> residual;             // [rel][node]
  std::vector<double> structure;  // per node: RelationMean of residual
  ViewMoments moments;            // of attr_val and structure, owned nodes
  std::vector<std::vector<std::vector<int>>> negatives;  // [rel][node]
  std::vector<std::vector<std::vector<int>>> samplers;   // [rel][u] -> nodes
};

struct EngineState {
  std::vector<ViewState> views;
};

/// Dedup set for dirty-set accumulation. The marks live across updates and
/// Clear() resets only the ones it set, so a pass costs O(items), not O(n).
class NodeSet {
 public:
  explicit NodeSet(int n = 0) : mark_(n, 0) {}
  void Add(int i) {
    if (!mark_[i]) {
      mark_[i] = 1;
      items_.push_back(i);
    }
  }
  void Clear() {
    for (int i : items_) mark_[i] = 0;
    items_.clear();
  }
  const std::vector<int>& items() const { return items_; }

 private:
  std::vector<uint8_t> mark_;
  std::vector<int> items_;
};

}  // namespace

Result<EdgeUpdate> ParseEdgeUpdateLine(std::string_view line) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::string_view fields[4];
  int count = 0;
  size_t pos = line.find_first_not_of(kSpace);
  while (pos != std::string_view::npos) {
    if (count == 4) {
      return Status::InvalidArgument(
          "expected '+|- src dst rel': trailing input after the relation");
    }
    const size_t end = std::min(line.find_first_of(kSpace, pos), line.size());
    fields[count++] = line.substr(pos, end - pos);
    pos = line.find_first_not_of(kSpace, end);
  }
  if (count < 4) {
    return Status::InvalidArgument("expected '+|- src dst rel': missing fields");
  }
  if (fields[0] != "+" && fields[0] != "-") {
    return Status::InvalidArgument("expected '+|- src dst rel': bad op");
  }
  EdgeUpdate update;
  update.add = fields[0] == "+";
  int* const ids[3] = {&update.src, &update.dst, &update.relation};
  for (int k = 0; k < 3; ++k) {
    const std::string_view f = fields[k + 1];
    const char* const end = f.data() + f.size();
    const std::from_chars_result parsed =
        std::from_chars(f.data(), end, *ids[k]);
    if (parsed.ec != std::errc() || parsed.ptr != end) {
      return Status::InvalidArgument(
          "expected '+|- src dst rel': src, dst and rel must be integers");
    }
  }
  return update;
}

// ---------------------------------------------------------------------------
// Impl
// ---------------------------------------------------------------------------

struct OnlineScorer::Impl {
  UmgadConfig config;
  uint64_t stream_base = 0;  // NegativeStreamBase of the artifact's Rng
  std::string name;
  std::vector<std::string> relation_names;
  std::vector<int> labels;
  Tensor x;  // node attributes (immutable under edge updates)
  int n = 0;
  int r_count = 0;
  std::vector<DynamicAdjacency> adj;
  std::vector<ViewPlan> plans;
  // Owner mask (ServeOptions::owned_nodes): empty = every node owned.
  // Component maintenance (negatives, residuals, attribute distances) and
  // the moments are restricted to owned nodes; stage rows stay global (a
  // residual reads neighbour/negative embeddings anywhere).
  std::vector<uint8_t> owned;
  bool component_only = false;
  EngineState state;
  // ApplyBatch's dirty sets, sized once: s_norm/endpoints per relation
  // (see ApplyBatch), `front` for one propagation stage, `rescore` for one
  // (view, relation)'s residuals, `moved` for one view's changed columns.
  std::vector<NodeSet> s_norm;
  std::vector<NodeSet> endpoints;
  NodeSet front;
  NodeSet rescore;
  NodeSet moved;

  bool Owned(int i) const { return owned.empty() || owned[i] != 0; }

  EngineState MakeEmptyState() const;
  void ComputeST(const ChainPlan& plan, ChainState& cs, int stage,
                 int i) const;
  void ComputeStageRow(const ChainPlan& plan, ChainState& cs, int stage,
                       int rel, int i) const;
  void EnsureST(const ChainPlan& plan, ChainState& cs, int stage, int rel,
                int i, ServeStats* stats) const;
  void EnsureRow(const ChainPlan& plan, ChainState& cs, int stage, int rel,
                 int i, ServeStats* stats) const;
  std::vector<int> DrawNegatives(int view, int rel, int node) const;
  void ComputeResidualNode(EngineState& st, int view, int rel, int i,
                           ServeStats* stats) const;
  void ComputeAttrValNode(EngineState& st, int view, int i,
                          ServeStats* stats) const;
  void BuildMoments(EngineState* st, bool parallel) const;
  std::vector<ViewColumns> Columns(const EngineState& st) const;
  void FullCompute(EngineState* st, bool parallel) const;
  Status ApplyBatch(const std::vector<EdgeUpdate>& updates,
                    ServeStats* stats);
};

EngineState OnlineScorer::Impl::MakeEmptyState() const {
  EngineState st;
  st.views.resize(plans.size());
  for (size_t v = 0; v < plans.size(); ++v) {
    const ViewPlan& vp = plans[v];
    ViewState& vs = st.views[v];
    auto init_chains = [&](const std::vector<ChainPlan>& chain_plans,
                           std::vector<ChainState>* chain_states) {
      chain_states->resize(chain_plans.size());
      for (size_t c = 0; c < chain_plans.size(); ++c) {
        ChainState& cs = (*chain_states)[c];
        cs.stages.resize(chain_plans[c].stages.size());
        for (size_t s = 0; s < chain_plans[c].stages.size(); ++s) {
          const StagePlan& sp = chain_plans[c].stages[s];
          StageState& ss = cs.stages[s];
          ss.cache = Tensor(n, sp.out_dim);
          ss.valid.assign(n, 0);
          if (sp.kind == StageKind::kGatAttend) {
            ss.s.assign(n, 0.0);
            ss.t.assign(n, 0.0);
            ss.st_valid.assign(n, 0);
          }
        }
      }
    };
    init_chains(vp.attr_chains, &vs.attr_chains);
    init_chains(vp.struct_chains, &vs.struct_chains);
    if (vp.attr_used) vs.attr_val.assign(n, 0.0);
    if (vp.struct_used) {
      vs.structure.assign(n, 0.0);
      vs.residual.assign(r_count, std::vector<double>(n, 0.0));
      vs.negatives.assign(r_count, std::vector<std::vector<int>>(n));
      vs.samplers.assign(r_count, std::vector<std::vector<int>>(n));
    }
  }
  return st;
}

void OnlineScorer::Impl::ComputeST(const ChainPlan& plan, ChainState& cs,
                                   int stage, int i) const {
  const StagePlan& sp = plan.stages[stage];
  StageState& ss = cs.stages[stage];
  // A GAT attend stage always follows its projection stage.
  const Tensor& h = cs.stages[stage - 1].cache;
  const float* hr = h.row(i);
  const float* asv = sp.a_src.data();
  const float* adv = sp.a_dst.data();
  const int d = h.cols();
  double sacc = 0.0;
  double tacc = 0.0;
  for (int j = 0; j < d; ++j) {
    sacc += static_cast<double>(asv[j]) * hr[j];
    tacc += static_cast<double>(adv[j]) * hr[j];
  }
  ss.s[i] = sacc;
  ss.t[i] = tacc;
  ss.st_valid[i] = 1;
}

void OnlineScorer::Impl::ComputeStageRow(const ChainPlan& plan,
                                         ChainState& cs, int stage, int rel,
                                         int i) const {
  const StagePlan& sp = plan.stages[stage];
  StageState& ss = cs.stages[stage];
  const Tensor& prev = stage == 0 ? x : cs.stages[stage - 1].cache;
  float* out = ss.cache.row(i);
  const int d = sp.out_dim;
  switch (sp.kind) {
    case StageKind::kProject: {
      const float* arow = prev.row(i);
      const int k = sp.weight.rows();
      // MatMulNaive's row-i walk (i-k-j order, zero skip).
      std::fill(out, out + d, 0.0f);
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = sp.weight.row(p);
        for (int j = 0; j < d; ++j) out[j] += av * brow[j];
      }
      break;
    }
    case StageKind::kSpmm: {
      // SparseMatrix::Multiply's row-i walk over the normalised operator.
      std::fill(out, out + d, 0.0f);
      adj[rel].ForEachNormEntry(i, [&](int col, float v) {
        const float* xrow = prev.row(col);
        for (int j = 0; j < d; ++j) out[j] += v * xrow[j];
      });
      break;
    }
    case StageKind::kGatAttend: {
      // EdgeSoftmaxForwardNaive's row-i walk: pattern of the normalised
      // operator (neighbours + self loop, ascending; values unused).
      thread_local std::vector<int> cols;
      thread_local std::vector<float> al;
      cols.clear();
      al.clear();
      double mx = -1e300;
      auto visit = [&](int col) {
        const double zraw = ss.s[i] + ss.t[col];
        const double e = zraw > 0.0 ? zraw : sp.slope * zraw;
        al.push_back(static_cast<float>(e));
        cols.push_back(col);
        mx = std::max(mx, e);
      };
      bool self_done = false;
      for (int col : adj[rel].neighbors(i)) {
        if (!self_done && col > i) {
          visit(i);
          self_done = true;
        }
        visit(col);
      }
      if (!self_done) visit(i);
      double denom = 0.0;
      for (size_t k = 0; k < al.size(); ++k) {
        al[k] = static_cast<float>(std::exp(al[k] - mx));
        denom += al[k];
      }
      std::fill(out, out + d, 0.0f);
      for (size_t k = 0; k < al.size(); ++k) {
        al[k] = static_cast<float>(al[k] / denom);
        const float* hj = prev.row(cols[k]);
        for (int j = 0; j < d; ++j) out[j] += al[k] * hj[j];
      }
      if (sp.act != nn::Activation::kNone) {
        for (int j = 0; j < d; ++j) out[j] = ApplyActivation(out[j], sp.act);
      }
      break;
    }
    case StageKind::kBiasAct: {
      // AddRowBroadcast + Activate.
      const float* prow = prev.row(i);
      const float* b = sp.bias.data();
      for (int j = 0; j < d; ++j) {
        out[j] = ApplyActivation(prow[j] + b[j], sp.act);
      }
      break;
    }
  }
  ss.valid[i] = 1;
}

void OnlineScorer::Impl::EnsureST(const ChainPlan& plan, ChainState& cs,
                                  int stage, int rel, int i,
                                  ServeStats* stats) const {
  if (cs.stages[stage].st_valid[i]) return;
  EnsureRow(plan, cs, stage - 1, rel, i, stats);
  ComputeST(plan, cs, stage, i);
}

void OnlineScorer::Impl::EnsureRow(const ChainPlan& plan, ChainState& cs,
                                   int stage, int rel, int i,
                                   ServeStats* stats) const {
  StageState& ss = cs.stages[stage];
  if (ss.valid[i]) {
    if (stats != nullptr) ++stats->cache_hits;
    return;
  }
  if (stats != nullptr) ++stats->cache_misses;
  const StagePlan& sp = plan.stages[stage];
  switch (sp.kind) {
    case StageKind::kProject:
    case StageKind::kBiasAct:
      if (stage > 0) EnsureRow(plan, cs, stage - 1, rel, i, stats);
      break;
    case StageKind::kSpmm:
      adj[rel].ForEachNormEntry(i, [&](int col, float) {
        EnsureRow(plan, cs, stage - 1, rel, col, stats);
      });
      break;
    case StageKind::kGatAttend: {
      auto need = [&](int col) {
        EnsureRow(plan, cs, stage - 1, rel, col, stats);
        EnsureST(plan, cs, stage, rel, col, stats);
      };
      bool self_done = false;
      for (int col : adj[rel].neighbors(i)) {
        if (!self_done && col > i) {
          need(i);
          self_done = true;
        }
        need(col);
      }
      if (!self_done) need(i);
      break;
    }
  }
  ComputeStageRow(plan, cs, stage, rel, i);
}

std::vector<int> OnlineScorer::Impl::DrawNegatives(int view, int rel,
                                                   int node) const {
  // StructureResidual's draw for this node, against the current row.
  return NodeNegatives(adj[rel], node, adj[rel].degree(node),
                       config.num_score_negatives,
                       NegativeStreamSeed(stream_base, view, rel));
}

void OnlineScorer::Impl::ComputeResidualNode(EngineState& st, int view,
                                             int rel, int i,
                                             ServeStats* stats) const {
  const ViewPlan& vp = plans[view];
  ViewState& vs = st.views[view];
  const ChainPlan* plan;
  ChainState* chain;
  int stage;
  if (vp.separate_struct) {
    plan = &vp.struct_chains[rel];
    chain = &vs.struct_chains[rel];
    stage = static_cast<int>(plan->stages.size()) - 1;
  } else {
    plan = &vp.attr_chains[rel];
    chain = &vs.attr_chains[rel];
    stage = plan->embed_stage;
  }
  EnsureRow(*plan, *chain, stage, rel, i, stats);
  const Tensor& z = chain->stages[stage].cache;
  // StructureResidual's degree-normalised form, per node.
  double edge_err = 0.0;
  int degree = 0;
  for (int col : adj[rel].neighbors(i)) {
    EnsureRow(*plan, *chain, stage, rel, col, stats);
    edge_err += 1.0 - SigmoidD(z.RowDot(i, z, col));
    ++degree;
  }
  double leak = 0.0;
  const std::vector<int>& negs = vs.negatives[rel][i];
  if (!negs.empty()) {
    for (int u : negs) {
      EnsureRow(*plan, *chain, stage, rel, u, stats);
      leak += SigmoidD(z.RowDot(i, z, u));
    }
    leak /= static_cast<double>(negs.size());
  }
  vs.residual[rel][i] = (degree > 0 ? edge_err / degree : 0.0) + leak;
}

void OnlineScorer::Impl::ComputeAttrValNode(EngineState& st, int view, int i,
                                            ServeStats* stats) const {
  const ViewPlan& vp = plans[view];
  ViewState& vs = st.views[view];
  const int f = x.cols();
  // SimplexWeightedSum's accumulation (zero, then += w_r * row_r ascending)
  // followed by RowL2Distance against the raw attributes.
  thread_local std::vector<float> fused;
  fused.assign(f, 0.0f);
  for (int r = 0; r < r_count; ++r) {
    const ChainPlan& cp = vp.attr_chains[r];
    ChainState& cs = vs.attr_chains[r];
    const int last = static_cast<int>(cp.stages.size()) - 1;
    EnsureRow(cp, cs, last, r, i, stats);
    const float w = vp.fusion_w[r];
    const float* row = cs.stages[last].cache.row(i);
    for (int j = 0; j < f; ++j) fused[j] += w * row[j];
  }
  const float* xi = x.row(i);
  double acc = 0.0;
  for (int j = 0; j < f; ++j) {
    const double diff = static_cast<double>(fused[j]) - xi[j];
    acc += diff * diff;
  }
  vs.attr_val[i] =
      static_cast<double>(static_cast<float>(std::sqrt(acc)));
}

void OnlineScorer::Impl::BuildMoments(EngineState* st, bool parallel) const {
  // From scratch over the owned nodes: the relation means and both
  // columns' moments. The moments are exact, so per-chunk sums merged in
  // any order equal the serial sweep (RescoreFullNaive) bit for bit.
  const size_t v_count = plans.size();
  for (ViewState& vs : st->views) vs.moments = ViewMoments();
  std::mutex mu;
  auto deposit = [&](int64_t b, int64_t e) {
    std::vector<ViewMoments> local(v_count);
    std::vector<double> attr;
    std::vector<double> structure;
    for (size_t v = 0; v < v_count; ++v) {
      ViewState& vs = st->views[v];
      attr.clear();
      structure.clear();
      for (int i = static_cast<int>(b); i < e; ++i) {
        if (!Owned(i)) continue;
        if (plans[v].attr_used) attr.push_back(vs.attr_val[i]);
        if (plans[v].struct_used) {
          vs.structure[i] = RelationMean(vs.residual, i);
          structure.push_back(vs.structure[i]);
        }
      }
      local[v].attr.AddAll(attr.data(), static_cast<int64_t>(attr.size()));
      local[v].structure.AddAll(structure.data(),
                                static_cast<int64_t>(structure.size()));
    }
    std::lock_guard<std::mutex> lock(mu);
    for (size_t v = 0; v < v_count; ++v) {
      st->views[v].moments.attr.Merge(local[v].attr);
      st->views[v].moments.structure.Merge(local[v].structure);
    }
  };
  if (parallel) {
    ParallelFor(n, 4096, deposit);
  } else {
    deposit(0, n);
  }
}

std::vector<ViewColumns> OnlineScorer::Impl::Columns(
    const EngineState& st) const {
  std::vector<ViewColumns> columns(plans.size());
  for (size_t v = 0; v < plans.size(); ++v) {
    const ViewState& vs = st.views[v];
    if (plans[v].attr_used) {
      columns[v].attr = vs.attr_val.data();
      columns[v].attr_z = vs.moments.attr.Scale();
    }
    if (plans[v].struct_used) {
      columns[v].structure = vs.structure.data();
      columns[v].structure_z = vs.moments.structure.Scale();
    }
  }
  return columns;
}

void OnlineScorer::Impl::FullCompute(EngineState* st, bool parallel) const {
  // Stage-by-stage: every row of a stage only reads fully-valid previous
  // stages, so rows fan out across the pool race-free; with parallel ==
  // false the identical kernels run in one serial sweep (RescoreFullNaive).
  auto for_rows = [&](auto&& fn) {
    if (parallel) {
      ParallelFor(n, 8, [&](int64_t b, int64_t e) {
        for (int i = static_cast<int>(b); i < e; ++i) fn(i);
      });
    } else {
      for (int i = 0; i < n; ++i) fn(i);
    }
  };
  for (size_t v = 0; v < plans.size(); ++v) {
    const ViewPlan& vp = plans[v];
    ViewState& vs = st->views[v];
    auto run_chains = [&](const std::vector<ChainPlan>& chain_plans,
                          std::vector<ChainState>& chain_states) {
      for (size_t r = 0; r < chain_plans.size(); ++r) {
        const ChainPlan& cp = chain_plans[r];
        ChainState& cs = chain_states[r];
        for (size_t s = 0; s < cp.stages.size(); ++s) {
          if (cp.stages[s].kind == StageKind::kGatAttend) {
            for_rows([&](int i) {
              ComputeST(cp, cs, static_cast<int>(s), i);
            });
          }
          for_rows([&](int i) {
            ComputeStageRow(cp, cs, static_cast<int>(s),
                            static_cast<int>(r), i);
          });
        }
      }
    };
    run_chains(vp.attr_chains, vs.attr_chains);
    run_chains(vp.struct_chains, vs.struct_chains);
    // Per-node score components only exist for owned nodes: each node's
    // negative stream and component are independent of every other node's,
    // so the owned slice of a masked shard is bit-identical to the same
    // slice of an unmasked scorer.
    if (vp.struct_used) {
      for (int r = 0; r < r_count; ++r) {
        for_rows([&](int i) {
          vs.negatives[r][i] =
              Owned(i) ? DrawNegatives(static_cast<int>(v), r, i)
                       : std::vector<int>();
        });
        for (auto& list : vs.samplers[r]) list.clear();
        for (int i = 0; i < n; ++i) {
          for (int u : vs.negatives[r][i]) vs.samplers[r][u].push_back(i);
        }
        for_rows([&](int i) {
          if (!Owned(i)) return;
          ComputeResidualNode(*st, static_cast<int>(v), r, i, nullptr);
        });
      }
    }
    if (vp.attr_used) {
      for_rows([&](int i) {
        if (!Owned(i)) return;
        ComputeAttrValNode(*st, static_cast<int>(v), i, nullptr);
      });
    }
  }
  BuildMoments(st, parallel);
}

Status OnlineScorer::Impl::ApplyBatch(const std::vector<EdgeUpdate>& updates,
                                      ServeStats* stats) {
  if (updates.empty()) return Status::OK();

  // Phase A — validate and mutate the adjacency sequentially, coalescing
  // each relation's dirty fronts. Validation is against the already-mutated
  // prefix, so a burst may legally add then remove the same edge. On the
  // first bad update the applied prefix is rolled back in reverse and the
  // cached state — untouched so far — stays exactly as before the call.
  //
  // s_norm[r]: rows of relation r's normalised operator whose entries
  // change — every update's endpoints (pattern + own degree) plus every
  // neighbour of an endpoint immediately before or after that mutation
  // (the 1/sqrt(deg) factor of the shared entry moves). Each update logs
  // its own before/after snapshot, so the union covers every row that
  // differs between the initial and final adjacency.
  // endpoints[r]: distinct endpoint nodes of relation r's updates — the
  // nodes whose own adjacency row (and negative stream) changed.
  for (int r = 0; r < r_count; ++r) {
    s_norm[r].Clear();
    endpoints[r].Clear();
  }
  Status error = Status::OK();
  size_t applied = 0;
  for (; applied < updates.size(); ++applied) {
    const EdgeUpdate& update = updates[applied];
    if (update.relation < 0 || update.relation >= r_count) {
      error = Status::InvalidArgument("edge update: relation out of range");
      break;
    }
    if (update.src < 0 || update.src >= n || update.dst < 0 ||
        update.dst >= n) {
      error = Status::InvalidArgument("edge update: endpoint out of range");
      break;
    }
    if (update.src == update.dst) {
      error = Status::InvalidArgument("edge update: self loops not allowed");
      break;
    }
    const int u = update.src;
    const int v = update.dst;
    const int rel = update.relation;
    DynamicAdjacency& a = adj[rel];
    const bool present = a.Has(u, v);
    if (update.add && present) {
      error = Status::FailedPrecondition("edge update: edge already present");
      break;
    }
    if (!update.add && !present) {
      error = Status::NotFound("edge update: edge not present");
      break;
    }
    NodeSet& sn = s_norm[rel];
    sn.Add(u);
    sn.Add(v);
    for (int j : a.neighbors(u)) sn.Add(j);
    for (int j : a.neighbors(v)) sn.Add(j);
    if (update.add) {
      a.AddEntry(u, v, 1.0f);
      a.AddEntry(v, u, 1.0f);
    } else {
      a.RemoveEntry(u, v);
      a.RemoveEntry(v, u);
    }
    for (int j : a.neighbors(u)) sn.Add(j);
    for (int j : a.neighbors(v)) sn.Add(j);
    endpoints[rel].Add(u);
    endpoints[rel].Add(v);
  }
  if (!error.ok()) {
    for (size_t i = applied; i-- > 0;) {
      const EdgeUpdate& update = updates[i];
      DynamicAdjacency& a = adj[update.relation];
      if (update.add) {
        a.RemoveEntry(update.src, update.dst);
        a.RemoveEntry(update.dst, update.src);
      } else {
        a.AddEntry(update.src, update.dst, 1.0f);
        a.AddEntry(update.dst, update.src, 1.0f);
      }
    }
    return error;
  }

  int64_t invalidated = 0;
  int64_t rescored = 0;

  // Phase B.1 — propagate the dirty fronts through every stage of each
  // updated relation's chains (all views) and invalidate those cache rows.
  // All invalidation across every relation happens before any
  // recomputation so EnsureRow never reads a stale-but-valid dependency
  // (ComputeAttrValNode fuses across all relations' chains).
  struct ChainDirty {
    std::vector<int> embed;
    std::vector<int> final;
  };
  auto propagate = [&](const ChainPlan& cp, ChainState& cs, int rel) {
    const DynamicAdjacency& a = adj[rel];
    const NodeSet& sn = s_norm[rel];
    const std::vector<int>& ends = endpoints[rel].items();
    ChainDirty out;
    std::vector<int> cur;
    for (size_t s = 0; s < cp.stages.size(); ++s) {
      const StagePlan& sp = cp.stages[s];
      StageState& ss = cs.stages[s];
      std::vector<int> next;
      switch (sp.kind) {
        case StageKind::kProject:
        case StageKind::kBiasAct:
          next = cur;
          break;
        case StageKind::kSpmm: {
          front.Clear();
          for (int i : sn.items()) front.Add(i);
          for (int d : cur) {
            front.Add(d);
            for (int j : a.neighbors(d)) front.Add(j);
          }
          next = front.items();
          break;
        }
        case StageKind::kGatAttend: {
          // Attention pattern changes only at the endpoints; values follow
          // dirty projections one hop out. s/t of a node follow its own
          // projection row.
          for (int d : cur) ss.st_valid[d] = 0;
          front.Clear();
          for (int d : ends) front.Add(d);
          for (int d : cur) {
            front.Add(d);
            for (int j : a.neighbors(d)) front.Add(j);
          }
          next = front.items();
          break;
        }
      }
      for (int i : next) {
        if (ss.valid[i]) {
          ss.valid[i] = 0;
          ++invalidated;
        }
      }
      if (static_cast<int>(s) == cp.embed_stage) out.embed = next;
      cur = std::move(next);
    }
    out.final = std::move(cur);
    return out;
  };

  std::vector<std::vector<ChainDirty>> attr_dirty(
      plans.size(), std::vector<ChainDirty>(r_count));
  std::vector<std::vector<ChainDirty>> struct_dirty(
      plans.size(), std::vector<ChainDirty>(r_count));
  for (size_t w = 0; w < plans.size(); ++w) {
    ViewPlan& vp = plans[w];
    ViewState& vs = state.views[w];
    for (int rel = 0; rel < r_count; ++rel) {
      if (endpoints[rel].items().empty()) continue;
      if (!vp.attr_chains.empty()) {
        attr_dirty[w][rel] =
            propagate(vp.attr_chains[rel], vs.attr_chains[rel], rel);
      }
      if (vp.separate_struct) {
        struct_dirty[w][rel] =
            propagate(vp.struct_chains[rel], vs.struct_chains[rel], rel);
      }
    }
  }

  // Phase B.2 — recompute the affected per-node score components, once per
  // node per component for the whole burst, and move the view's moments by
  // exactly those nodes' old and new values.
  for (size_t w = 0; w < plans.size(); ++w) {
    const ViewPlan& vp = plans[w];
    ViewState& vs = state.views[w];
    if (vp.struct_used) {
      moved.Clear();
      for (int rel = 0; rel < r_count; ++rel) {
        const std::vector<int>& ends = endpoints[rel].items();
        if (ends.empty()) continue;
        const DynamicAdjacency& a = adj[rel];
        const std::vector<int>& embed_dirty =
            vp.separate_struct ? struct_dirty[w][rel].embed
                               : attr_dirty[w][rel].embed;
        // The endpoints' own adjacency rows changed, so their negative
        // draws re-run against the new rows (clean nodes' draws are
        // unaffected — each stream only rejects against its own row, and
        // each stream is stateless, so one redraw against the final row
        // matches replaying every intermediate redraw). Non-owned
        // endpoints carry no stream (their component lives on another
        // shard), so there is nothing to redraw.
        for (int node : ends) {
          if (!Owned(node)) continue;
          std::vector<std::vector<int>>& samplers = vs.samplers[rel];
          for (int old : vs.negatives[rel][node]) {
            std::vector<int>& list = samplers[old];
            auto it = std::find(list.begin(), list.end(), node);
            if (it != list.end()) {
              *it = list.back();
              list.pop_back();
            }
          }
          vs.negatives[rel][node] =
              DrawNegatives(static_cast<int>(w), rel, node);
          for (int nu : vs.negatives[rel][node]) {
            samplers[nu].push_back(node);
          }
        }
        // Residuals to recompute: the endpoints (adjacency row + negatives
        // changed), nodes with a dirty embedding, their neighbours (the
        // edge-error term reads neighbour embeddings), and nodes whose
        // negative set contains a dirty-embedding node.
        rescore.Clear();
        for (int node : ends) rescore.Add(node);
        for (int d : embed_dirty) {
          rescore.Add(d);
          for (int j : a.neighbors(d)) rescore.Add(j);
          for (int i : vs.samplers[rel][d]) rescore.Add(i);
        }
        for (int i : rescore.items()) {
          if (!Owned(i)) continue;
          ComputeResidualNode(state, static_cast<int>(w), rel, i, stats);
          moved.Add(i);
          ++rescored;
        }
      }
      for (int i : moved.items()) {
        vs.moments.structure.Remove(vs.structure[i]);
        vs.structure[i] = RelationMean(vs.residual, i);
        vs.moments.structure.Add(vs.structure[i]);
      }
    }
    if (vp.attr_used) {
      // One attribute-value pass over the union of every updated
      // relation's final dirty front (the fused value reads all chains).
      moved.Clear();
      for (int rel = 0; rel < r_count; ++rel) {
        for (int i : attr_dirty[w][rel].final) moved.Add(i);
      }
      for (int i : moved.items()) {
        if (!Owned(i)) continue;
        vs.moments.attr.Remove(vs.attr_val[i]);
        ComputeAttrValNode(state, static_cast<int>(w), i, stats);
        vs.moments.attr.Add(vs.attr_val[i]);
        ++rescored;
      }
    }
  }

  if (stats != nullptr) {
    stats->updates_applied += static_cast<int64_t>(updates.size());
    stats->last_dirty_rows = invalidated;
    stats->last_rescored_nodes = rescored;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// OnlineScorer
// ---------------------------------------------------------------------------

OnlineScorer::OnlineScorer() = default;
OnlineScorer::~OnlineScorer() = default;

Result<std::unique_ptr<OnlineScorer>> OnlineScorer::Create(
    TrainedModel model, const MultiplexGraph& graph, ServeOptions options) {
  if (!model.fingerprint().Matches(FingerprintGraph(graph))) {
    return Status::FailedPrecondition(
        "graph does not match the model's training fingerprint");
  }
  std::unique_ptr<OnlineScorer> scorer(new OnlineScorer());
  scorer->model_ = std::move(model);
  scorer->impl_ = std::make_unique<Impl>();
  Impl& impl = *scorer->impl_;
  const UmgadConfig& config = scorer->model_.config();
  impl.config = config;
  Rng scoring_rng;
  scoring_rng.set_state(scorer->model_.scoring_rng_state());
  impl.stream_base = NegativeStreamBase(&scoring_rng);
  impl.name = graph.name();
  impl.labels = graph.labels();
  impl.x = graph.attributes();
  impl.n = graph.num_nodes();
  impl.r_count = graph.num_relations();
  impl.relation_names.reserve(impl.r_count);
  impl.adj.reserve(impl.r_count);
  for (int r = 0; r < impl.r_count; ++r) {
    impl.relation_names.push_back(graph.relation_name(r));
    impl.adj.emplace_back(graph.layer(r));
  }
  if (!options.owned_nodes.empty()) {
    if (static_cast<int>(options.owned_nodes.size()) != impl.n) {
      return Status::InvalidArgument(
          "ServeOptions::owned_nodes size does not match the graph");
    }
    impl.owned = options.owned_nodes;
    impl.component_only = true;
  }

  // Unroll the views into stage plans; the weight tensors are copied out of
  // the reconstructed modules (Tensor is a deep-copy value type), so the
  // views are discarded before this block ends and the ParamScope reclaims
  // their persistent parameter leaves — repeated scorer (re)builds in a
  // long-running server allocate no lasting tape memory.
  {
    ag::ParamScope params;
    UMGAD_ASSIGN_OR_RETURN(
        std::vector<std::unique_ptr<ReconstructionView>> views,
        scorer->model_.BuildViews());
    for (const auto& view : views) {
      ViewPlan vp;
      vp.attr_used = config.use_attribute_recon;
      vp.struct_used = config.use_structure_recon;
      vp.separate_struct =
          config.use_structure_recon &&
          view->kind() == ReconstructionView::Kind::kOriginal;
      // Attr chains double as the shared structure encoder for non-original
      // views; they are not built at all when nothing reads them (the
      // structure-only pipeline on the original view).
      const bool need_attr_chains =
          vp.attr_used || (vp.struct_used && !vp.separate_struct);
      for (int r = 0; r < impl.r_count; ++r) {
        if (need_attr_chains) {
          vp.attr_chains.push_back(
              BuildChain(view->attr_gmae(r), /*with_decoder=*/vp.attr_used));
        }
        if (vp.separate_struct) {
          vp.struct_chains.push_back(
              BuildChain(*view->struct_gmae(r), /*with_decoder=*/false));
        }
      }
      if (vp.attr_used) {
        vp.fusion_w = SoftmaxWeights(view->fusion_a().logits_value());
      }
      impl.plans.push_back(std::move(vp));
    }
  }

  impl.s_norm.assign(impl.r_count, NodeSet(impl.n));
  impl.endpoints.assign(impl.r_count, NodeSet(impl.n));
  impl.front = NodeSet(impl.n);
  impl.rescore = NodeSet(impl.n);
  impl.moved = NodeSet(impl.n);
  impl.state = impl.MakeEmptyState();
  impl.FullCompute(&impl.state, /*parallel=*/true);
  return scorer;
}

std::vector<double> OnlineScorer::scores() const {
  if (impl_->component_only) return {};
  return ScoreAllNodes(impl_->Columns(impl_->state), impl_->config.epsilon,
                       impl_->n);
}

Result<std::vector<double>> OnlineScorer::Query(
    const std::vector<int>& nodes) const {
  if (impl_->component_only) {
    return Status::FailedPrecondition(
        "owner-masked scorer has no combined scores; query the ShardRouter");
  }
  for (int node : nodes) {
    if (node < 0 || node >= impl_->n) {
      return Status::OutOfRange("query node out of range");
    }
  }
  const std::vector<ViewColumns> columns = impl_->Columns(impl_->state);
  const float epsilon = impl_->config.epsilon;
  std::vector<double> out(nodes.size(), 0.0);
  ParallelFor(static_cast<int64_t>(nodes.size()), 256,
              [&](int64_t b, int64_t e) {
                for (int64_t k = b; k < e; ++k) {
                  out[k] = ScoreNode(columns, epsilon, nodes[k]);
                }
              });
  return out;
}

Status OnlineScorer::ApplyEdgeUpdate(const EdgeUpdate& update) {
  return impl_->ApplyBatch({update}, &stats_);
}

Status OnlineScorer::ApplyEdgeUpdates(const std::vector<EdgeUpdate>& updates) {
  return impl_->ApplyBatch(updates, &stats_);
}

std::vector<double> OnlineScorer::RescoreFullNaive() const {
  if (impl_->component_only) return {};
  EngineState scratch = impl_->MakeEmptyState();
  impl_->FullCompute(&scratch, /*parallel=*/false);
  const std::vector<ViewColumns> columns = impl_->Columns(scratch);
  std::vector<double> out(impl_->n);
  for (int i = 0; i < impl_->n; ++i) {
    out[i] = ScoreNode(columns, impl_->config.epsilon, i);
  }
  return out;
}

MultiplexGraph OnlineScorer::SnapshotGraph() const {
  std::vector<SparseMatrix> layers;
  layers.reserve(impl_->r_count);
  for (int r = 0; r < impl_->r_count; ++r) {
    layers.push_back(impl_->adj[r].ToSparse());
  }
  Result<MultiplexGraph> g =
      MultiplexGraph::Create(impl_->name, impl_->x, std::move(layers),
                             impl_->relation_names, impl_->labels);
  UMGAD_CHECK(g.ok());
  return std::move(g).value();
}

std::vector<ViewComponents> OnlineScorer::Components() const {
  std::vector<ViewComponents> out;
  out.reserve(impl_->plans.size());
  for (size_t v = 0; v < impl_->plans.size(); ++v) {
    ViewComponents vc;
    vc.attr_used = impl_->plans[v].attr_used;
    vc.struct_used = impl_->plans[v].struct_used;
    if (vc.attr_used) vc.attr_val = &impl_->state.views[v].attr_val;
    if (vc.struct_used) vc.residual = &impl_->state.views[v].residual;
    out.push_back(vc);
  }
  return out;
}

std::vector<ViewMoments> OnlineScorer::Moments() const {
  std::vector<ViewMoments> out;
  out.reserve(impl_->state.views.size());
  for (const ViewState& vs : impl_->state.views) out.push_back(vs.moments);
  return out;
}

bool OnlineScorer::component_only() const { return impl_->component_only; }

int OnlineScorer::num_nodes() const { return impl_->n; }
int OnlineScorer::num_relations() const { return impl_->r_count; }

}  // namespace serve
}  // namespace umgad
