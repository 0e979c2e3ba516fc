#include "serve/online_scorer.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <utility>

#include "common/span.h"
#include "common/thread_pool.h"
#include "core/scorer.h"
#include "core/views.h"
#include "nn/gcn.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace umgad {
namespace serve {
namespace {

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

/// Runs fn(i) for every node i < n, chunked across the pool when `parallel`.
template <typename Fn>
void ForEachNode(int n, bool parallel, Fn&& fn) {
  if (parallel) {
    ParallelFor(n, 8, [&](int64_t b, int64_t e) {
      for (int i = static_cast<int>(b); i < e; ++i) fn(i);
    });
  } else {
    for (int i = 0; i < n; ++i) fn(i);
  }
}

// ---------------------------------------------------------------------------
// Stage pipeline: each GMAE encoder/decoder unrolls into a list of per-row
// stages. A stage's row i is a pure function of the previous stage's rows
// (its own row for kProject/kBiasAct, the normalised-operator row pattern
// for kSpmm/kGatAttend), so the rows an update dirties can be recomputed
// stage by stage, in any order within a stage, to the full pass's bits.
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
  std::vector<float> fusion_w;           // ag::SimplexWeights of the fusion
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

/// Visits the columns of row i of the normalised operator's pattern (the
/// neighbours plus the self loop, ascending) — the GAT attention support.
template <typename Fn>
void ForEachAttendCol(const DynamicAdjacency& a, int i, Fn&& fn) {
  bool self_done = false;
  for (int col : a.neighbors(i)) {
    if (!self_done && col > i) {
      fn(i);
      self_done = true;
    }
    fn(col);
  }
  if (!self_done) fn(i);
}

struct StageState {
  Tensor cache;  // n x out_dim
  // kGatAttend only: the per-node attention logits <a_src, h_i>, <a_dst,
  // h_i> over the previous stage's rows, recomputed when that row changes.
  std::vector<double> s, t;
};

struct ChainState {
  std::vector<StageState> stages;
};

/// One (view, relation)'s structure-residual terms, kept so an update
/// recomputes only the terms whose inputs changed. Owned node i has slab
/// row slab_row[i] (see Impl): its count[row] negatives, in draw order, and
/// their leak terms in slots [row * k, row * k + count[row]) of `neg` and
/// `leak` (k = num_score_negatives), and edge_err[row], the EdgeError over
/// its neighbours. Every cached term equals the one a fresh
/// NodeResidualTerms would compute, so the residual re-summed from them
/// does too.
///
/// The filled slots whose negative is u form a chain, head[u] -> next[s]
/// -> ... -> -1, so an update finds the nodes that drew a moved embedding
/// row without a per-node list.
struct ResidualSlots {
  std::vector<int> neg;
  std::vector<double> leak;
  std::vector<int> next;
  std::vector<int> count;
  std::vector<double> edge_err;
  std::vector<int> head;  // per node u

  void Link(int slot) {
    next[slot] = head[neg[slot]];
    head[neg[slot]] = slot;
  }
  void Unlink(int slot) {
    int* at = &head[neg[slot]];
    while (*at != slot) at = &next[*at];
    *at = next[slot];
  }
};

struct ViewState {
  std::vector<ChainState> attr_chains;
  std::vector<ChainState> struct_chains;
  std::vector<double> attr_val;               // per node
  std::vector<std::vector<double>> residual;  // [rel][node]
  std::vector<double> structure;  // per node: RelationMean of residual
  ViewMoments moments;            // of attr_val and structure, owned nodes
  // [rel]; the live state only. RescoreFullNaive's scratch state has none
  // and scores every residual afresh through NodeResidualTerms.
  std::vector<ResidualSlots> slots;
};

struct EngineState {
  std::vector<ViewState> views;
};

/// The dirty fronts one update sweep recomputed in a chain.
struct ChainDirty {
  std::vector<int> embed;  // rows of the embed stage
  std::vector<int> final;  // rows of the last stage
  int64_t rows = 0;        // rows over every stage

  /// Empties the fronts and keeps their buffers for the next update.
  void Clear() {
    embed.clear();
    final.clear();
    rows = 0;
  }
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
  bool Has(int i) const { return mark_[i] != 0; }
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
  // Owned node -> its row in every ResidualSlots slab (owned nodes in
  // ascending order), -1 for the rest; and row -> node.
  std::vector<int> slab_row;
  std::vector<int> slab_node;
  int slots_per_row = 0;  // num_score_negatives (0 when negative)
  EngineState state;
  // ApplyBatch's dirty sets and fronts, sized once and cleared per call,
  // so an update allocates nothing once their buffers have grown:
  // s_norm/endpoints per relation (see ApplyBatch), the swept chains'
  // fronts per [view][relation] (`attr_dirty`, `struct_dirty`), `front`,
  // `sweep_cur` and `sweep_next` for the stages of one update sweep (only
  // ApplyBatch's sweeps touch them), `embed_moved` for the embedding rows one
  // (view, relation)'s sweep changed, `rescore` for that pair's residuals,
  // `moved` for one view's changed columns, and `changed` for the owned
  // nodes any view re-scored since TakeChangedNodes (sized only when
  // component_only; the flat scorer records nothing).
  std::vector<NodeSet> s_norm;
  std::vector<NodeSet> endpoints;
  std::vector<std::vector<ChainDirty>> attr_dirty;
  std::vector<std::vector<ChainDirty>> struct_dirty;
  mutable NodeSet front;
  mutable std::vector<int> sweep_cur;
  mutable std::vector<int> sweep_next;
  NodeSet embed_moved;
  NodeSet rescore;
  NodeSet moved;
  NodeSet changed;

  bool Owned(int i) const { return owned.empty() || owned[i] != 0; }

  EngineState MakeEmptyState(bool with_slots) const;
  void ComputeST(const ChainPlan& plan, ChainState& cs, int stage,
                 int i) const;
  void ComputeStageRow(const ChainPlan& plan, ChainState& cs, int stage,
                       int rel, int i) const;
  void SweepChain(const ChainPlan& plan, ChainState& cs, int rel,
                  bool parallel, ChainDirty* dirty) const;
  void DrawNegatives(int view, int rel, int node,
                     std::vector<int>* out) const;
  const Tensor& StructEmbedding(const EngineState& st, int view,
                                int rel) const;
  void DrawSlots(ResidualSlots& rs, int view, int rel, int i,
                 bool relink) const;
  int64_t UpdateResidualNode(ViewState& vs, const Tensor& z, int rel, int i,
                             bool all_terms) const;
  void ComputeAttrValNode(EngineState& st, int view, int i) const;
  ViewComponents ComponentsOf(const EngineState& st, size_t v) const;
  void BuildMoments(EngineState* st) const;
  std::vector<ViewColumns> Columns(const EngineState& st) const;
  void FullCompute(EngineState* st, bool parallel) const;
  Status ApplyBatch(ConstSpan<EdgeUpdate> updates, ServeStats* stats);
};

EngineState OnlineScorer::Impl::MakeEmptyState(bool with_slots) const {
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
          if (sp.kind == StageKind::kGatAttend) {
            ss.s.assign(n, 0.0);
            ss.t.assign(n, 0.0);
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
      if (with_slots) {
        const size_t rows = slab_node.size();
        vs.slots.resize(r_count);
        for (ResidualSlots& rs : vs.slots) {
          rs.neg.assign(rows * slots_per_row, 0);
          rs.leak.assign(rows * slots_per_row, 0.0);
          rs.next.assign(rows * slots_per_row, -1);
          rs.count.assign(rows, 0);
          rs.edge_err.assign(rows, 0.0);
          rs.head.assign(n, -1);
        }
      }
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
  ag::AttentionLogits(h.row(i), h.cols(), sp.a_src, sp.a_dst, &ss.s[i],
                      &ss.t[i]);
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
    case StageKind::kProject:
      MatMulNaiveRow(prev.row(i), sp.weight, out);
      break;
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
      thread_local std::vector<int> cols;
      thread_local std::vector<float> alpha;
      cols.clear();
      ForEachAttendCol(adj[rel], i, [&](int col) { cols.push_back(col); });
      alpha.resize(cols.size());
      ag::EdgeSoftmaxRow(ss.s[i], ss.t.data(), cols.data(),
                         static_cast<int64_t>(cols.size()), sp.slope, prev,
                         alpha.data(), nullptr, out);
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
}

void OnlineScorer::Impl::SweepChain(const ChainPlan& plan, ChainState& cs,
                                    int rel, bool parallel,
                                    ChainDirty* dirty) const {
  // The one code path that computes stage rows, a stage at a time so every
  // row reads only finished rows of the previous stage. With dirty ==
  // nullptr it computes every row (across the pool when `parallel`).
  // Otherwise it recomputes, serially, the rows an update of relation `rel`
  // dirtied (s_norm/endpoints, see ApplyBatch): each stage's front is grown
  // in `front` from the previous stage's and recorded in *dirty.
  const DynamicAdjacency& a = adj[rel];
  auto for_rows = [&](const std::vector<int>& rows, auto&& fn) {
    if (dirty == nullptr) {
      ForEachNode(n, parallel, fn);
    } else {
      for (int i : rows) fn(i);
    }
  };
  std::vector<int>& cur = sweep_cur;  // the previous stage's dirty rows
  std::vector<int>& next = sweep_next;
  if (dirty != nullptr) {
    cur.clear();
    next.clear();
  }
  for (int s = 0; s < static_cast<int>(plan.stages.size()); ++s) {
    const StageKind kind = plan.stages[s].kind;
    if (dirty != nullptr) {
      if (kind == StageKind::kProject || kind == StageKind::kBiasAct) {
        next = cur;  // reads its own row
      } else {
        // A propagation row reads its operator row, so the front widens one
        // hop around the previous stage's. A kSpmm row also changes when
        // its normalised entries moved; a kGatAttend row when its
        // attention support (the pattern) moved, i.e. at the endpoints.
        front.Clear();
        for (int i : kind == StageKind::kSpmm ? s_norm[rel].items()
                                              : endpoints[rel].items()) {
          front.Add(i);
        }
        for (int d : cur) {
          front.Add(d);
          for (int j : a.neighbors(d)) front.Add(j);
        }
        next = front.items();
      }
    }
    if (kind == StageKind::kGatAttend) {
      // A node's s/t follow its own projection row.
      for_rows(cur, [&](int i) { ComputeST(plan, cs, s, i); });
    }
    for_rows(next, [&](int i) { ComputeStageRow(plan, cs, s, rel, i); });
    if (dirty != nullptr) {
      dirty->rows += static_cast<int64_t>(next.size());
      if (s == plan.embed_stage) dirty->embed = next;
      cur.swap(next);
    }
  }
  if (dirty != nullptr) dirty->final.swap(cur);
}

void OnlineScorer::Impl::DrawNegatives(int view, int rel, int node,
                                       std::vector<int>* out) const {
  // StructureResidual's draw for this node, against the current row.
  NodeNegatives(adj[rel], node, adj[rel].degree(node),
                config.num_score_negatives,
                NegativeStreamSeed(stream_base, view, rel), out);
}

const Tensor& OnlineScorer::Impl::StructEmbedding(const EngineState& st,
                                                  int view, int rel) const {
  // The embed stage of the view's own structure chain (kOriginal) or of
  // the shared attribute chain.
  const ViewPlan& vp = plans[view];
  const ViewState& vs = st.views[view];
  const ChainPlan& plan =
      vp.separate_struct ? vp.struct_chains[rel] : vp.attr_chains[rel];
  const ChainState& chain =
      vp.separate_struct ? vs.struct_chains[rel] : vs.attr_chains[rel];
  return chain.stages[plan.embed_stage].cache;
}

void OnlineScorer::Impl::DrawSlots(ResidualSlots& rs, int view, int rel,
                                   int i, bool relink) const {
  // Draws i's negatives into its slab row. With `relink` (serial callers
  // only) each slot whose negative changed also moves to its new chain; a
  // redraw after an update repeats the old draw unless a candidate hits
  // the changed part of the row, so usually none moves.
  thread_local std::vector<int> drawn;
  DrawNegatives(view, rel, i, &drawn);
  const int row = slab_row[i];
  const int first = row * slots_per_row;
  const int old_count = relink ? rs.count[row] : 0;
  const int new_count = static_cast<int>(drawn.size());
  for (int k = 0; k < std::max(old_count, new_count); ++k) {
    const int slot = first + k;
    if (k < old_count) {
      if (k < new_count && rs.neg[slot] == drawn[k]) continue;
      rs.Unlink(slot);
    }
    if (k < new_count) {
      rs.neg[slot] = drawn[k];
      if (relink) rs.Link(slot);
    }
  }
  rs.count[row] = new_count;
}

int64_t OnlineScorer::Impl::UpdateResidualNode(ViewState& vs, const Tensor& z,
                                               int rel, int i,
                                               bool all_terms) const {
  // Recomputes owned node i's cached terms — all of them when `all_terms`,
  // else the edge terms when a neighbour's embedding row moved and each
  // leak slot whose negative's row moved (embed_moved) — then re-sums its
  // residual. Returns the number of terms recomputed.
  ResidualSlots& rs = vs.slots[rel];
  const int row = slab_row[i];
  const std::vector<int>& neighbors = adj[rel].neighbors(i);
  const int degree = static_cast<int>(neighbors.size());
  const int* neg = rs.neg.data() + row * slots_per_row;
  double* leak = rs.leak.data() + row * slots_per_row;
  const int count = rs.count[row];
  int64_t terms = 0;
  if (all_terms || std::any_of(neighbors.begin(), neighbors.end(),
                               [&](int j) { return embed_moved.Has(j); })) {
    rs.edge_err[row] = EdgeError(z, i, neighbors.data(), degree);
    terms += degree;
  }
  if (all_terms) {
    LeakTerms(z, i, neg, count, leak);
    terms += count;
  } else {
    for (int k = 0; k < count; ++k) {
      if (embed_moved.Has(neg[k])) {
        leak[k] = LeakTerm(z, i, neg[k]);
        ++terms;
      }
    }
  }
  const ResidualTerms sum{rs.edge_err[row], degree,
                          MeanLeak(count, [&](int k) { return leak[k]; })};
  vs.residual[rel][i] = sum.Normalized();
  return terms;
}

void OnlineScorer::Impl::ComputeAttrValNode(EngineState& st, int view,
                                            int i) const {
  const ViewPlan& vp = plans[view];
  ViewState& vs = st.views[view];
  const int f = x.cols();
  // SimplexWeightedSum's accumulation (zero, then += w_r * row_r ascending)
  // followed by one row of RowL2Distance against the raw attributes.
  thread_local std::vector<float> fused;
  fused.assign(f, 0.0f);
  for (int r = 0; r < r_count; ++r) {
    const float w = vp.fusion_w[r];
    const float* row = vs.attr_chains[r].stages.back().cache.row(i);
    for (int j = 0; j < f; ++j) fused[j] += w * row[j];
  }
  vs.attr_val[i] = RowL2DistanceOf(fused.data(), x.row(i), f);
}

ViewComponents OnlineScorer::Impl::ComponentsOf(const EngineState& st,
                                                size_t v) const {
  ViewComponents vc;
  vc.attr_used = plans[v].attr_used;
  vc.struct_used = plans[v].struct_used;
  if (vc.attr_used) vc.attr_val = &st.views[v].attr_val;
  if (vc.struct_used) vc.residual = &st.views[v].residual;
  return vc;
}

void OnlineScorer::Impl::BuildMoments(EngineState* st) const {
  // From scratch over the owned nodes: the relation means and both
  // columns' moments.
  for (size_t v = 0; v < plans.size(); ++v) {
    ViewState& vs = st->views[v];
    vs.moments = BuildColumns(ComponentsOf(*st, v), n, owned,
                              vs.structure.data());
  }
}

std::vector<ViewColumns> OnlineScorer::Impl::Columns(
    const EngineState& st) const {
  std::vector<ViewColumns> columns(plans.size());
  for (size_t v = 0; v < plans.size(); ++v) {
    const ViewState& vs = st.views[v];
    columns[v] =
        MakeColumns(plans[v].attr_used ? vs.attr_val.data() : nullptr,
                    plans[v].struct_used ? vs.structure.data() : nullptr,
                    vs.moments);
  }
  return columns;
}

void OnlineScorer::Impl::FullCompute(EngineState* st, bool parallel) const {
  // Every stage row, then every owned node's components. With parallel ==
  // false the identical kernels run in one serial sweep (RescoreFullNaive).
  // The moments are exact, so their chunked sum equals a serial one.
  auto for_rows = [&](auto&& fn) { ForEachNode(n, parallel, fn); };
  for (size_t v = 0; v < plans.size(); ++v) {
    const ViewPlan& vp = plans[v];
    ViewState& vs = st->views[v];
    for (int r = 0; r < static_cast<int>(vp.attr_chains.size()); ++r) {
      SweepChain(vp.attr_chains[r], vs.attr_chains[r], r, parallel, nullptr);
    }
    for (int r = 0; r < static_cast<int>(vp.struct_chains.size()); ++r) {
      SweepChain(vp.struct_chains[r], vs.struct_chains[r], r, parallel,
                 nullptr);
    }
    // Per-node score components only exist for owned nodes: each node's
    // negative stream and component are independent of every other node's,
    // so the owned slice of a masked shard is bit-identical to the same
    // slice of an unmasked scorer.
    if (vp.struct_used) {
      for (int r = 0; r < r_count; ++r) {
        const Tensor& z = StructEmbedding(*st, static_cast<int>(v), r);
        if (vs.slots.empty()) {
          for_rows([&](int i) {
            if (!Owned(i)) return;
            thread_local std::vector<int> negatives;
            DrawNegatives(static_cast<int>(v), r, i, &negatives);
            const std::vector<int>& neighbors = adj[r].neighbors(i);
            vs.residual[r][i] =
                NodeResidualTerms(z, i, neighbors.data(),
                                  static_cast<int>(neighbors.size()),
                                  negatives)
                    .Normalized();
          });
          continue;
        }
        ResidualSlots& rs = vs.slots[r];
        for_rows([&](int i) {
          if (!Owned(i)) return;
          DrawSlots(rs, static_cast<int>(v), r, i, /*relink=*/false);
          UpdateResidualNode(vs, z, r, i, /*all_terms=*/true);
        });
        for (int row = 0; row < static_cast<int>(slab_node.size()); ++row) {
          const int first = row * slots_per_row;
          for (int s = first; s < first + rs.count[row]; ++s) rs.Link(s);
        }
      }
    }
    if (vp.attr_used) {
      for_rows([&](int i) {
        if (!Owned(i)) return;
        ComputeAttrValNode(*st, static_cast<int>(v), i);
      });
    }
  }
  BuildMoments(st);
}

Status OnlineScorer::Impl::ApplyBatch(ConstSpan<EdgeUpdate> updates,
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

  // Phase B.1 — recompute the dirty stage rows of every updated relation's
  // chains (all views). Every chain is swept before any component is
  // re-scored, because ComputeAttrValNode fuses all relations' chains.
  int64_t dirty_rows = 0;
  int64_t rescored = 0;
  int64_t residual_terms = 0;
  for (size_t w = 0; w < plans.size(); ++w) {
    for (int rel = 0; rel < r_count; ++rel) {
      attr_dirty[w][rel].Clear();
      struct_dirty[w][rel].Clear();
    }
  }
  for (size_t w = 0; w < plans.size(); ++w) {
    const ViewPlan& vp = plans[w];
    ViewState& vs = state.views[w];
    for (int rel = 0; rel < r_count; ++rel) {
      if (endpoints[rel].items().empty()) continue;
      if (!vp.attr_chains.empty()) {
        ChainDirty& dirty = attr_dirty[w][rel];
        SweepChain(vp.attr_chains[rel], vs.attr_chains[rel], rel,
                   /*parallel=*/false, &dirty);
        dirty_rows += dirty.rows;
      }
      if (vp.separate_struct) {
        ChainDirty& dirty = struct_dirty[w][rel];
        SweepChain(vp.struct_chains[rel], vs.struct_chains[rel], rel,
                   /*parallel=*/false, &dirty);
        dirty_rows += dirty.rows;
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
        ResidualSlots& rs = vs.slots[rel];
        // The endpoints' own adjacency rows changed, so their negative
        // draws re-run against the new rows (clean nodes' draws are
        // unaffected — each stream only rejects against its own row, and
        // each stream is stateless, so one redraw against the final row
        // matches replaying every intermediate redraw). Non-owned
        // endpoints carry no stream (their component lives on another
        // shard), so there is nothing to redraw.
        for (int node : ends) {
          if (Owned(node)) {
            DrawSlots(rs, static_cast<int>(w), rel, node, /*relink=*/true);
          }
        }
        // Residuals to recompute: the endpoints (adjacency row + negatives
        // changed) and nodes with a dirty embedding, all of whose terms
        // change; their neighbours, whose edge terms read a dirty
        // embedding; and nodes whose negatives include a dirty-embedding
        // node, whose leak slots for it change.
        embed_moved.Clear();
        rescore.Clear();
        for (int node : ends) rescore.Add(node);
        for (int d : embed_dirty) {
          embed_moved.Add(d);
          rescore.Add(d);
          for (int j : a.neighbors(d)) rescore.Add(j);
          for (int s = rs.head[d]; s >= 0; s = rs.next[s]) {
            rescore.Add(slab_node[s / slots_per_row]);
          }
        }
        const Tensor& z = StructEmbedding(state, static_cast<int>(w), rel);
        for (int i : rescore.items()) {
          if (!Owned(i)) continue;
          residual_terms += UpdateResidualNode(
              vs, z, rel, i, endpoints[rel].Has(i) || embed_moved.Has(i));
          moved.Add(i);
          ++rescored;
        }
      }
      for (int i : moved.items()) {
        vs.moments.structure.Remove(vs.structure[i]);
        vs.structure[i] = RelationMean(vs.residual, i);
        vs.moments.structure.Add(vs.structure[i]);
        if (component_only) changed.Add(i);
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
        ComputeAttrValNode(state, static_cast<int>(w), i);
        vs.moments.attr.Add(vs.attr_val[i]);
        if (component_only) changed.Add(i);
        ++rescored;
      }
    }
  }

  stats->updates_applied += static_cast<int64_t>(updates.size());
  stats->last_dirty_rows = dirty_rows;
  stats->last_rescored_nodes = rescored;
  stats->last_residual_terms = residual_terms;
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
        vp.fusion_w = ag::SimplexWeights(view->fusion_a().logits_value());
      }
      impl.plans.push_back(std::move(vp));
    }
  }

  impl.slab_row.assign(impl.n, -1);
  for (int i = 0; i < impl.n; ++i) {
    if (!impl.Owned(i)) continue;
    impl.slab_row[i] = static_cast<int>(impl.slab_node.size());
    impl.slab_node.push_back(i);
  }
  impl.slots_per_row = std::max(config.num_score_negatives, 0);
  if (static_cast<int64_t>(impl.slab_node.size()) * impl.slots_per_row >
      std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        "num_score_negatives x owned nodes exceeds the residual slab");
  }
  impl.s_norm.assign(impl.r_count, NodeSet(impl.n));
  impl.endpoints.assign(impl.r_count, NodeSet(impl.n));
  impl.attr_dirty.assign(impl.plans.size(),
                         std::vector<ChainDirty>(impl.r_count));
  impl.struct_dirty = impl.attr_dirty;
  impl.front = NodeSet(impl.n);
  impl.embed_moved = NodeSet(impl.n);
  impl.rescore = NodeSet(impl.n);
  impl.moved = NodeSet(impl.n);
  if (impl.component_only) impl.changed = NodeSet(impl.n);
  impl.state = impl.MakeEmptyState(/*with_slots=*/true);
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
  return impl_->ApplyBatch(ConstSpan<EdgeUpdate>(&update, 1), &stats_);
}

Status OnlineScorer::ApplyEdgeUpdates(const std::vector<EdgeUpdate>& updates) {
  return impl_->ApplyBatch(updates, &stats_);
}

std::vector<double> OnlineScorer::RescoreFullNaive() const {
  if (impl_->component_only) return {};
  EngineState scratch = impl_->MakeEmptyState(/*with_slots=*/false);
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
    out.push_back(impl_->ComponentsOf(impl_->state, v));
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

std::vector<int> OnlineScorer::TakeChangedNodes() {
  std::vector<int> out = impl_->changed.items();
  impl_->changed.Clear();
  return out;
}

int OnlineScorer::num_nodes() const { return impl_->n; }
int OnlineScorer::num_relations() const { return impl_->r_count; }

}  // namespace serve
}  // namespace umgad
