#include "baselines/detector.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "baselines/common.h"
#include "graph/random_walk.h"
#include "common/string_util.h"
#include "core/scorer.h"
#include "core/umgad.h"
#include "nn/gcn.h"
#include "nn/optimizer.h"

namespace umgad {

namespace baselines {

void BaselineBase::Train(std::vector<ag::VarPtr> params, int epochs,
                         const std::function<ag::VarPtr()>& loss) {
  nn::Adam opt(std::move(params), kBaselineLr);
  WallTimer timer;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    ag::Tape::Global().Reset();
    opt.ZeroGrad();
    ag::Backward(loss());
    opt.Step();
    ++epochs_run_;
  }
  train_seconds_ += timer.ElapsedSeconds();
}

std::vector<double> BaselineBase::AutoencoderResidual(
    std::shared_ptr<const SparseMatrix> op, const Tensor& x, int epochs) {
  nn::SgcConv enc(x.cols(), kBaselineHidden, 1, nn::Activation::kRelu, &rng_);
  nn::SgcConv dec(kBaselineHidden, x.cols(), 1, nn::Activation::kNone,
                  &rng_);
  ag::VarPtr recon;
  Train(ParametersOf({&enc, &dec}), epochs, [&] {
    recon = ag::Retain(dec.Forward(op, enc.Forward(op, ag::Constant(x))));
    return ag::MseLoss(recon, x);
  });
  return RowL2(recon->value(), x);
}

std::vector<ag::VarPtr> ParametersOf(
    std::initializer_list<const nn::Module*> modules) {
  std::vector<ag::VarPtr> params;
  for (const nn::Module* m : modules) {
    for (const ag::VarPtr& p : m->Parameters()) params.push_back(p);
  }
  return params;
}

SingleView::SingleView(const MultiplexGraph& graph)
    : n(graph.num_nodes()), f(graph.feature_dim()) {
  adj = FlattenToSingleView(graph);
  norm = std::make_shared<const SparseMatrix>(adj.NormalizedWithSelfLoops());
  row_norm = std::make_shared<const SparseMatrix>(adj.RowNormalized());
}

std::vector<std::shared_ptr<const SparseMatrix>> RelationOperators(
    const MultiplexGraph& graph) {
  std::vector<std::shared_ptr<const SparseMatrix>> ops;
  for (int r = 0; r < graph.num_relations(); ++r) {
    ops.push_back(std::make_shared<const SparseMatrix>(
        graph.layer(r).NormalizedWithSelfLoops()));
  }
  return ops;
}

double RowPairCosine(const Tensor& t, int i, int j) {
  const double denom = t.RowNorm(i) * t.RowNorm(j);
  return denom > 1e-12 ? t.RowDot(i, t, j) / denom : 0.0;
}

std::vector<Edge> LowestAffinityEdges(const std::vector<Edge>& edges,
                                      const std::vector<double>& affinity,
                                      double fraction) {
  std::vector<int> order(edges.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return affinity[a] < affinity[b]; });
  std::vector<Edge> lowest(static_cast<int>(edges.size() * fraction));
  for (size_t k = 0; k < lowest.size(); ++k) lowest[k] = edges[order[k]];
  return lowest;
}

Tensor NeighborMean(const SingleView& view, const Tensor& x) {
  return view.row_norm->Multiply(x);
}

std::vector<double> RowCosineDistance(const Tensor& x, const Tensor& y) {
  Tensor cos = RowCosine(x, y);
  std::vector<double> out(x.rows());
  for (int i = 0; i < x.rows(); ++i) out[i] = 1.0 - cos.at(i, 0);
  return out;
}

std::vector<double> RowL2(const Tensor& x, const Tensor& y) {
  Tensor dist = RowL2Distance(x, y);
  std::vector<double> out(x.rows());
  for (int i = 0; i < x.rows(); ++i) out[i] = dist.at(i, 0);
  return out;
}

std::vector<double> CombineStandardized(
    const std::vector<std::vector<double>>& parts,
    const std::vector<double>& weights) {
  UMGAD_CHECK_EQ(parts.size(), weights.size());
  UMGAD_CHECK(!parts.empty());
  std::vector<double> out(parts[0].size(), 0.0);
  for (size_t p = 0; p < parts.size(); ++p) {
    std::vector<double> z = Standardize(parts[p]);
    UMGAD_CHECK_EQ(z.size(), out.size());
    for (size_t i = 0; i < out.size(); ++i) out[i] += weights[p] * z[i];
  }
  return out;
}

std::shared_ptr<const SparseMatrix> BuildContextOperator(
    int n, const std::vector<std::vector<int>>& sets) {
  std::vector<int> rows;
  std::vector<int> cols;
  std::vector<float> vals;
  for (size_t i = 0; i < sets.size(); ++i) {
    UMGAD_CHECK(!sets[i].empty());
    const float w = 1.0f / static_cast<float>(sets[i].size());
    for (int v : sets[i]) {
      rows.push_back(static_cast<int>(i));
      cols.push_back(v);
      vals.push_back(w);
    }
  }
  return std::make_shared<const SparseMatrix>(SparseMatrix::FromCoo(
      static_cast<int>(sets.size()), n, rows, cols, vals));
}

std::vector<double> RowDotSigmoid(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.rows(), b.rows());
  std::vector<double> out(a.rows());
  for (int i = 0; i < a.rows(); ++i) {
    out[i] = 1.0 / (1.0 + std::exp(-a.RowDot(i, b, i)));
  }
  return out;
}

std::vector<int> SampleBatch(int n, int count, Rng* rng) {
  return rng->SampleWithoutReplacement(n, std::min(n, count));
}

std::vector<std::vector<int>> RwrContexts(const SparseMatrix& adj,
                                          const std::vector<int>& seeds,
                                          int size, Rng* rng) {
  RwrConfig config;
  config.target_size = size + 1;  // room for dropping the seed
  std::vector<std::vector<int>> contexts;
  contexts.reserve(seeds.size());
  for (int s : seeds) {
    std::vector<int> sub = SampleRwrSubgraph(adj, s, config, rng);
    if (sub.size() > 1) {
      sub.erase(sub.begin());  // the walk starts at the seed
    }
    contexts.push_back(std::move(sub));
  }
  return contexts;
}

std::shared_ptr<const SparseMatrix> RwrContextOperator(
    const SparseMatrix& adj, const std::vector<int>& seeds, int size,
    Rng* rng) {
  return BuildContextOperator(adj.rows(), RwrContexts(adj, seeds, size, rng));
}

std::vector<ag::VarPtr> ContrastTerms(const ag::VarPtr& anchor,
                                      const ag::VarPtr& ctx,
                                      const std::vector<int>& perm) {
  std::vector<ag::VarPtr> terms;
  terms.push_back(ag::PairDotBceLoss(
      anchor, ctx, std::vector<float>(perm.size(), 1.0f)));
  terms.push_back(ag::PairDotBceLoss(anchor, ag::GatherRows(ctx, perm),
                                     std::vector<float>(perm.size(), 0.0f)));
  return terms;
}

std::vector<double> DiscriminationGap(const Tensor& h, const Tensor& ctx,
                                      Rng* rng) {
  std::vector<double> gap = RowDotSigmoid(h, ctx);
  std::vector<double> neg =
      RowDotSigmoid(h, GatherRows(ctx, rng->Permutation(h.rows())));
  for (size_t i = 0; i < gap.size(); ++i) gap[i] = neg[i] - gap[i];
  return gap;
}

std::vector<double> RwrContextGap(const SparseMatrix& adj, const Tensor& h,
                                  int size, int rounds, Rng* rng) {
  const std::vector<int> all = AllNodes(adj.rows());
  std::vector<double> gap(adj.rows(), 0.0);
  for (int round = 0; round < rounds; ++round) {
    Tensor ctx = RwrContextOperator(adj, all, size, rng)->Multiply(h);
    std::vector<double> g = DiscriminationGap(h, ctx, rng);
    for (size_t i = 0; i < gap.size(); ++i) gap[i] += g[i] / rounds;
  }
  return gap;
}

ag::VarPtr GlobalContextBce(const ag::VarPtr& h, const ag::VarPtr& h_bad) {
  const int n = h->value().rows();
  Tensor avg(1, n);
  avg.Fill(1.0f / static_cast<float>(n));
  ag::VarPtr context = ag::MatMul(ag::Constant(std::move(avg)), h);  // 1 x d
  // Broadcast the context to every row so PairDotBceLoss applies.
  ag::VarPtr context_rows = ag::AddRowBroadcast(
      ag::Constant(Tensor(n, h->value().cols())), context);
  return ag::Add(
      ag::PairDotBceLoss(h, context_rows, std::vector<float>(n, 1.0f)),
      ag::PairDotBceLoss(h_bad, context_rows, std::vector<float>(n, 0.0f)));
}

ag::VarPtr SampledEdgeBce(const ag::VarPtr& h, const std::vector<Edge>& edges,
                          Rng* rng) {
  constexpr int kEdgeBatch = 1024;
  const int n = h->value().rows();
  const int batch = std::min<int>(kEdgeBatch, static_cast<int>(edges.size()));
  std::vector<int> pick =
      rng->SampleWithoutReplacement(static_cast<int>(edges.size()), batch);
  std::vector<int> src;
  std::vector<int> dst;
  std::vector<float> labels;
  for (int e : pick) {
    src.push_back(edges[e].src);
    dst.push_back(edges[e].dst);
    labels.push_back(1.0f);
    src.push_back(static_cast<int>(rng->UniformInt(n)));
    dst.push_back(static_cast<int>(rng->UniformInt(n)));
    labels.push_back(0.0f);
  }
  return ag::PairDotBceLoss(ag::GatherRows(h, src), ag::GatherRows(h, dst),
                            labels);
}

// Factory functions implemented by the per-method translation units.
std::unique_ptr<Detector> MakeRadar(uint64_t seed);
std::unique_ptr<Detector> MakeComGa(uint64_t seed);
std::unique_ptr<Detector> MakeRand(uint64_t seed);
std::unique_ptr<Detector> MakeTam(uint64_t seed);
std::unique_ptr<Detector> MakeCoLa(uint64_t seed);
std::unique_ptr<Detector> MakeAnemone(uint64_t seed);
std::unique_ptr<Detector> MakeSubCr(uint64_t seed);
std::unique_ptr<Detector> MakeArise(uint64_t seed);
std::unique_ptr<Detector> MakeSlGad(uint64_t seed);
std::unique_ptr<Detector> MakePrem(uint64_t seed);
std::unique_ptr<Detector> MakeGccad(uint64_t seed);
std::unique_ptr<Detector> MakeGradate(uint64_t seed);
std::unique_ptr<Detector> MakeVgod(uint64_t seed);
std::unique_ptr<Detector> MakeDominant(uint64_t seed);
std::unique_ptr<Detector> MakeGcnae(uint64_t seed);
std::unique_ptr<Detector> MakeAnomalyDae(uint64_t seed);
std::unique_ptr<Detector> MakeAdone(uint64_t seed);
std::unique_ptr<Detector> MakeGadNr(uint64_t seed);
std::unique_ptr<Detector> MakeAdaGad(uint64_t seed);
std::unique_ptr<Detector> MakeGadam(uint64_t seed);
std::unique_ptr<Detector> MakeAnomMan(uint64_t seed);
std::unique_ptr<Detector> MakeDualGad(uint64_t seed);

}  // namespace baselines

namespace {

/// UMGAD behind the common Detector factory.
std::unique_ptr<Detector> MakeUmgadDetector(uint64_t seed) {
  UmgadConfig config;
  config.seed = seed;
  return std::make_unique<UmgadModel>(config);
}

struct Entry {
  DetectorCategory category;
  std::unique_ptr<Detector> (*make)(uint64_t);
};

const std::vector<std::pair<std::string, Entry>>& Registry() {
  using namespace baselines;
  static const auto* kRegistry =
      new std::vector<std::pair<std::string, Entry>>{
          {"Radar", {DetectorCategory::kTraditional, &MakeRadar}},
          {"ComGA", {DetectorCategory::kMpi, &MakeComGa}},
          {"RAND", {DetectorCategory::kMpi, &MakeRand}},
          {"TAM", {DetectorCategory::kMpi, &MakeTam}},
          {"CoLA", {DetectorCategory::kCl, &MakeCoLa}},
          {"ANEMONE", {DetectorCategory::kCl, &MakeAnemone}},
          {"Sub-CR", {DetectorCategory::kCl, &MakeSubCr}},
          {"ARISE", {DetectorCategory::kCl, &MakeArise}},
          {"SL-GAD", {DetectorCategory::kCl, &MakeSlGad}},
          {"PREM", {DetectorCategory::kCl, &MakePrem}},
          {"GCCAD", {DetectorCategory::kCl, &MakeGccad}},
          {"GRADATE", {DetectorCategory::kCl, &MakeGradate}},
          {"VGOD", {DetectorCategory::kCl, &MakeVgod}},
          {"DOMINANT", {DetectorCategory::kGae, &MakeDominant}},
          {"GCNAE", {DetectorCategory::kGae, &MakeGcnae}},
          {"AnomalyDAE", {DetectorCategory::kGae, &MakeAnomalyDae}},
          {"AdONE", {DetectorCategory::kGae, &MakeAdone}},
          {"GAD-NR", {DetectorCategory::kGae, &MakeGadNr}},
          {"ADA-GAD", {DetectorCategory::kGae, &MakeAdaGad}},
          {"GADAM", {DetectorCategory::kGae, &MakeGadam}},
          {"AnomMAN", {DetectorCategory::kMv, &MakeAnomMan}},
          {"DualGAD", {DetectorCategory::kMv, &MakeDualGad}},
          {"UMGAD", {DetectorCategory::kOurs, &MakeUmgadDetector}},
      };
  return *kRegistry;
}

}  // namespace

const char* CategoryName(DetectorCategory category) {
  switch (category) {
    case DetectorCategory::kTraditional:
      return "Trad.";
    case DetectorCategory::kMpi:
      return "MPI";
    case DetectorCategory::kCl:
      return "CL";
    case DetectorCategory::kGae:
      return "GAE";
    case DetectorCategory::kMv:
      return "MV";
    case DetectorCategory::kOurs:
      return "Ours";
  }
  return "?";
}

Result<std::unique_ptr<Detector>> MakeDetector(const std::string& name,
                                               uint64_t seed) {
  for (const auto& [known, entry] : Registry()) {
    if (known == name) return entry.make(seed);
  }
  return Status::NotFound(StrFormat("unknown detector '%s'", name.c_str()));
}

std::vector<std::string> AllDetectorNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const auto& [name, entry] : Registry()) names.push_back(name);
  return names;
}

std::vector<std::string> ScalableDetectorNames() {
  return {"ComGA", "RAND",    "PREM",  "GRADATE", "VGOD",
          "ADA-GAD", "GADAM", "DualGAD", "UMGAD"};
}

DetectorCategory CategoryOf(const std::string& name) {
  for (const auto& [known, entry] : Registry()) {
    if (known == name) return entry.category;
  }
  UMGAD_CHECK_MSG(false, ("unknown detector: " + name).c_str());
  return DetectorCategory::kTraditional;
}

}  // namespace umgad
