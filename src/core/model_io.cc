#include "core/model_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/byte_io.h"
#include "common/string_util.h"
#include "core/scorer.h"
#include "graph/io/io_limits.h"

namespace umgad {

const char kModelExtension[] = "umgm";

namespace {

// "UMGM" little-endian, versioned like the graph container (docs/FORMATS.md).
//
// Config-evolution policy (v2, docs/FORMATS.md):
//  - The config block is length-prefixed. New *optional* config fields are
//    appended to the block and bump only the length — an older server
//    reads the fields it knows and skips the unknown tail (it serves the
//    artifact with the new knobs at their defaults, which is safe exactly
//    when the field is optional).
//  - A field whose misinterpretation would change results (new encoder
//    kind, changed field width, reordered layout, new weight framing)
//    must bump the format version instead. Loaders reject any version
//    above kVersion with a clear "newer than this build" Status rather
//    than misparsing (v1 servers predate the policy and reject v2
//    outright — that hard wall is why the prefix exists from v2 on).
//  - v1 files (fixed 116-byte config, no length prefix) load forever.
constexpr uint32_t kMagic = 0x4D474D55;         // 'U' 'M' 'G' 'M'
constexpr uint32_t kTrailerMagic = 0x444E454D;  // 'M' 'E' 'N' 'D'
constexpr uint32_t kVersion = 2;
// Bytes of the config fields this build knows (the v1 fixed block).
constexpr uint32_t kConfigCoreBytes = 116;
// Sanity cap on a declared config block: a future build appending enough
// optional fields to cross this is lying or corrupt.
constexpr uint32_t kMaxConfigBytes = 1 << 16;

// A model tensor axis never exceeds the feature cap (weights are
// in_dim x out_dim with in_dim <= kMaxFeatures), but hidden_dim is
// user-chosen, so allow headroom; the byte-level bound stays the
// ByteReader's remaining-bytes guard.
constexpr int64_t kMaxTensorDim = 1 << 24;
constexpr int64_t kMaxModelTensors = 1 << 20;
// Caps on config counts that size scoring-time allocations: serving
// unrolls every encoder layer and decoder hop into a cached n x d stage and
// keeps num_score_negatives draws per node and relation, so a corrupt
// count must fail the load instead of reaching those allocations.
constexpr int32_t kMaxLayers = 64;
constexpr int32_t kMaxScoreNegatives = 1024;

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

void WriteConfig(ByteWriter* w, const UmgadConfig& c) {
  w->Pod<uint32_t>(c.encoder == EncoderKind::kGat ? 0u : 1u);
  w->Pod<int32_t>(c.hidden_dim);
  w->Pod<int32_t>(c.encoder_layers);
  w->Pod<int32_t>(c.decoder_layers);
  w->Pod<double>(c.mask_ratio);
  w->Pod<int32_t>(c.mask_repeats);
  w->Pod<int32_t>(c.subgraph_size);
  w->Pod<int32_t>(c.num_subgraphs);
  w->Pod<double>(c.rwr_restart);
  w->Pod<double>(c.attr_swap_ratio);
  w->Pod<float>(c.eta);
  w->Pod<float>(c.alpha);
  w->Pod<float>(c.beta);
  w->Pod<float>(c.lambda);
  w->Pod<float>(c.mu);
  w->Pod<float>(c.theta);
  w->Pod<float>(c.epsilon);
  w->Pod<int32_t>(c.epochs);
  w->Pod<float>(c.learning_rate);
  w->Pod<float>(c.weight_decay);
  w->Pod<int32_t>(c.num_negatives);
  w->Pod<int32_t>(c.num_score_negatives);
  w->Pod<uint64_t>(c.seed);
  const bool bools[8] = {c.use_masking,          c.use_original_view,
                         c.use_attr_augmented_view,
                         c.use_subgraph_augmented_view,
                         c.use_contrastive,      c.use_relation_fusion,
                         c.use_attribute_recon,  c.use_structure_recon};
  for (bool b : bools) w->Pod<uint8_t>(b ? 1 : 0);
}

Status ReadConfig(ByteReader* r, UmgadConfig* c) {
  uint32_t encoder = 0;
  UMGAD_RETURN_IF_ERROR(r->Pod(&encoder, "config.encoder"));
  if (encoder > 1) {
    return Status::InvalidArgument(
        StrFormat("unknown encoder kind %u in model file", encoder));
  }
  c->encoder = encoder == 0 ? EncoderKind::kGat : EncoderKind::kSgc;
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->hidden_dim, "config.hidden_dim"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->encoder_layers, "config.encoder_layers"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->decoder_layers, "config.decoder_layers"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->mask_ratio, "config.mask_ratio"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->mask_repeats, "config.mask_repeats"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->subgraph_size, "config.subgraph_size"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->num_subgraphs, "config.num_subgraphs"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->rwr_restart, "config.rwr_restart"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->attr_swap_ratio, "config.attr_swap_ratio"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->eta, "config.eta"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->alpha, "config.alpha"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->beta, "config.beta"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->lambda, "config.lambda"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->mu, "config.mu"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->theta, "config.theta"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->epsilon, "config.epsilon"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->epochs, "config.epochs"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->learning_rate, "config.learning_rate"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->weight_decay, "config.weight_decay"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->num_negatives, "config.num_negatives"));
  UMGAD_RETURN_IF_ERROR(
      r->Pod(&c->num_score_negatives, "config.num_score_negatives"));
  UMGAD_RETURN_IF_ERROR(r->Pod(&c->seed, "config.seed"));
  if (c->hidden_dim <= 0 || c->hidden_dim > kMaxTensorDim ||
      c->encoder_layers < 0 || c->encoder_layers > kMaxLayers ||
      c->decoder_layers < 0 || c->decoder_layers > kMaxLayers ||
      c->num_score_negatives > kMaxScoreNegatives) {
    return Status::InvalidArgument("corrupt model config dimensions");
  }
  bool* bools[8] = {&c->use_masking,          &c->use_original_view,
                    &c->use_attr_augmented_view,
                    &c->use_subgraph_augmented_view,
                    &c->use_contrastive,      &c->use_relation_fusion,
                    &c->use_attribute_recon,  &c->use_structure_recon};
  for (bool* b : bools) {
    uint8_t raw = 0;
    UMGAD_RETURN_IF_ERROR(r->Pod(&raw, "config.flags"));
    *b = raw != 0;
  }
  return Status::OK();
}

}  // namespace

bool GraphFingerprint::Matches(const GraphFingerprint& other) const {
  return num_nodes == other.num_nodes && feature_dim == other.feature_dim &&
         num_relations == other.num_relations &&
         layer_nnz == other.layer_nnz && content_hash == other.content_hash;
}

GraphFingerprint FingerprintGraph(const MultiplexGraph& graph) {
  GraphFingerprint fp;
  fp.num_nodes = graph.num_nodes();
  fp.feature_dim = graph.feature_dim();
  fp.num_relations = graph.num_relations();
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  const Tensor& x = graph.attributes();
  h = Fnv1a(h, x.data(), static_cast<size_t>(x.size()) * sizeof(float));
  for (int r = 0; r < graph.num_relations(); ++r) {
    const SparseMatrix& layer = graph.layer(r);
    fp.layer_nnz.push_back(layer.nnz());
    h = Fnv1a(h, layer.row_ptr().data(),
              layer.row_ptr().size() * sizeof(int64_t));
    h = Fnv1a(h, layer.col_idx().data(), layer.col_idx().size() * sizeof(int));
    h = Fnv1a(h, layer.values().data(), layer.values().size() * sizeof(float));
  }
  fp.content_hash = h;
  return fp;
}

Result<TrainedModel> TrainedModel::FromFitted(const UmgadModel& model,
                                              const MultiplexGraph& graph) {
  if (model.scores().empty()) {
    return Status::FailedPrecondition(
        "TrainedModel::FromFitted needs a fitted model (call Fit first)");
  }
  TrainedModel out;
  out.config_ = model.config();
  out.fingerprint_ = FingerprintGraph(graph);
  out.rng_state_ = model.scoring_rng_state();
  for (const auto& view : model.ActiveViews()) {
    for (const ag::VarPtr& p : view->Parameters()) {
      out.weights_.push_back(p->value());
    }
  }
  return out;
}

Status TrainedModel::Save(const std::string& path) const {
  UMGAD_RETURN_IF_ERROR(RequireLittleEndianHost());
  ByteWriter w(path);
  w.Pod<uint32_t>(kMagic);
  w.Pod<uint32_t>(kVersion);
  w.Pod<uint32_t>(0);  // flags, reserved
  // v2: the config block is length-prefixed so future optional trailing
  // fields stay readable by this build (see the policy note at the top).
  w.Pod<uint32_t>(kConfigCoreBytes);
  WriteConfig(&w, config_);

  w.Pod<int32_t>(fingerprint_.num_nodes);
  w.Pod<int32_t>(fingerprint_.feature_dim);
  w.Pod<int32_t>(fingerprint_.num_relations);
  for (int64_t nnz : fingerprint_.layer_nnz) w.Pod<int64_t>(nnz);
  w.Pod<uint64_t>(fingerprint_.content_hash);

  for (uint64_t s : rng_state_.s) w.Pod<uint64_t>(s);
  w.Pod<uint8_t>(rng_state_.has_cached_normal ? 1 : 0);
  w.Pod<double>(rng_state_.cached_normal);

  w.Pod<int64_t>(static_cast<int64_t>(weights_.size()));
  for (const Tensor& t : weights_) {
    w.Pod<int32_t>(t.rows());
    w.Pod<int32_t>(t.cols());
    w.Bytes(t.data(), static_cast<size_t>(t.size()) * sizeof(float));
  }
  w.Pod<uint32_t>(kTrailerMagic);
  return w.Commit();
}

Result<TrainedModel> TrainedModel::Load(const std::string& path) {
  UMGAD_RETURN_IF_ERROR(RequireLittleEndianHost());
  Result<std::shared_ptr<const FileImage>> image = FileImage::Read(path);
  if (!image.ok()) return Status::NotFound(image.status().message());
  ByteReader r((*image)->data(), (*image)->size());
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t flags = 0;
  UMGAD_RETURN_IF_ERROR(r.Pod(&magic, "header"));
  if (magic != kMagic) {
    return Status::InvalidArgument(
        StrFormat("%s is not a umgad model file (bad magic)", path.c_str()));
  }
  UMGAD_RETURN_IF_ERROR(r.Pod(&version, "header"));
  if (version > kVersion) {
    return Status::InvalidArgument(StrFormat(
        "%s: model format version %u is newer than this build supports "
        "(max %u); upgrade the server or re-export the artifact with this "
        "build",
        path.c_str(), version, kVersion));
  }
  if (version < 1) {
    return Status::InvalidArgument(
        StrFormat("unsupported model format version %u", version));
  }
  UMGAD_RETURN_IF_ERROR(r.Pod(&flags, "header"));

  TrainedModel out;
  if (version >= 2) {
    // Length-prefixed config: read the fields this build knows, tolerate
    // (skip) optional trailing fields a newer minor revision appended.
    uint32_t config_bytes = 0;
    UMGAD_RETURN_IF_ERROR(r.Pod(&config_bytes, "config length"));
    if (config_bytes < kConfigCoreBytes) {
      return Status::InvalidArgument(StrFormat(
          "corrupt model: config block of %u bytes is smaller than the %u "
          "this format version requires",
          config_bytes, kConfigCoreBytes));
    }
    if (config_bytes > kMaxConfigBytes) {
      return Status::InvalidArgument(StrFormat(
          "corrupt model: absurd config block of %u bytes declared",
          config_bytes));
    }
    UMGAD_RETURN_IF_ERROR(ReadConfig(&r, &out.config_));
    UMGAD_RETURN_IF_ERROR(
        r.Skip(config_bytes - kConfigCoreBytes, "config trailing fields"));
  } else {
    // v1: fixed-size config block, no prefix.
    UMGAD_RETURN_IF_ERROR(ReadConfig(&r, &out.config_));
  }

  GraphFingerprint& fp = out.fingerprint_;
  UMGAD_RETURN_IF_ERROR(r.Pod(&fp.num_nodes, "fingerprint.num_nodes"));
  UMGAD_RETURN_IF_ERROR(r.Pod(&fp.feature_dim, "fingerprint.feature_dim"));
  UMGAD_RETURN_IF_ERROR(r.Pod(&fp.num_relations, "fingerprint.num_relations"));
  if (fp.num_nodes < 0 || fp.num_nodes > io_limits::kMaxNodes ||
      fp.feature_dim < 0 || fp.feature_dim > io_limits::kMaxFeatures ||
      fp.num_relations < 1 || fp.num_relations > io_limits::kMaxRelations) {
    return Status::InvalidArgument("corrupt model fingerprint dimensions");
  }
  for (int i = 0; i < fp.num_relations; ++i) {
    int64_t nnz = 0;
    UMGAD_RETURN_IF_ERROR(r.Pod(&nnz, "fingerprint.layer_nnz"));
    fp.layer_nnz.push_back(nnz);
  }
  UMGAD_RETURN_IF_ERROR(r.Pod(&fp.content_hash, "fingerprint.hash"));

  for (uint64_t& s : out.rng_state_.s) {
    UMGAD_RETURN_IF_ERROR(r.Pod(&s, "rng state"));
  }
  uint8_t has_cached = 0;
  UMGAD_RETURN_IF_ERROR(r.Pod(&has_cached, "rng state"));
  out.rng_state_.has_cached_normal = has_cached != 0;
  UMGAD_RETURN_IF_ERROR(r.Pod(&out.rng_state_.cached_normal, "rng state"));

  int64_t tensor_count = 0;
  UMGAD_RETURN_IF_ERROR(r.Pod(&tensor_count, "weight count"));
  if (tensor_count < 0 || tensor_count > kMaxModelTensors) {
    return Status::InvalidArgument(StrFormat(
        "corrupt model: %lld weight tensors declared",
        static_cast<long long>(tensor_count)));
  }
  for (int64_t t = 0; t < tensor_count; ++t) {
    int32_t rows = 0;
    int32_t cols = 0;
    UMGAD_RETURN_IF_ERROR(r.Pod(&rows, "weight shape"));
    UMGAD_RETURN_IF_ERROR(r.Pod(&cols, "weight shape"));
    if (rows < 0 || cols < 0 || rows > kMaxTensorDim || cols > kMaxTensorDim) {
      return Status::InvalidArgument(
          StrFormat("corrupt model: weight %lld declares shape %dx%d",
                    static_cast<long long>(t), rows, cols));
    }
    // Bounded before Tensor allocates, so a hostile shape fails without
    // touching memory. Weights sit at unaligned offsets and are copied
    // once, straight into the tensor.
    const int64_t count = static_cast<int64_t>(rows) * cols;
    UMGAD_RETURN_IF_ERROR(r.Require<float>(count, "weight data"));
    Tensor tensor(rows, cols);
    UMGAD_RETURN_IF_ERROR(r.Read(tensor.data(), count, "weight data"));
    // The same rule the graph loaders apply to attributes: a NaN or Inf
    // weight would serve a NaN score for every node.
    for (int64_t k = 0; k < count; ++k) {
      if (!std::isfinite(tensor.data()[k])) {
        return Status::InvalidArgument(StrFormat(
            "corrupt model: weight %lld element %lld is not finite (%g)",
            static_cast<long long>(t), static_cast<long long>(k),
            static_cast<double>(tensor.data()[k])));
      }
    }
    out.weights_.push_back(std::move(tensor));
  }

  uint32_t trailer = 0;
  UMGAD_RETURN_IF_ERROR(r.Pod(&trailer, "trailer"));
  if (trailer != kTrailerMagic) {
    return Status::InvalidArgument(
        StrFormat("%s: trailer mismatch (truncated or corrupt file)",
                  path.c_str()));
  }
  if (r.Remaining() != 0) {
    return Status::InvalidArgument(StrFormat(
        "%s: %lld trailing bytes after trailer", path.c_str(),
        static_cast<long long>(r.Remaining())));
  }
  return out;
}

Result<std::vector<std::unique_ptr<ReconstructionView>>>
TrainedModel::BuildViews() const {
  // The constructors draw fresh initial weights from this throwaway stream;
  // every parameter is then overwritten with the stored tensors, so only
  // the registration structure (a pure function of the config) matters.
  Rng init_rng(config_.seed);
  const int f = fingerprint_.feature_dim;
  const int r_count = fingerprint_.num_relations;
  // A corrupt config or fingerprint must not drive the view constructors
  // into a huge allocation before the per-tensor shape check below fires.
  // Any view holds r_count encoders, each storing at least an f x hidden
  // projection plus a hidden x hidden one per further layer. Double math:
  // no overflow.
  double stored = 0.0;
  for (const Tensor& t : weights_) stored += static_cast<double>(t.size());
  const double h = config_.hidden_dim;
  const int depth = std::max(1, config_.encoder_layers);
  if (r_count * (f * h + (depth - 1) * h * h) > stored) {
    return Status::InvalidArgument(StrFormat(
        "model weight count mismatch: config (hidden_dim %d, %d encoder "
        "layers, %d relations, %d features) needs more weights than the "
        "%zu stored tensors hold",
        config_.hidden_dim, config_.encoder_layers, r_count, f,
        weights_.size()));
  }
  std::vector<std::unique_ptr<ReconstructionView>> views =
      BuildActiveViews(config_, f, r_count, &init_rng);
  if (views.empty()) {
    return Status::InvalidArgument("model config enables no views");
  }

  size_t k = 0;
  for (const auto& view : views) {
    for (const ag::VarPtr& p : view->Parameters()) {
      if (k >= weights_.size()) {
        return Status::InvalidArgument(StrFormat(
            "model weight count mismatch: config wants more than the %zu "
            "stored tensors",
            weights_.size()));
      }
      if (!p->value().SameShape(weights_[k])) {
        return Status::InvalidArgument(StrFormat(
            "model weight %zu shape mismatch: stored %s, config wants %s",
            k, weights_[k].ShapeString().c_str(),
            p->value().ShapeString().c_str()));
      }
      p->mutable_value() = weights_[k];
      ++k;
    }
  }
  if (k != weights_.size()) {
    return Status::InvalidArgument(StrFormat(
        "model weight count mismatch: %zu stored tensors, config uses %zu",
        weights_.size(), k));
  }
  return views;
}

Result<std::vector<double>> TrainedModel::Score(const MultiplexGraph& graph,
                                                bool check_fingerprint) const {
  if (check_fingerprint && !fingerprint_.Matches(FingerprintGraph(graph))) {
    return Status::InvalidArgument(
        "graph does not match the model's training fingerprint "
        "(pass check_fingerprint=false to score anyway)");
  }
  if (graph.feature_dim() != fingerprint_.feature_dim ||
      graph.num_relations() != fingerprint_.num_relations) {
    return Status::InvalidArgument(
        "graph shape is incompatible with the stored model weights");
  }
  // The rebuilt views' parameters are persistent tape leaves; the scope
  // reclaims them once scoring is done, so repeated Load/Score cycles in a
  // long-running process are leak-free. The views (and every transient node
  // their forward passes build) must be gone before the scope closes, hence
  // the inner block: Reset() drops the transients, the block end drops the
  // views, the scope end rewinds the leaves.
  ag::ParamScope params;
  std::vector<double> scores;
  {
    Result<std::vector<std::unique_ptr<ReconstructionView>>> views =
        BuildViews();
    UMGAD_RETURN_IF_ERROR(views.status());

    std::vector<std::shared_ptr<const SparseMatrix>> norm_adjs;
    for (int r = 0; r < graph.num_relations(); ++r) {
      norm_adjs.push_back(std::make_shared<const SparseMatrix>(
          graph.layer(r).NormalizedWithSelfLoops()));
    }
    // Fit's scoring pass, its negative streams seeded by the checkpointed
    // Rng.
    Rng rng;
    rng.set_state(rng_state_);
    scores = ScoreViews(*views, graph, norm_adjs, config_, &rng);
    ag::Tape::Global().Reset();
  }
  return scores;
}

}  // namespace umgad
