#include "graph/io/binary_format.h"

#include <cstdint>
#include <cstdio>
#include <utility>

#include "common/byte_io.h"
#include "common/string_util.h"
#include "graph/io/io_limits.h"

namespace umgad {

const char kBinaryGraphExtension[] = "umgb";
const char kTextGraphExtension[] = "txt";

namespace {

// v3 zero-pads to kSectionAlign before each relation's row_ptr block and
// before the attribute block, so every bulk array sits at a naturally
// aligned offset — the precondition for reading the arrays in place.
constexpr uint32_t kMagic = 0x42474D55;         // 'U' 'M' 'G' 'B'
constexpr uint32_t kTrailerMagic = 0x444E4547;  // 'G' 'E' 'N' 'D'
constexpr uint32_t kVersion = 3;
constexpr uint32_t kFlagHasLabels = 1u << 0;
constexpr int64_t kSectionAlign = 8;

}  // namespace

Status SaveGraphBinary(const MultiplexGraph& graph, const std::string& path) {
  UMGAD_RETURN_IF_ERROR(RequireLittleEndianHost());
  // The writer enforces the same name cap the reader does — otherwise a
  // programmatically named graph could save fine yet be unloadable.
  auto check_name = [](const std::string& name) -> Status {
    if (static_cast<int64_t>(name.size()) > io_limits::kMaxNameLen) {
      return Status::InvalidArgument(StrFormat(
          "name of %zu chars exceeds the %lld-char format cap", name.size(),
          static_cast<long long>(io_limits::kMaxNameLen)));
    }
    return Status::OK();
  };
  UMGAD_RETURN_IF_ERROR(check_name(graph.name()));
  for (int r = 0; r < graph.num_relations(); ++r) {
    UMGAD_RETURN_IF_ERROR(check_name(graph.relation_name(r)));
  }
  ByteWriter w(path);

  w.Pod(kMagic);
  w.Pod(kVersion);
  w.Pod<uint32_t>(graph.has_labels() ? kFlagHasLabels : 0);
  w.String(graph.name());
  w.Pod<uint64_t>(static_cast<uint64_t>(graph.num_nodes()));
  w.Pod<uint64_t>(static_cast<uint64_t>(graph.feature_dim()));
  w.Pod<uint64_t>(static_cast<uint64_t>(graph.num_relations()));

  for (int r = 0; r < graph.num_relations(); ++r) {
    const SparseMatrix& layer = graph.layer(r);
    w.String(graph.relation_name(r));
    w.Pod<uint64_t>(static_cast<uint64_t>(layer.nnz()));
    // row_ptr lands 8-aligned; col_idx ((N+1) int64s later) inherits the
    // alignment, and values only needs 4. Same invariant for attributes.
    w.Align(kSectionAlign);
    w.Bytes(layer.row_ptr().data(),
            layer.row_ptr().size() * sizeof(int64_t));
    w.Bytes(layer.col_idx().data(), layer.col_idx().size() * sizeof(int));
    w.Bytes(layer.values().data(), layer.values().size() * sizeof(float));
  }

  w.Align(kSectionAlign);
  const Tensor& x = graph.attributes();
  w.Bytes(x.data(), static_cast<size_t>(x.size()) * sizeof(float));
  if (graph.has_labels()) {
    w.Bytes(graph.labels().data(), graph.labels().size() * sizeof(int));
  }
  w.Pod(kTrailerMagic);
  return w.Commit();
}

Result<MultiplexGraph> LoadGraphBinary(const std::string& path) {
  UMGAD_ASSIGN_OR_RETURN(std::shared_ptr<const FileImage> image,
                         FileImage::Read(path));
  const unsigned char* bytes = image->data();
  const int64_t size = image->size();
  return ParseGraphImage(path, bytes, size, std::move(image));
}

Result<MultiplexGraph> ParseGraphImage(
    const std::string& path, const unsigned char* bytes, int64_t size,
    std::shared_ptr<const void> keepalive,
    void (*prefetch)(const void* p, int64_t bytes)) {
  UMGAD_RETURN_IF_ERROR(RequireLittleEndianHost());
  ByteReader in(bytes, size);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t flags = 0;
  UMGAD_RETURN_IF_ERROR(in.Pod(&magic, "magic"));
  if (magic != kMagic) {
    return Status::InvalidArgument(path + ": not a umgad binary graph file");
  }
  UMGAD_RETURN_IF_ERROR(in.Pod(&version, "version"));
  if (version != kVersion) {
    return Status::InvalidArgument(StrFormat(
        "%s: unsupported binary graph version %u (expected %u)",
        path.c_str(), version, kVersion));
  }
  UMGAD_RETURN_IF_ERROR(in.Pod(&flags, "flags"));
  if ((flags & ~kFlagHasLabels) != 0) {
    return Status::InvalidArgument(StrFormat("unknown flag bits 0x%x",
                                             flags & ~kFlagHasLabels));
  }

  std::string name;
  UMGAD_RETURN_IF_ERROR(in.String(&name, io_limits::kMaxNameLen, "name"));
  uint64_t nodes = 0;
  uint64_t features = 0;
  uint64_t relations = 0;
  UMGAD_RETURN_IF_ERROR(in.Pod(&nodes, "node count"));
  UMGAD_RETURN_IF_ERROR(in.Pod(&features, "feature dim"));
  UMGAD_RETURN_IF_ERROR(in.Pod(&relations, "relation count"));
  if (nodes == 0 || features == 0 || relations == 0 ||
      nodes > static_cast<uint64_t>(io_limits::kMaxNodes) ||
      features > static_cast<uint64_t>(io_limits::kMaxFeatures) ||
      relations > static_cast<uint64_t>(io_limits::kMaxRelations) ||
      io_limits::CheckedElemCount(static_cast<int64_t>(nodes),
                                  static_cast<int64_t>(features),
                                  io_limits::kMaxAttributeEntries) < 0) {
    return Status::InvalidArgument(StrFormat(
        "oversized or empty header: %llu nodes x %llu features, "
        "%llu relations",
        static_cast<unsigned long long>(nodes),
        static_cast<unsigned long long>(features),
        static_cast<unsigned long long>(relations)));
  }
  const int n = static_cast<int>(nodes);
  const int d = static_cast<int>(features);

  std::vector<SparseMatrix> layers;
  std::vector<std::string> rel_names;
  for (uint64_t r = 0; r < relations; ++r) {
    std::string rel_name;
    UMGAD_RETURN_IF_ERROR(
        in.String(&rel_name, io_limits::kMaxNameLen, "relation name"));
    for (const std::string& seen : rel_names) {
      if (seen == rel_name) {
        return Status::InvalidArgument("duplicate relation name '" +
                                       rel_name + "'");
      }
    }
    uint64_t nnz = 0;
    UMGAD_RETURN_IF_ERROR(in.Pod(&nnz, "nnz"));
    UMGAD_RETURN_IF_ERROR(in.Align(kSectionAlign, "relation section"));
    ConstSpan<int64_t> row_ptr;
    ConstSpan<int> col_idx;
    ConstSpan<float> values;
    UMGAD_RETURN_IF_ERROR(
        in.View(&row_ptr, static_cast<int64_t>(nodes) + 1, "row_ptr"));
    UMGAD_RETURN_IF_ERROR(
        in.View(&col_idx, static_cast<int64_t>(nnz), "col_idx"));
    UMGAD_RETURN_IF_ERROR(
        in.View(&values, static_cast<int64_t>(nnz), "values"));
    // The CSR validation scan and the graph factory (finite weights,
    // symmetry) read row_ptr, col_idx and values, which sit back to back.
    if (prefetch != nullptr) {
      prefetch(row_ptr.data(),
               reinterpret_cast<const unsigned char*>(values.end()) -
                   reinterpret_cast<const unsigned char*>(row_ptr.data()));
    }
    UMGAD_ASSIGN_OR_RETURN(
        SparseMatrix layer, SparseMatrix::FromBorrowedCsr(
                                n, n, row_ptr, col_idx, values, keepalive));
    layers.push_back(std::move(layer));
    rel_names.push_back(std::move(rel_name));
  }

  UMGAD_RETURN_IF_ERROR(in.Align(kSectionAlign, "attribute section"));
  ConstSpan<float> attr;
  UMGAD_RETURN_IF_ERROR(in.View(&attr, static_cast<int64_t>(nodes) * d,
                                "attribute matrix"));
  Tensor x = Tensor::FromBorrowed(attr.data(), n, d, keepalive);

  // Labels are copied (4 bytes per node): labels() is consumed as a
  // std::vector across metrics/eval.
  std::vector<int> labels;
  if (flags & kFlagHasLabels) {
    ConstSpan<int> label_view;
    UMGAD_RETURN_IF_ERROR(
        in.View(&label_view, static_cast<int64_t>(nodes), "labels"));
    if (prefetch != nullptr) {
      prefetch(label_view.data(),
               static_cast<int64_t>(label_view.size() * sizeof(int)));
    }
    labels = label_view.ToVector();
  }

  uint32_t trailer = 0;
  UMGAD_RETURN_IF_ERROR(in.Pod(&trailer, "trailer"));
  if (trailer != kTrailerMagic) {
    return Status::InvalidArgument(path + ": bad trailer (truncated file?)");
  }
  if (in.Remaining() != 0) {
    return Status::InvalidArgument(StrFormat(
        "%s: %lld trailing bytes after trailer", path.c_str(),
        static_cast<long long>(in.Remaining())));
  }

  return MultiplexGraph::Create(name, std::move(x), std::move(layers),
                                std::move(rel_names), std::move(labels));
}

bool LooksLikeBinaryGraph(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  uint32_t magic = 0;
  const bool read = std::fread(&magic, sizeof(magic), 1, f) == 1;
  std::fclose(f);
  return read && magic == kMagic;
}

}  // namespace umgad
