#include "graph/io/binary_format.h"

#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/byte_io.h"
#include "common/string_util.h"
#include "graph/io/io_limits.h"

namespace umgad {

const char kBinaryGraphExtension[] = "umgb";
const char kTextGraphExtension[] = "txt";

namespace {

// v3 zero-pads to kSectionAlign before each relation's row_ptr block and
// before the attribute block, so every bulk array sits at a naturally
// aligned offset. The padding is part of the v3 layout; the reader skips
// it.
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

namespace {

/// The parse behind both public entry points, over whichever source `in`
/// reads from.
Result<MultiplexGraph> ParseGraph(const std::string& path, ByteReader in) {
  UMGAD_RETURN_IF_ERROR(RequireLittleEndianHost());
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
    std::vector<int64_t> row_ptr;
    std::vector<int> col_idx;
    std::vector<float> values;
    const int64_t count = static_cast<int64_t>(nnz);
    UMGAD_RETURN_IF_ERROR(in.ReadVector(&row_ptr, n + int64_t{1}, "row_ptr"));
    UMGAD_RETURN_IF_ERROR(in.ReadVector(&col_idx, count, "col_idx"));
    UMGAD_RETURN_IF_ERROR(in.ReadVector(&values, count, "values"));
    UMGAD_ASSIGN_OR_RETURN(
        SparseMatrix layer,
        SparseMatrix::FromCsr(n, n, std::move(row_ptr), std::move(col_idx),
                              std::move(values)));
    layers.push_back(std::move(layer));
    rel_names.push_back(std::move(rel_name));
  }

  UMGAD_RETURN_IF_ERROR(in.Align(kSectionAlign, "attribute section"));
  const int64_t cells = static_cast<int64_t>(n) * d;
  UMGAD_RETURN_IF_ERROR(in.Require<float>(cells, "attribute matrix"));
  Tensor x = Tensor::Uninitialized(n, d);
  UMGAD_RETURN_IF_ERROR(in.Read(x.data(), cells, "attribute matrix"));

  std::vector<int> labels;
  if (flags & kFlagHasLabels) {
    UMGAD_RETURN_IF_ERROR(in.ReadVector(&labels, n, "labels"));
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

}  // namespace

Result<MultiplexGraph> LoadGraphBinary(const std::string& path) {
  UMGAD_ASSIGN_OR_RETURN(const ReadOnlyFile file, ReadOnlyFile::Open(path));
  return ParseGraph(path, ByteReader(&file));
}

Result<MultiplexGraph> ParseGraphImage(const std::string& path,
                                       const unsigned char* bytes,
                                       int64_t size) {
  return ParseGraph(path, ByteReader(bytes, size));
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
