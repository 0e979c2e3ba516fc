#include "graph/io/edge_list.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "graph/io/io_limits.h"
#include "graph/io/line_chunks.h"

namespace umgad {

namespace {

/// Split one data line into trimmed fields. With an explicit delimiter the
/// fields are exactly the delimited columns; with whitespace ('\0' resolved
/// to ' ') runs of spaces/tabs collapse.
std::vector<std::string> SplitFields(const std::string& line, char delim) {
  std::vector<std::string> fields;
  if (delim == ' ') {
    std::string current;
    for (char c : line) {
      if (c == ' ' || c == '\t') {
        if (!current.empty()) fields.push_back(std::move(current));
        current.clear();
      } else {
        current += c;
      }
    }
    if (!current.empty()) fields.push_back(std::move(current));
    return fields;
  }
  for (std::string& f : Split(line, delim)) fields.push_back(Trim(f));
  return fields;
}

char DetectDelimiter(const std::string& line) {
  if (line.find('\t') != std::string::npos) return '\t';
  if (line.find(',') != std::string::npos) return ',';
  return ' ';
}

bool ParseInt(const std::string& field, int64_t* value) {
  if (field.empty()) return false;
  char* end = nullptr;
  errno = 0;
  *value = std::strtoll(field.c_str(), &end, 10);
  return errno == 0 && end == field.c_str() + field.size();
}

bool ParseFloat(const std::string& field, float* value) {
  if (field.empty()) return false;
  char* end = nullptr;
  *value = std::strtof(field.c_str(), &end);
  if (end != field.c_str() + field.size()) return false;
  // Finite only: textual "nan"/"inf" (numpy writes 'nan' for missing
  // values) and overflow would otherwise poison every downstream loss
  // with no diagnostic. Subnormal underflow stays finite and is fine.
  return std::isfinite(*value);
}

bool IsSpaceChar(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// Yields the trimmed data lines of a byte range: '\r' stripped, blanks and
/// '#' comments skipped. Byte-for-byte the same lines ReadDataLines used to
/// produce via getline, but over an in-memory buffer so disjoint ranges can
/// be walked from different threads.
class DataLineReader {
 public:
  DataLineReader(const char* data, ByteRange range)
      : p_(data + range.begin), end_(data + range.end) {}

  bool Next(std::string* line) {
    while (p_ < end_) {
      const char* nl = static_cast<const char*>(
          std::memchr(p_, '\n', static_cast<size_t>(end_ - p_)));
      const char* b = p_;
      const char* e = nl == nullptr ? end_ : nl;
      p_ = nl == nullptr ? end_ : nl + 1;
      while (b < e && IsSpaceChar(*b)) ++b;
      while (e > b && IsSpaceChar(e[-1])) --e;
      if (b == e || *b == '#') continue;
      line->assign(b, static_cast<size_t>(e - b));
      return true;
    }
    return false;
  }

 private:
  const char* p_;
  const char* end_;
};

/// First data line of a buffer plus the delimiter resolved from it —
/// everything the chunk parsers need to know up front.
struct Prologue {
  bool has_data = false;
  char delim = ' ';
  std::string first_line;
};

Prologue ScanPrologue(const std::string& buffer, char requested_delim) {
  Prologue p;
  DataLineReader reader(buffer.data(), ByteRange{0, buffer.size()});
  if (!reader.Next(&p.first_line)) return p;
  p.has_data = true;
  p.delim = requested_delim == '\0' ? DetectDelimiter(p.first_line)
                                    : requested_delim;
  return p;
}

/// Chunk count for a parse buffer: one chunk per ~256 KiB, at most 4 per
/// pool lane (enough slack for load balancing), never fewer than one.
int AutoChunkCount(size_t bytes) {
  constexpr size_t kBytesPerChunk = size_t{1} << 18;
  const size_t by_size = bytes / kBytesPerChunk;
  const size_t cap = static_cast<size_t>(NumThreads()) * 4;
  return static_cast<int>(std::max<size_t>(1, std::min(by_size, cap)));
}

int ResolveChunkCount(const EdgeListOptions& options, size_t bytes) {
  if (options.import_chunks >= 1) return options.import_chunks;
  return AutoChunkCount(bytes);
}

/// First malformed row of a chunk. Only the error from the earliest failing
/// chunk is ever reported, and all chunks before it parsed cleanly, so their
/// exact row counts turn `local_row` back into the serial line number.
struct ChunkError {
  enum Kind { kNone, kFieldCount, kBadIds, kIdRange, kUnknownRel };
  Kind kind = kNone;
  size_t local_row = 0;
  size_t field_count = 0;
  std::string a;
  std::string b;
};

struct EdgeChunk {
  std::vector<std::string> rel_names;        // local first-seen order
  std::vector<std::vector<Edge>> rel_edges;  // parallel to rel_names
  size_t data_rows = 0;  // data lines consumed, including skipped header
  int max_id = -1;
  ChunkError error;
};

EdgeChunk ParseEdgeChunk(const char* data, ByteRange range, char delim,
                         const std::vector<std::string>& pinned,
                         size_t skip_rows) {
  EdgeChunk out;
  const bool discover = pinned.empty();
  if (!discover) {
    out.rel_names = pinned;
    out.rel_edges.resize(pinned.size());
  }
  DataLineReader reader(data, range);
  std::string line;
  while (reader.Next(&line)) {
    const size_t row = out.data_rows++;
    if (row < skip_rows) continue;
    const std::vector<std::string> fields = SplitFields(line, delim);
    if (fields.size() < 2 || fields.size() > 3) {
      out.error = ChunkError{ChunkError::kFieldCount, row, fields.size(),
                             "", ""};
      return out;
    }
    int64_t src = 0;
    int64_t dst = 0;
    if (!ParseInt(fields[0], &src) || !ParseInt(fields[1], &dst)) {
      out.error =
          ChunkError{ChunkError::kBadIds, row, 0, fields[0], fields[1]};
      return out;
    }
    if (src < 0 || dst < 0 || src >= io_limits::kMaxNodes ||
        dst >= io_limits::kMaxNodes) {
      out.error = ChunkError{ChunkError::kIdRange, row, 0, "", ""};
      return out;
    }
    const std::string rel = fields.size() == 3 ? fields[2] : "edges";
    size_t r = 0;
    while (r < out.rel_names.size() && out.rel_names[r] != rel) ++r;
    if (r == out.rel_names.size()) {
      if (!discover) {
        out.error = ChunkError{ChunkError::kUnknownRel, row, 0, rel, ""};
        return out;
      }
      out.rel_names.push_back(rel);
      out.rel_edges.emplace_back();
    }
    out.rel_edges[r].push_back(
        Edge{static_cast<int>(src), static_cast<int>(dst)});
    out.max_id = std::max(out.max_id,
                          static_cast<int>(std::max(src, dst)));
  }
  return out;
}

/// Per-relation normalised degree plus a constant column — deterministic
/// structural features for imports that ship no attribute file.
Tensor StructuralFeatures(const std::vector<std::vector<Edge>>& rel_edges,
                          int num_nodes) {
  const int r_count = static_cast<int>(rel_edges.size());
  Tensor x(num_nodes, r_count + 1);
  for (int r = 0; r < r_count; ++r) {
    std::vector<int> degree(num_nodes, 0);
    for (const Edge& e : rel_edges[r]) {
      ++degree[e.src];
      if (e.dst != e.src) ++degree[e.dst];
    }
    const int max_degree = *std::max_element(degree.begin(), degree.end());
    const float denom = max_degree > 0 ? static_cast<float>(max_degree)
                                       : 1.0f;
    for (int i = 0; i < num_nodes; ++i) {
      x.at(i, r) = static_cast<float>(degree[i]) / denom;
    }
  }
  for (int i = 0; i < num_nodes; ++i) x.at(i, r_count) = 1.0f;
  return x;
}

/// Two-phase parallel feature parse: count rows per chunk (so the row-count
/// check still precedes any per-value diagnostics, as the serial reader's
/// did), then parse each chunk straight into its rows of the output tensor.
Result<Tensor> ParseFeatureFile(const std::string& path,
                                const EdgeListOptions& options,
                                const std::string& buffer,
                                const Prologue& prologue, int num_nodes) {
  const std::vector<ByteRange> ranges = SplitNewlineAligned(
      buffer.data(), buffer.size(), ResolveChunkCount(options, buffer.size()));
  std::vector<size_t> counts(ranges.size(), 0);
  ParallelFor(static_cast<int64_t>(ranges.size()), 1,
              [&](int64_t begin, int64_t end) {
                for (int64_t c = begin; c < end; ++c) {
                  DataLineReader reader(buffer.data(), ranges[c]);
                  std::string line;
                  while (reader.Next(&line)) ++counts[c];
                }
              });
  std::vector<size_t> first_row(ranges.size() + 1, 0);
  for (size_t c = 0; c < ranges.size(); ++c) {
    first_row[c + 1] = first_row[c] + counts[c];
  }
  const size_t total_rows = first_row[ranges.size()];
  if (total_rows != static_cast<size_t>(num_nodes)) {
    return Status::InvalidArgument(
        StrFormat("%s: %zu feature rows for %d nodes", path.c_str(),
                  total_rows, num_nodes));
  }
  const size_t dim = SplitFields(prologue.first_line, prologue.delim).size();
  if (dim == 0) {
    return Status::InvalidArgument(path + ": empty feature row");
  }

  struct FeatError {
    enum Kind { kNone, kWidth, kValue };
    Kind kind = kNone;
    int row = 0;
    size_t field = 0;  // kWidth: the row's field count; kValue: the column
    std::string value;
  };
  Tensor attributes(num_nodes, static_cast<int>(dim));
  std::vector<FeatError> errors(ranges.size());
  ParallelFor(
      static_cast<int64_t>(ranges.size()), 1,
      [&](int64_t begin, int64_t end) {
        for (int64_t c = begin; c < end; ++c) {
          DataLineReader reader(buffer.data(), ranges[c]);
          std::string line;
          size_t local = 0;
          while (reader.Next(&line)) {
            const int i = static_cast<int>(first_row[c] + local++);
            const std::vector<std::string> fields =
                SplitFields(line, prologue.delim);
            if (fields.size() != dim) {
              errors[c] = FeatError{FeatError::kWidth, i, fields.size(), ""};
              break;
            }
            bool bad = false;
            for (size_t j = 0; j < dim; ++j) {
              if (!ParseFloat(fields[j],
                              &attributes.at(i, static_cast<int>(j)))) {
                errors[c] = FeatError{FeatError::kValue, i, j, fields[j]};
                bad = true;
                break;
              }
            }
            if (bad) break;
          }
        }
      });
  // Chunks cover ascending disjoint row ranges, so the earliest failing
  // chunk holds the first bad row — identical diagnostics at every thread
  // and chunk count.
  for (const FeatError& err : errors) {
    if (err.kind == FeatError::kWidth) {
      return Status::InvalidArgument(
          StrFormat("%s: row %d has %zu values, expected %zu", path.c_str(),
                    err.row, err.field, dim));
    }
    if (err.kind == FeatError::kValue) {
      return Status::InvalidArgument(StrFormat(
          "%s: attribute (%d, %zu) is not a finite number: '%s'",
          path.c_str(), err.row, err.field, err.value.c_str()));
    }
  }
  return attributes;
}

}  // namespace

Result<MultiplexGraph> ImportEdgeList(const std::string& edges_path,
                                      const EdgeListOptions& options) {
  std::string buffer;
  UMGAD_RETURN_IF_ERROR(ReadFileToString(edges_path, &buffer));
  const Prologue prologue = ScanPrologue(buffer, options.delimiter);
  if (!prologue.has_data) {
    return Status::InvalidArgument(edges_path + ": no edges");
  }

  // Header handling: kAuto treats the first row as a header only when
  // *neither* id column parses as an integer — a mixed row like "0,weight"
  // is malformed data and errors below instead of being silently dropped,
  // and an all-numeric header ("0,1,2") needs an explicit kAlways.
  bool skip_header = false;
  if (options.header == HeaderMode::kAlways) {
    skip_header = true;
  } else if (options.header == HeaderMode::kAuto) {
    const std::vector<std::string> fields =
        SplitFields(prologue.first_line, prologue.delim);
    int64_t src = 0;
    int64_t dst = 0;
    skip_header = fields.size() >= 2 && !ParseInt(fields[0], &src) &&
                  !ParseInt(fields[1], &dst);
  }

  const std::vector<ByteRange> ranges = SplitNewlineAligned(
      buffer.data(), buffer.size(), ResolveChunkCount(options, buffer.size()));
  std::vector<EdgeChunk> chunks(ranges.size());
  ParallelFor(static_cast<int64_t>(ranges.size()), 1,
              [&](int64_t begin, int64_t end) {
                for (int64_t c = begin; c < end; ++c) {
                  chunks[c] = ParseEdgeChunk(
                      buffer.data(), ranges[c], prologue.delim,
                      options.relation_names,
                      c == 0 && skip_header ? 1 : 0);
                }
              });

  // Report the first malformed row in file order with its serial line
  // number: chunks before the earliest failing one are clean, so their row
  // counts are exact. Lines are 1-based over data rows (header included),
  // matching the serial parse for every chunk count.
  size_t rows_before = 0;
  for (const EdgeChunk& chunk : chunks) {
    const ChunkError& err = chunk.error;
    if (err.kind != ChunkError::kNone) {
      const size_t line = rows_before + err.local_row + 1;
      switch (err.kind) {
        case ChunkError::kFieldCount:
          return Status::InvalidArgument(StrFormat(
              "%s: line %zu has %zu fields (want 'src dst [relation]')",
              edges_path.c_str(), line, err.field_count));
        case ChunkError::kBadIds:
          return Status::InvalidArgument(StrFormat(
              "%s: line %zu: bad node ids '%s' '%s'", edges_path.c_str(),
              line, err.a.c_str(), err.b.c_str()));
        case ChunkError::kIdRange:
          return Status::OutOfRange(
              StrFormat("%s: line %zu: node id out of range",
                        edges_path.c_str(), line));
        case ChunkError::kUnknownRel:
          return Status::InvalidArgument(
              StrFormat("%s: line %zu: unknown relation '%s'",
                        edges_path.c_str(), line, err.a.c_str()));
        case ChunkError::kNone:
          break;
      }
    }
    rows_before += chunk.data_rows;
  }
  if (skip_header && rows_before == 1) {
    return Status::InvalidArgument(edges_path + ": no edges after header");
  }

  // Merge in chunk order: relation discovery order and per-relation edge
  // order both reproduce the serial scan exactly.
  std::vector<std::string> rel_names = options.relation_names;
  const bool discover_relations = rel_names.empty();
  std::vector<std::vector<Edge>> rel_edges(rel_names.size());
  int max_id = -1;
  for (EdgeChunk& chunk : chunks) {
    max_id = std::max(max_id, chunk.max_id);
    for (size_t lr = 0; lr < chunk.rel_names.size(); ++lr) {
      size_t r = 0;
      while (r < rel_names.size() && rel_names[r] != chunk.rel_names[lr]) {
        ++r;
      }
      if (r == rel_names.size()) {
        UMGAD_CHECK(discover_relations);
        rel_names.push_back(chunk.rel_names[lr]);
        rel_edges.emplace_back();
      }
      rel_edges[r].insert(rel_edges[r].end(), chunk.rel_edges[lr].begin(),
                          chunk.rel_edges[lr].end());
    }
  }

  // Optional feature rows; their count can define the node count (isolated
  // trailing nodes are real nodes).
  std::string feature_buffer;
  Prologue feature_prologue;
  if (!options.features_path.empty()) {
    UMGAD_RETURN_IF_ERROR(
        ReadFileToString(options.features_path, &feature_buffer));
    feature_prologue = ScanPrologue(feature_buffer, options.delimiter);
    if (!feature_prologue.has_data) {
      return Status::InvalidArgument(options.features_path + ": empty");
    }
  }

  int num_nodes = options.num_nodes;
  if (num_nodes <= 0) {
    if (options.features_path.empty()) {
      num_nodes = max_id + 1;
    } else {
      size_t rows = 0;
      DataLineReader reader(feature_buffer.data(),
                            ByteRange{0, feature_buffer.size()});
      std::string line;
      while (reader.Next(&line)) ++rows;
      num_nodes = static_cast<int>(rows);
    }
  }
  if (num_nodes <= 0 || max_id >= num_nodes) {
    return Status::OutOfRange(StrFormat(
        "edge references node %d but the graph has %d nodes", max_id,
        num_nodes));
  }

  Tensor attributes;
  if (!options.features_path.empty()) {
    UMGAD_ASSIGN_OR_RETURN(
        attributes,
        ParseFeatureFile(options.features_path, options, feature_buffer,
                         feature_prologue, num_nodes));
  } else {
    attributes = StructuralFeatures(rel_edges, num_nodes);
  }

  std::vector<int> labels;
  if (!options.labels_path.empty()) {
    std::string label_buffer;
    UMGAD_RETURN_IF_ERROR(
        ReadFileToString(options.labels_path, &label_buffer));
    const Prologue label_prologue =
        ScanPrologue(label_buffer, options.delimiter);
    std::vector<std::vector<std::string>> label_rows;
    DataLineReader reader(label_buffer.data(),
                          ByteRange{0, label_buffer.size()});
    std::string line;
    while (reader.Next(&line)) {
      label_rows.push_back(SplitFields(line, label_prologue.delim));
    }
    if (label_rows.size() != static_cast<size_t>(num_nodes)) {
      return Status::InvalidArgument(StrFormat(
          "%s: %zu labels for %d nodes", options.labels_path.c_str(),
          label_rows.size(), num_nodes));
    }
    labels.resize(num_nodes);
    for (int i = 0; i < num_nodes; ++i) {
      int64_t v = 0;
      if (label_rows[i].size() != 1 || !ParseInt(label_rows[i][0], &v) ||
          (v != 0 && v != 1)) {
        return Status::InvalidArgument(StrFormat(
            "%s: line %d: labels must be 0 or 1",
            options.labels_path.c_str(), i + 1));
      }
      labels[i] = static_cast<int>(v);
    }
  }

  std::vector<SparseMatrix> layers;
  layers.reserve(rel_edges.size());
  for (const std::vector<Edge>& edges : rel_edges) {
    layers.push_back(
        SparseMatrix::FromEdges(num_nodes, edges, /*symmetrize=*/true));
  }

  UMGAD_ASSIGN_OR_RETURN(
      MultiplexGraph graph,
      MultiplexGraph::Create(options.name, std::move(attributes),
                             std::move(layers), std::move(rel_names),
                             std::move(labels)));

  if (!graph.has_labels() && options.inject_if_unlabeled) {
    // Unlabeled dump: mark it up with the paper's injection protocol so the
    // result can drive evaluation immediately.
    Rng rng(options.injection_seed);
    InjectAnomalies(&graph, options.injection, &rng);
  }
  return graph;
}

Status ExportEdgeList(const MultiplexGraph& graph,
                      const std::string& edges_path,
                      const std::string& features_path,
                      const std::string& labels_path) {
  std::string out;
  for (int r = 0; r < graph.num_relations(); ++r) {
    const SparseMatrix& layer = graph.layer(r);
    const auto rp = layer.row_ptr();
    const auto ci = layer.col_idx();
    const auto v = layer.values();
    for (int i = 0; i < layer.rows(); ++i) {
      for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
        if (ci[k] < i) continue;  // each undirected edge once, src <= dst
        if (v[k] != 1.0f) {
          return Status::InvalidArgument(StrFormat(
              "layer %d (%s) has non-unit weight at (%d, %d); the edge-list "
              "dialect carries no weights",
              r, graph.relation_name(r).c_str(), i, ci[k]));
        }
        out += std::to_string(i);
        out += '\t';
        out += std::to_string(ci[k]);
        out += '\t';
        out += graph.relation_name(r);
        out += '\n';
      }
    }
  }
  {
    std::ofstream f(edges_path, std::ios::binary | std::ios::trunc);
    if (!f.write(out.data(), static_cast<std::streamoff>(out.size()))) {
      return Status::IoError("cannot write " + edges_path);
    }
  }

  if (!features_path.empty()) {
    const Tensor& x = graph.attributes();
    std::string feat;
    for (int i = 0; i < x.rows(); ++i) {
      for (int j = 0; j < x.cols(); ++j) {
        if (j > 0) feat += '\t';
        // max_digits10 for binary32: the re-import parses back the exact
        // same float, which the differential tests rely on.
        feat += StrFormat("%.9g", static_cast<double>(x.at(i, j)));
      }
      feat += '\n';
    }
    std::ofstream f(features_path, std::ios::binary | std::ios::trunc);
    if (!f.write(feat.data(), static_cast<std::streamoff>(feat.size()))) {
      return Status::IoError("cannot write " + features_path);
    }
  }

  if (!labels_path.empty()) {
    if (!graph.has_labels()) {
      return Status::InvalidArgument(
          "graph has no labels to export to " + labels_path);
    }
    std::string lab;
    for (int y : graph.labels()) {
      lab += std::to_string(y);
      lab += '\n';
    }
    std::ofstream f(labels_path, std::ios::binary | std::ios::trunc);
    if (!f.write(lab.data(), static_cast<std::streamoff>(lab.size()))) {
      return Status::IoError("cannot write " + labels_path);
    }
  }
  return Status::OK();
}

}  // namespace umgad
