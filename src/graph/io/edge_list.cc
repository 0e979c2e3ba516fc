#include "graph/io/edge_list.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/byte_io.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "graph/io/io_limits.h"

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

/// Yields the trimmed data lines of a whole-file image: '\r' stripped,
/// blanks and '#' comments skipped. line_number() is the 1-based physical
/// line of the last line yielded, comments and blanks included, so a
/// diagnostic names the line an editor shows.
class DataLineReader {
 public:
  explicit DataLineReader(const FileImage& image)
      : p_(reinterpret_cast<const char*>(image.data())),
        end_(p_ + image.size()) {}

  bool Next(std::string* line) {
    while (p_ < end_) {
      ++line_number_;
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

  size_t line_number() const { return line_number_; }

 private:
  const char* p_;
  const char* end_;
  size_t line_number_ = 0;
};

/// The delimiter a file is split with: `requested`, or when that is '\0'
/// the one detected from its first data line (tab > comma > spaces).
char ResolveDelimiter(char requested, const std::string& first_line) {
  if (requested != '\0') return requested;
  if (first_line.find('\t') != std::string::npos) return '\t';
  if (first_line.find(',') != std::string::npos) return ',';
  return ' ';
}

struct EdgeRows {
  std::vector<std::string> rel_names;
  std::vector<std::vector<Edge>> rel_edges;  // parallel to rel_names
  int max_id = -1;
};

Result<EdgeRows> ParseEdgeFile(const std::string& path,
                               const EdgeListOptions& options) {
  UMGAD_ASSIGN_OR_RETURN(const std::shared_ptr<const FileImage> image,
                         FileImage::Read(path));
  DataLineReader reader(*image);
  std::string line;
  if (!reader.Next(&line)) {
    return Status::InvalidArgument(path + ": no edges");
  }
  const char delim = ResolveDelimiter(options.delimiter, line);

  // Header handling: kAuto treats the first row as a header only when
  // *neither* id column parses as an integer — a mixed row like "0,weight"
  // is malformed data and errors below instead of being silently dropped,
  // and an all-numeric header ("0,1,2") needs an explicit kAlways.
  bool skip_header = options.header == HeaderMode::kAlways;
  if (options.header == HeaderMode::kAuto) {
    const std::vector<std::string> fields = SplitFields(line, delim);
    int64_t src = 0;
    int64_t dst = 0;
    skip_header = fields.size() >= 2 && !ParseInt(fields[0], &src) &&
                  !ParseInt(fields[1], &dst);
  }
  if (skip_header && !reader.Next(&line)) {
    return Status::InvalidArgument(path + ": no edges after header");
  }

  EdgeRows out;
  out.rel_names = options.relation_names;
  out.rel_edges.resize(out.rel_names.size());
  const bool discover_relations = out.rel_names.empty();
  do {
    const size_t at = reader.line_number();
    const std::vector<std::string> fields = SplitFields(line, delim);
    if (fields.size() < 2 || fields.size() > 3) {
      return Status::InvalidArgument(StrFormat(
          "%s: line %zu has %zu fields (want 'src dst [relation]')",
          path.c_str(), at, fields.size()));
    }
    int64_t src = 0;
    int64_t dst = 0;
    if (!ParseInt(fields[0], &src) || !ParseInt(fields[1], &dst)) {
      return Status::InvalidArgument(
          StrFormat("%s: line %zu: bad node ids '%s' '%s'", path.c_str(), at,
                    fields[0].c_str(), fields[1].c_str()));
    }
    if (src < 0 || dst < 0 || src >= io_limits::kMaxNodes ||
        dst >= io_limits::kMaxNodes) {
      return Status::OutOfRange(StrFormat(
          "%s: line %zu: node id out of range", path.c_str(), at));
    }
    const std::string rel = fields.size() == 3 ? fields[2] : "edges";
    size_t r = 0;
    while (r < out.rel_names.size() && out.rel_names[r] != rel) ++r;
    if (r == out.rel_names.size()) {
      if (!discover_relations) {
        return Status::InvalidArgument(
            StrFormat("%s: line %zu: unknown relation '%s'", path.c_str(), at,
                      rel.c_str()));
      }
      if (static_cast<int64_t>(rel.size()) > io_limits::kMaxNameLen) {
        return Status::InvalidArgument(StrFormat(
            "%s: line %zu: relation name of %zu chars exceeds the %lld-char "
            "cap", path.c_str(), at, rel.size(),
            static_cast<long long>(io_limits::kMaxNameLen)));
      }
      if (static_cast<int64_t>(r) == io_limits::kMaxRelations) {
        return Status::InvalidArgument(
            StrFormat("%s: line %zu: more than %lld relations", path.c_str(),
                      at, static_cast<long long>(io_limits::kMaxRelations)));
      }
      out.rel_names.push_back(rel);
      out.rel_edges.emplace_back();
    }
    out.rel_edges[r].push_back(
        Edge{static_cast<int>(src), static_cast<int>(dst)});
    out.max_id = std::max(out.max_id, static_cast<int>(std::max(src, dst)));
  } while (reader.Next(&line));
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

/// A features file walked once. A bad row does not stop the walk: its
/// error is kept so the caller can report a row-count mismatch first, then
/// the first row of the wrong width, then the first bad value. Values are
/// collected only while no error is kept, four bytes per field read, so
/// their size is bounded by the file's, never by a row count times a width.
struct FeatureRows {
  size_t rows = 0;
  size_t dim = 0;  // the first row's width
  std::vector<float> values;  // rows x dim, row-major, when both errors are OK
  Status width_error;
  Status value_error;
};

Result<FeatureRows> ParseFeatureFile(const std::string& path,
                                     char requested_delim) {
  UMGAD_ASSIGN_OR_RETURN(const std::shared_ptr<const FileImage> image,
                         FileImage::Read(path));
  DataLineReader reader(*image);
  std::string line;
  if (!reader.Next(&line)) return Status::InvalidArgument(path + ": empty");
  const char delim = ResolveDelimiter(requested_delim, line);
  FeatureRows out;
  out.dim = SplitFields(line, delim).size();
  if (static_cast<int64_t>(out.dim) > io_limits::kMaxFeatures) {
    return Status::InvalidArgument(StrFormat(
        "%s: %zu values per row exceed the limit of %lld", path.c_str(),
        out.dim, static_cast<long long>(io_limits::kMaxFeatures)));
  }
  do {
    const size_t row = out.rows++;
    const std::vector<std::string> fields = SplitFields(line, delim);
    if (fields.size() != out.dim) {
      if (out.width_error.ok()) {
        out.width_error = Status::InvalidArgument(
            StrFormat("%s: row %zu has %zu values, expected %zu",
                      path.c_str(), row, fields.size(), out.dim));
      }
      continue;
    }
    if (!out.width_error.ok() || !out.value_error.ok()) continue;
    for (size_t j = 0; j < out.dim; ++j) {
      float value = 0.0f;
      if (!ParseFloat(fields[j], &value)) {
        out.value_error = Status::InvalidArgument(StrFormat(
            "%s: attribute (%zu, %zu) is not a finite number: '%s'",
            path.c_str(), row, j, fields[j].c_str()));
        break;
      }
      out.values.push_back(value);
    }
  } while (reader.Next(&line));
  return out;
}

/// One 0/1 label per data line; the row count is checked before any value.
Result<std::vector<int>> ParseLabelFile(const std::string& path,
                                        char requested_delim, int num_nodes) {
  UMGAD_ASSIGN_OR_RETURN(const std::shared_ptr<const FileImage> image,
                         FileImage::Read(path));
  DataLineReader reader(*image);
  std::vector<int> labels;
  size_t first_bad_line = 0;
  std::string line;
  char delim = requested_delim;
  while (reader.Next(&line)) {
    if (labels.empty()) delim = ResolveDelimiter(requested_delim, line);
    const std::vector<std::string> fields = SplitFields(line, delim);
    int64_t v = 0;
    const bool ok = fields.size() == 1 && ParseInt(fields[0], &v) &&
                    (v == 0 || v == 1);
    if (!ok && first_bad_line == 0) first_bad_line = reader.line_number();
    labels.push_back(ok ? static_cast<int>(v) : 0);
  }
  if (labels.size() != static_cast<size_t>(num_nodes)) {
    return Status::InvalidArgument(StrFormat("%s: %zu labels for %d nodes",
                                             path.c_str(), labels.size(),
                                             num_nodes));
  }
  if (first_bad_line != 0) {
    return Status::InvalidArgument(StrFormat(
        "%s: line %zu: labels must be 0 or 1", path.c_str(), first_bad_line));
  }
  return labels;
}

}  // namespace

Result<MultiplexGraph> ImportEdgeList(const std::string& edges_path,
                                      const EdgeListOptions& options) {
  UMGAD_ASSIGN_OR_RETURN(EdgeRows edges, ParseEdgeFile(edges_path, options));

  // Optional feature rows; their count can define the node count (isolated
  // trailing nodes are real nodes).
  FeatureRows features;
  if (!options.features_path.empty()) {
    UMGAD_ASSIGN_OR_RETURN(
        features, ParseFeatureFile(options.features_path, options.delimiter));
  }
  int num_nodes = options.num_nodes;
  if (num_nodes <= 0) {
    num_nodes = options.features_path.empty()
                    ? edges.max_id + 1
                    : static_cast<int>(features.rows);
  }
  if (num_nodes <= 0 || edges.max_id >= num_nodes) {
    return Status::OutOfRange(
        StrFormat("%s: edge references node %d but the graph has %d nodes",
                  edges_path.c_str(), edges.max_id, num_nodes));
  }

  Tensor attributes;
  if (!options.features_path.empty()) {
    if (features.rows != static_cast<size_t>(num_nodes)) {
      return Status::InvalidArgument(
          StrFormat("%s: %zu feature rows for %d nodes",
                    options.features_path.c_str(), features.rows, num_nodes));
    }
    UMGAD_RETURN_IF_ERROR(features.width_error);
    UMGAD_RETURN_IF_ERROR(features.value_error);
    attributes =
        Tensor(num_nodes, static_cast<int>(features.dim), features.values);
  } else {
    attributes = StructuralFeatures(edges.rel_edges, num_nodes);
  }

  std::vector<int> labels;
  if (!options.labels_path.empty()) {
    UMGAD_ASSIGN_OR_RETURN(labels, ParseLabelFile(options.labels_path,
                                                  options.delimiter,
                                                  num_nodes));
  }

  std::vector<SparseMatrix> layers;
  layers.reserve(edges.rel_edges.size());
  for (const std::vector<Edge>& rel : edges.rel_edges) {
    layers.push_back(
        SparseMatrix::FromEdges(num_nodes, rel, /*symmetrize=*/true));
  }

  UMGAD_ASSIGN_OR_RETURN(
      MultiplexGraph graph,
      MultiplexGraph::Create(options.name, std::move(attributes),
                             std::move(layers), std::move(edges.rel_names),
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
