#include "graph/io/text_format.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/string_util.h"
#include "graph/io/io_limits.h"

namespace umgad {

namespace {

// reserve() is capped independently of the declared edge count, so a corrupt
// count fails with "truncated edge list" instead of OOMing up front.
constexpr int64_t kEdgeReserveCap = 1 << 20;

}  // namespace

Status SaveGraph(const MultiplexGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  // max_digits10 makes the float->text->float attribute round trip
  // bit-exact.
  out.precision(std::numeric_limits<float>::max_digits10);
  out << "umgad-graph v1\n";
  out << "name " << graph.name() << "\n";
  out << "nodes " << graph.num_nodes() << "\n";
  out << "features " << graph.feature_dim() << "\n";
  out << "relations " << graph.num_relations() << "\n";
  out << "labeled " << (graph.has_labels() ? 1 : 0) << "\n";
  for (int r = 0; r < graph.num_relations(); ++r) {
    const SparseMatrix& layer = graph.layer(r);
    // Store each undirected edge once.
    std::vector<Edge> edges;
    const auto& rp = layer.row_ptr();
    const auto& ci = layer.col_idx();
    for (int i = 0; i < layer.rows(); ++i) {
      for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
        if (i <= ci[k]) edges.push_back(Edge{i, ci[k]});
      }
    }
    out << "relation " << graph.relation_name(r) << " " << edges.size()
        << "\n";
    for (const Edge& e : edges) out << e.src << " " << e.dst << "\n";
  }
  out << "attributes\n";
  const Tensor& x = graph.attributes();
  for (int i = 0; i < x.rows(); ++i) {
    const float* row = x.row(i);
    for (int j = 0; j < x.cols(); ++j) {
      if (j > 0) out << ' ';
      out << row[j];
    }
    out << '\n';
  }
  if (graph.has_labels()) {
    out << "labels\n";
    for (int label : graph.labels()) out << label << '\n';
  }
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

Result<MultiplexGraph> LoadGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::string line;
  // getline with CRLF tolerance: files edited/written on Windows carry a
  // trailing '\r' that would otherwise corrupt the rest-of-line name and
  // the strict relation-count parse.
  auto read_line = [&in](std::string* out) {
    if (!std::getline(in, *out)) return false;
    if (!out->empty() && out->back() == '\r') out->pop_back();
    return true;
  };
  if (!read_line(&line) || Trim(line) != "umgad-graph v1") {
    return Status::InvalidArgument(path + ": not a umgad-graph v1 file");
  }

  // The name is the rest of the line (dataset names may contain spaces).
  if (!read_line(&line) ||
      (line != "name" && line.rfind("name ", 0) != 0)) {
    return Status::InvalidArgument("missing 'name' header");
  }
  std::string name = line == "name" ? "" : line.substr(5);

  int64_t nodes = -1;
  int64_t features = -1;
  int64_t relations = -1;
  int64_t labeled = 0;
  auto read_kv = [&](const char* key, int64_t* value) -> Status {
    if (!read_line(&line)) {
      return Status::InvalidArgument(StrFormat("missing '%s' header", key));
    }
    std::istringstream ss(line);
    std::string k;
    ss >> k >> *value;
    if (k != key || ss.fail()) {
      return Status::InvalidArgument(StrFormat("bad '%s' header: %s", key,
                                               line.c_str()));
    }
    return Status::OK();
  };
  UMGAD_RETURN_IF_ERROR(read_kv("nodes", &nodes));
  UMGAD_RETURN_IF_ERROR(read_kv("features", &features));
  UMGAD_RETURN_IF_ERROR(read_kv("relations", &relations));
  UMGAD_RETURN_IF_ERROR(read_kv("labeled", &labeled));
  if (nodes <= 0 || features <= 0 || relations <= 0) {
    return Status::InvalidArgument("non-positive graph dimensions");
  }
  if (nodes > io_limits::kMaxNodes || features > io_limits::kMaxFeatures ||
      relations > io_limits::kMaxRelations ||
      io_limits::CheckedElemCount(nodes, features,
                                  io_limits::kMaxAttributeEntries) < 0) {
    return Status::InvalidArgument(StrFormat(
        "oversized header: %lld nodes x %lld features, %lld relations",
        static_cast<long long>(nodes), static_cast<long long>(features),
        static_cast<long long>(relations)));
  }

  // operator>> fails at the end of the file (a truncated section) or on a
  // token that is not a number, e.g. the "nan" numpy writes for a missing
  // value; the second case names the value's position.
  auto read_error = [&in](const char* section, const std::string& bad_value) {
    if (in.eof()) {
      return Status::InvalidArgument(StrFormat("truncated %s", section));
    }
    return Status::InvalidArgument(bad_value);
  };

  std::vector<SparseMatrix> layers;
  std::vector<std::string> rel_names;
  for (int r = 0; r < relations; ++r) {
    if (!read_line(&line)) {
      return Status::InvalidArgument("missing relation header");
    }
    // "relation <name...> <count>": the count is the last token so relation
    // names may contain spaces.
    std::vector<std::string> tokens = Split(line, ' ');
    if (tokens.size() < 3 || tokens.front() != "relation") {
      return Status::InvalidArgument("bad relation header: " + line);
    }
    int64_t edge_count = -1;
    {
      std::istringstream count_ss(tokens.back());
      count_ss >> edge_count;
      if (count_ss.fail() || !count_ss.eof()) {
        return Status::InvalidArgument("bad relation header: " + line);
      }
    }
    std::string rel_name = Join(
        std::vector<std::string>(tokens.begin() + 1, tokens.end() - 1), " ");
    if (edge_count < 0) {
      return Status::InvalidArgument(StrFormat(
          "negative edge count %lld for relation '%s'",
          static_cast<long long>(edge_count), rel_name.c_str()));
    }
    for (const std::string& seen : rel_names) {
      if (seen == rel_name) {
        return Status::InvalidArgument("duplicate relation name '" +
                                       rel_name + "'");
      }
    }
    std::vector<Edge> edges;
    edges.reserve(std::min(edge_count, kEdgeReserveCap));
    for (int64_t e = 0; e < edge_count; ++e) {
      Edge edge;
      if (!(in >> edge.src >> edge.dst)) {
        return read_error(
            "edge list",
            StrFormat("edge %lld of relation '%s' is not a pair of node ids",
                      static_cast<long long>(e), rel_name.c_str()));
      }
      if (edge.src < 0 || edge.src >= nodes || edge.dst < 0 ||
          edge.dst >= nodes) {
        return Status::OutOfRange(StrFormat("edge (%d, %d) out of range",
                                            edge.src, edge.dst));
      }
      edges.push_back(edge);
    }
    // Skip the line end operator>> left behind (one char for "\n", two for
    // CRLF) — only when edges were actually read; an empty relation ends
    // on its own header line and an unconditional skip would eat the next
    // line.
    if (edge_count > 0) {
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    layers.push_back(SparseMatrix::FromEdges(static_cast<int>(nodes), edges,
                                             /*symmetrize=*/true));
    rel_names.push_back(std::move(rel_name));
  }

  if (!read_line(&line) || Trim(line) != "attributes") {
    return Status::InvalidArgument("missing 'attributes' section");
  }
  Tensor x(static_cast<int>(nodes), static_cast<int>(features));
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      if (!(in >> x.at(i, j))) {
        return read_error(
            "attribute matrix",
            StrFormat("attribute (%d, %d) is not a finite number", i, j));
      }
    }
  }
  in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');

  std::vector<int> labels;
  if (labeled) {
    if (!read_line(&line) || Trim(line) != "labels") {
      return Status::InvalidArgument("missing 'labels' section");
    }
    labels.resize(nodes);
    for (int64_t i = 0; i < nodes; ++i) {
      if (!(in >> labels[i])) {
        return Status::InvalidArgument("truncated label list");
      }
    }
  }

  return MultiplexGraph::Create(name, std::move(x), std::move(layers),
                                std::move(rel_names), std::move(labels));
}

}  // namespace umgad
