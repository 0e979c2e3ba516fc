#ifndef UMGAD_GRAPH_IO_EDGE_LIST_H_
#define UMGAD_GRAPH_IO_EDGE_LIST_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "graph/anomaly_injection.h"
#include "graph/multiplex_graph.h"

namespace umgad {

/// How ImportEdgeList decides whether the first data row is a header.
enum class HeaderMode {
  /// Header iff *neither* of the first two fields parses as an integer.
  /// (A mixed row like "0,weight" is data with a bad id — an error — not a
  /// silently dropped header; an all-numeric header needs kAlways.)
  kAuto,
  /// The first data row is always a header (covers all-numeric headers
  /// like "0,1,2" that kAuto cannot distinguish from data).
  kAlways,
  /// Every data row is data; a textual first row fails with "bad node ids".
  kNever,
};

/// Generic edge-list ingestion: the format real dataset dumps (Amazon,
/// YelpChi, exported fraud graphs) actually arrive in. Each line of the
/// edges file is
///
///   src <sep> dst [<sep> relation]
///
/// with `sep` auto-detected (tab, comma, or whitespace) or forced via
/// `delimiter`. Lines starting with '#' and blank lines are skipped; a
/// leading non-numeric header row is skipped per `header`. The optional
/// third column names the relation layer; without it the import is a
/// single-relation graph. Relations appear in first-seen order unless
/// `relation_names` pins the order up front.
///
/// Each of the three files is read whole (FileImage) and walked once, in
/// order, on the calling thread. An edges or labels diagnostic names the
/// 1-based physical line (comments, blanks and the header counted) of the
/// first bad row. The side files report a row-count mismatch before any bad
/// row; a features file then reports its first row of the wrong width, then
/// its first value that is not a finite number. The shared io_limits cap
/// relations, relation names, feature columns and nodes x relations, so
/// nothing is sized from an oversized count.
struct EdgeListOptions {
  /// Graph name recorded in the result.
  std::string name = "imported";

  /// Field separator; '\0' auto-detects per file (tab > comma > spaces).
  char delimiter = '\0';

  /// Header handling for the edges file (see HeaderMode).
  HeaderMode header = HeaderMode::kAuto;

  /// Node count; 0 infers (max node id + 1, or the feature-file row count
  /// when a features file is given).
  int num_nodes = 0;

  /// Expected relation layers in order. Empty = discover from the data;
  /// non-empty = exactly these (an edge naming an unknown relation is an
  /// error, a listed relation with no edges yields an empty layer).
  std::vector<std::string> relation_names;

  /// Optional per-node attribute rows (same delimiter rules, one row per
  /// node). Without it, deterministic structural features are synthesised:
  /// per-relation normalised degree plus a constant column.
  std::string features_path;

  /// Optional per-node 0/1 labels, one per line.
  std::string labels_path;

  /// When the import has no labels file, run Ding et al.'s anomaly
  /// injection on load so the graph is usable for evaluation out of the
  /// box (the Retail/Alibaba protocol applied to raw dumps).
  bool inject_if_unlabeled = false;
  InjectionConfig injection;
  uint64_t injection_seed = 1;
};

/// Import a multiplex graph from an on-disk edge list (plus optional
/// feature/label side files). Edges are treated as undirected; duplicates
/// collapse.
Result<MultiplexGraph> ImportEdgeList(const std::string& edges_path,
                                      const EdgeListOptions& options = {});

/// Writes `graph` back out in the dialect ImportEdgeList reads: one
/// tab-delimited `src dst relation` line per undirected edge (src <= dst,
/// each edge once), plus optional side files — features at max_digits10
/// (so re-importing reproduces every float bit-for-bit) and 0/1 labels one
/// per line. Fails if any adjacency value is not 1.0 (the text dialect
/// carries no weights) or if `labels_path` is set on an unlabeled graph.
/// Re-import with `relation_names` pinned to the graph's relations and the
/// exported features file (its row count preserves isolated tail nodes) to
/// round-trip exactly.
Status ExportEdgeList(const MultiplexGraph& graph,
                      const std::string& edges_path,
                      const std::string& features_path = "",
                      const std::string& labels_path = "");

}  // namespace umgad

#endif  // UMGAD_GRAPH_IO_EDGE_LIST_H_
