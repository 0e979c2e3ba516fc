#ifndef UMGAD_GRAPH_IO_GRAPH_IO_H_
#define UMGAD_GRAPH_IO_GRAPH_IO_H_

#include <string>

#include "common/result.h"
#include "graph/io/edge_list.h"
#include "graph/multiplex_graph.h"

namespace umgad {

/// Options for LoadDataset. `seed`/`scale` apply when the argument resolves
/// to a registered generator; `edge_list` applies when it resolves to a raw
/// edge-list file.
struct LoadDatasetOptions {
  uint64_t seed = 1;
  double scale = 1.0;
  /// When false, registered names always build in-process even if
  /// UMGAD_DATASET_DIR holds a file for them.
  bool use_dataset_dir = true;
  EdgeListOptions edge_list;
};

/// One entry point for every ingestion path. `path_or_name` is resolved in
/// order:
///
///   1. An existing file: the format is sniffed from the content — binary
///      magic -> binary loader, "umgad-graph v1" header -> text loader,
///      anything else -> the generic edge-list importer.
///   2. A registered dataset name: if UMGAD_DATASET_DIR is set and contains
///      "<name>.umgb" or "<name>.txt", that file is loaded (pre-generated
///      corpora; `umgad_cli gen` writes them); otherwise the graph is built
///      from its registry spec with (seed, scale).
///
/// Anything else is NotFound.
Result<MultiplexGraph> LoadDataset(const std::string& path_or_name,
                                   const LoadDatasetOptions& options = {});

/// The dataset directory from UMGAD_DATASET_DIR, or "" when unset.
std::string DatasetDir();

/// On-disk file backing a registered dataset name under UMGAD_DATASET_DIR
/// ("<dir>/<name>.umgb" preferred over "<dir>/<name>.txt"), or "" when the
/// env var is unset or no file exists.
std::string FindDatasetFile(const std::string& name);

/// Save in the format implied by the path's extension: ".umgb" -> binary,
/// anything else -> text.
Status SaveGraphAuto(const MultiplexGraph& graph, const std::string& path);

}  // namespace umgad

#endif  // UMGAD_GRAPH_IO_GRAPH_IO_H_
