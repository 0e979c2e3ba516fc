#include "graph/io/graph_io.h"

#include <cstdlib>
#include <fstream>

#include "common/string_util.h"
#include "graph/dataset_registry.h"
#include "graph/io/binary_format.h"
#include "graph/io/text_format.h"

namespace umgad {

namespace {

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

bool LooksLikeTextGraph(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  return std::getline(in, line) && Trim(line) == "umgad-graph v1";
}

}  // namespace

std::string DatasetDir() {
  const char* env = std::getenv("UMGAD_DATASET_DIR");
  return env == nullptr ? "" : env;
}

std::string FindDatasetFile(const std::string& name) {
  const std::string dir = DatasetDir();
  if (dir.empty()) return "";
  for (const char* ext : {kBinaryGraphExtension, kTextGraphExtension}) {
    const std::string candidate = dir + "/" + name + "." + ext;
    if (FileExists(candidate)) return candidate;
  }
  return "";
}

Status SaveGraphAuto(const MultiplexGraph& graph, const std::string& path) {
  if (EndsWith(path, std::string(".") + kBinaryGraphExtension)) {
    return SaveGraphBinary(graph, path);
  }
  return SaveGraph(graph, path);
}

Result<MultiplexGraph> LoadDataset(const std::string& path_or_name,
                                   const LoadDatasetOptions& options) {
  if (FileExists(path_or_name)) {
    if (LooksLikeBinaryGraph(path_or_name)) {
      return LoadGraphBinary(path_or_name);
    }
    if (LooksLikeTextGraph(path_or_name)) {
      return LoadGraph(path_or_name);
    }
    return ImportEdgeList(path_or_name, options.edge_list);
  }

  const DatasetRegistry& registry = DatasetRegistry::Global();
  if (registry.Contains(path_or_name)) {
    if (options.use_dataset_dir) {
      const std::string file = FindDatasetFile(path_or_name);
      if (!file.empty()) {
        return LoadDataset(file, options);
      }
    }
    return registry.Build(path_or_name, options.seed, options.scale);
  }

  return Status::NotFound(StrFormat(
      "'%s' is neither an existing file nor a registered dataset",
      path_or_name.c_str()));
}

}  // namespace umgad
