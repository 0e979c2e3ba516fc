// Cross-loader differential harness: every on-disk representation of a
// graph must load back bit-for-bit identically — text v1, binary v3
// through LoadGraphBinary, binary v3 through LoadGraphMapped, and the
// edge-list dialect — for every registry dataset and any thread count. This
// is the io analogue of the kernel oracle sweeps: the reference is the
// in-memory graph the generators built, and each loader is an independent
// implementation that must reproduce its exact bits (memcmp on floats, so
// the check is NaN-proof and catches any precision loss).

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "graph/datasets.h"
#include "graph/io/binary_format.h"
#include "graph/io/edge_list.h"
#include "graph/io/mmap_format.h"
#include "graph/io/text_format.h"
#include "oracle_harness.h"

namespace umgad {
namespace {

using umgad::testing::ExpectGraphsBitIdentical;

MultiplexGraph BuildDataset(const std::string& name) {
  if (name == "Tiny") return MakeTiny(7);
  // Small but structurally non-trivial: multiple relations, subset layers,
  // injected anomalies, isolated tail nodes at this scale.
  Result<MultiplexGraph> g = MakeDataset(name, /*seed=*/7, /*scale=*/0.03);
  UMGAD_CHECK(g.ok());
  return std::move(*g);
}

class IoDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(IoDifferentialTest, AllLoadersBitIdentical) {
  const std::string name = GetParam();
  const MultiplexGraph reference = BuildDataset(name);

  const std::string base = ::testing::TempDir() + "/umgad_iodiff_" + name;
  const std::string text_path = base + ".txt";
  const std::string binary_path = base + ".umgb";
  const std::string edges_path = base + ".tsv";
  const std::string features_path = base + "_features.tsv";
  const std::string labels_path = base + "_labels.tsv";

  ASSERT_TRUE(SaveGraph(reference, text_path).ok());
  ASSERT_TRUE(SaveGraphBinary(reference, binary_path).ok());
  ASSERT_TRUE(
      ExportEdgeList(reference, edges_path, features_path, labels_path).ok());

  EdgeListOptions import;
  import.name = reference.name();
  import.features_path = features_path;
  import.labels_path = labels_path;
  for (int r = 0; r < reference.num_relations(); ++r) {
    import.relation_names.push_back(reference.relation_name(r));
  }

  const int saved_threads = NumThreads();
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    const std::string tag =
        name + " threads=" + std::to_string(threads) + " ";

    Result<MultiplexGraph> text = LoadGraph(text_path);
    ASSERT_TRUE(text.ok()) << tag << text.status().message();
    ExpectGraphsBitIdentical(tag + "text", *text, reference);

    Result<MultiplexGraph> binary = LoadGraphBinary(binary_path);
    ASSERT_TRUE(binary.ok()) << tag << binary.status().message();
    ExpectGraphsBitIdentical(tag + "binary", *binary, reference);

    Result<MultiplexGraph> mapped = LoadGraphMapped(binary_path);
    ASSERT_TRUE(mapped.ok()) << tag << mapped.status().message();
    ExpectGraphsBitIdentical(tag + "mmap", *mapped, reference);

    Result<MultiplexGraph> from_edges = ImportEdgeList(edges_path, import);
    ASSERT_TRUE(from_edges.ok()) << tag << from_edges.status().message();
    ExpectGraphsBitIdentical(tag + "edge-list", *from_edges, reference);
  }
  SetNumThreads(saved_threads);

  std::remove(text_path.c_str());
  std::remove(binary_path.c_str());
  std::remove(edges_path.c_str());
  std::remove(features_path.c_str());
  std::remove(labels_path.c_str());
}

std::string ParamName(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string out;
  for (const char c : info.param) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9')) {
      out.push_back(c);
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, IoDifferentialTest,
                         ::testing::Values("Retail", "Alibaba", "Amazon",
                                           "YelpChi", "DG-Fin", "T-Social",
                                           "Tiny"),
                         ParamName);

}  // namespace
}  // namespace umgad
