// Lifetime and safety pins for the mmap-backed .umgb reader. The mapping
// contract (docs/FORMATS.md) promises: the mapped bytes outlive every view
// handed out — across file deletion, double loads, wrapper destruction, and
// any destruction order; writes can never reach the mapping (the borrowed
// tensor rejects mutable access, the pages themselves are PROT_READ, and
// mutable_attributes() is copy-on-write); and saving over a mapped path
// replaces the file without disturbing the mapping. The resident-bytes
// meter is pinned too: a mapped load must not materialise the attribute
// section.

#include <cstdint>
#include <cstdio>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/datasets.h"
#include "graph/io/binary_format.h"
#include "graph/io/mmap_format.h"
#include "graph/multiplex_graph.h"
#include "oracle_harness.h"
#include "tensor/init.h"

namespace umgad {
namespace {

using umgad::testing::ExpectGraphsBitIdentical;

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + ".umgb";
}

/// Saves `g`, loads it back through the mapping, and fails the test if the
/// platform cannot map (callers GTEST_SKIP on !MmapSupported() first).
MappedGraph SaveAndMap(const MultiplexGraph& g, const std::string& path) {
  UMGAD_CHECK(SaveGraphBinary(g, path).ok());
  Result<MappedGraph> mapped = MappedGraph::Load(path);
  UMGAD_CHECK(mapped.ok());
  UMGAD_CHECK(mapped->mapped());
  return std::move(*mapped);
}

TEST(MmapSafetyTest, MappingSurvivesFileDeletion) {
  if (!MmapSupported()) GTEST_SKIP() << "no mmap on this platform";
  const std::string path = TempPath("umgad_mmap_unlink");
  const MultiplexGraph reference = MakeTiny(5);
  MappedGraph mapped = SaveAndMap(reference, path);
  // POSIX keeps the inode alive while the mapping holds a reference; every
  // byte must still read back after the path is gone.
  ASSERT_EQ(std::remove(path.c_str()), 0);
  ExpectGraphsBitIdentical("after unlink", mapped.graph(), reference);
}

TEST(MmapSafetyTest, DoubleLoadYieldsIndependentMappings) {
  if (!MmapSupported()) GTEST_SKIP() << "no mmap on this platform";
  const std::string path = TempPath("umgad_mmap_double");
  const MultiplexGraph reference = MakeTiny(5);
  MappedGraph first = SaveAndMap(reference, path);
  Result<MappedGraph> second = MappedGraph::Load(path);
  ASSERT_TRUE(second.ok());
  // Destroy the first mapping; the second must be unaffected (each load
  // owns its own mapping, nothing is shared or cached between them).
  { MappedGraph discard = std::move(first); }
  ExpectGraphsBitIdentical("second load", second->graph(), reference);
  std::remove(path.c_str());
}

TEST(MmapSafetyTest, GraphOutlivesWrapperAndLayerOutlivesGraph) {
  if (!MmapSupported()) GTEST_SKIP() << "no mmap on this platform";
  const std::string path = TempPath("umgad_mmap_lifetime");
  const MultiplexGraph reference = MakeTiny(5);
  SparseMatrix layer;
  {
    MultiplexGraph graph;
    {
      MappedGraph mapped = SaveAndMap(reference, path);
      graph = mapped.TakeGraph();
      // Wrapper dies here; the views' keepalives hold the mapping.
    }
    ExpectGraphsBitIdentical("after wrapper death", graph, reference);
    layer = graph.layer(0);
    // Graph dies here; the layer's keepalive still holds the mapping.
  }
  EXPECT_EQ(layer.row_ptr(), reference.layer(0).row_ptr());
  EXPECT_EQ(layer.col_idx(), reference.layer(0).col_idx());
  std::remove(path.c_str());
}

TEST(MmapSafetyTest, MutableAttributesIsCopyOnWrite) {
  if (!MmapSupported()) GTEST_SKIP() << "no mmap on this platform";
  const std::string path = TempPath("umgad_mmap_cow");
  const MultiplexGraph reference = MakeTiny(5);
  MappedGraph mapped = SaveAndMap(reference, path);
  MultiplexGraph graph = mapped.TakeGraph();
  ASSERT_TRUE(graph.attributes().borrowed());
  // The first mutable request materialises an owned copy; writes land in
  // the copy and the mapped bytes (re-read via a fresh load) are untouched.
  Tensor& attrs = graph.mutable_attributes();
  EXPECT_FALSE(graph.attributes().borrowed());
  attrs.at(0, 0) = 1234.5f;
  EXPECT_EQ(graph.attributes().at(0, 0), 1234.5f);
  Result<MappedGraph> fresh = MappedGraph::Load(path);
  ASSERT_TRUE(fresh.ok());
  ExpectGraphsBitIdentical("mapped bytes after COW write", fresh->graph(),
                           reference);
  std::remove(path.c_str());
}

TEST(MmapSafetyTest, SaveOverMappedPathKeepsMappedBytes) {
  if (!MmapSupported()) GTEST_SKIP() << "no mmap on this platform";
  const std::string path = TempPath("umgad_mmap_overwrite");
  const MultiplexGraph reference = MakeTiny(5);
  // Far smaller than the mapped file, so an in-place truncation would
  // leave most mapped pages past EOF and SIGBUS the reads below.
  auto replacement = MultiplexGraph::Create(
      "small", Tensor(2, 1), {SparseMatrix::FromEdges(2, {Edge{0, 1}}, true)},
      {"r"});
  ASSERT_TRUE(replacement.ok());
  MappedGraph mapped = SaveAndMap(reference, path);
  // Saving over the mapped path replaces the file by rename: the mapping
  // keeps the old inode, so its bytes neither change nor vanish.
  ASSERT_TRUE(SaveGraphBinary(*replacement, path).ok());
  ExpectGraphsBitIdentical("mapped after overwrite", mapped.graph(),
                           reference);
  Result<MultiplexGraph> fresh = LoadGraphBinary(path);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectGraphsBitIdentical("fresh load after overwrite", *fresh,
                           *replacement);
  std::remove(path.c_str());
}

#if defined(POSIX_FADV_DONTNEED)
void EvictFromPageCache(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  fdatasync(fd);
  posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  close(fd);
}

TEST(MmapSafetyTest, LoadDoesNotMaterialiseTheAttributeSection) {
  if (!MmapSupported()) GTEST_SKIP() << "no mmap on this platform";
  // Attribute-heavy graph: 4096 x 128 floats (2 MB) dwarf the CSR arrays,
  // so a loader that faults the attribute section in is unmissable.
  Rng rng(21);
  Tensor x = RandomNormal(4096, 128, 0, 1, &rng);
  SparseMatrix a = SparseMatrix::FromEdges(
      4096, {Edge{0, 1}, Edge{1, 2}, Edge{100, 2000}}, true);
  auto built = MultiplexGraph::Create("fat", std::move(x), {a}, {"r"});
  ASSERT_TRUE(built.ok());
  const std::string path = TempPath("umgad_mmap_resident");
  ASSERT_TRUE(SaveGraphBinary(*built, path).ok());
  EvictFromPageCache(path);
  Result<MappedGraph> mapped = MappedGraph::Load(path);
  ASSERT_TRUE(mapped.ok() && mapped->mapped());
  const int64_t resident = mapped->resident_bytes();
  const int64_t file = mapped->file_bytes();
  EXPECT_GT(resident, 0);
  EXPECT_LE(resident, file);
  // The load reads the header and row_ptr (~32 KB here) and nothing of the
  // 2 MB attribute section; half the file is a generous ceiling that still
  // fails hard if the loader (or stray readahead) pulls attributes in.
  EXPECT_LT(resident, file / 2)
      << "mapped load materialised most of the file";
  std::remove(path.c_str());
}
#endif  // POSIX_FADV_DONTNEED

TEST(MmapSafetyDeathTest, BorrowedTensorRejectsMutableAccess) {
  if (!MmapSupported()) GTEST_SKIP() << "no mmap on this platform";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = TempPath("umgad_mmap_borrowed_write");
  const MultiplexGraph reference = MakeTiny(5);
  MappedGraph mapped = SaveAndMap(reference, path);
  // Tensor's mutable accessors UMGAD_CHECK-fail on borrowed storage — the
  // only sanctioned mutable route is mutable_attributes(), which is COW.
  // (A Tensor *copy* of borrowed storage materialises an owned buffer, so
  // the view itself must be re-borrowed here to exercise the rejection.)
  Tensor view = Tensor::FromBorrowed(
      mapped.graph().attributes().data(), mapped.graph().num_nodes(),
      mapped.graph().feature_dim(), std::make_shared<int>(0));
  ASSERT_TRUE(view.borrowed());
  EXPECT_DEATH({ view.data()[0] = 1.0f; }, "");
  std::remove(path.c_str());
}

TEST(MmapSafetyDeathTest, WritingThroughTheMappingFaults) {
  if (!MmapSupported()) GTEST_SKIP() << "no mmap on this platform";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = TempPath("umgad_mmap_protread");
  const MultiplexGraph reference = MakeTiny(5);
  MappedGraph mapped = SaveAndMap(reference, path);
  // Even a const_cast around every software check dies on the hardware
  // protection: the pages are PROT_READ.
  const float* attr = mapped.graph().attributes().data();
  EXPECT_DEATH(
      { *const_cast<float*>(attr) = 1.0f; }, "");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace umgad
