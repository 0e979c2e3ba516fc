// Corruption fuzzing for the untrusted inputs: .umgb graph images, edge
// lists, .umgm model artifacts, and serve update-stream lines. Every
// mutation of a valid input — truncation at every byte length, seeded
// random byte flips, hostile counts at computed offsets — must come back
// as a Status (or as a successfully loaded, usable object, for flips in
// bytes that are not structurally validated), never as a crash, a hang, or
// an attempted huge allocation. LoadGraphBinary and LoadGraphMapped run
// the same parse over differently read bytes, so the two must also
// *agree*: same ok-ness on every mutant, bit-identical graphs whenever
// both accept.
// Value mutations — NaN, +-Inf and subnormal values in the attribute,
// edge-weight and .umgm weight sections of every format, and a moved
// column index that breaks symmetry — must fail with a Status naming the
// position, except subnormals, which are finite and must load.

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/model_io.h"
#include "core/umgad.h"
#include "graph/datasets.h"
#include "graph/io/binary_format.h"
#include "graph/io/edge_list.h"
#include "graph/io/graph_io.h"
#include "graph/io/mmap_format.h"
#include "graph/io/text_format.h"
#include "graph/multiplex_graph.h"
#include "oracle_harness.h"
#include "serve/online_scorer.h"
#include "tensor/autograd.h"
#include "tensor/init.h"

namespace umgad {
namespace {

using umgad::testing::ExpectGraphsBitIdentical;

/// Small on purpose: the truncation sweep writes one file per byte of
/// image, so the fixture graph keeps the image in the low kilobytes while
/// still exercising every section (two relations, attributes, labels).
MultiplexGraph FuzzGraph() {
  Rng rng(11);
  Tensor x = RandomNormal(6, 3, 0, 1, &rng);
  SparseMatrix a = SparseMatrix::FromEdges(
      6, {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}, Edge{0, 5}}, true);
  SparseMatrix b = SparseMatrix::FromEdges(6, {Edge{3, 4}, Edge{4, 5}}, true);
  auto g = MultiplexGraph::Create("fuzz", x, {a, b}, {"r1", "r2"},
                                  {0, 0, 1, 0, 0, 1});
  UMGAD_CHECK(g.ok());
  return std::move(*g);
}

/// Writes `bytes` to a fresh file at `path`. Unlinking the old file first,
/// rather than truncating it, keeps ext4's replace-via-truncate heuristic
/// from flushing every rewrite to disk; at one rewrite per prefix in the
/// loops below, those flushes cost minutes of waiting.
void WriteImage(const std::string& path, const std::string& bytes) {
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class IoFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Each test case runs as its own ctest process, concurrently under
    // `ctest -j` — the scratch file must be per-test, or one process
    // rewrites the mutant another is loading.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/umgad_fuzz_" + info->name() + ".umgb";
    const MultiplexGraph g = FuzzGraph();
    ASSERT_TRUE(SaveGraphBinary(g, path_).ok());
    image_ = ReadBytes(path_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Loads the current on-disk mutant through both readers and enforces
  /// the agreement contract. Returns the copying reader's verdict.
  bool LoadBothAndCheckAgreement(const std::string& what) {
    Result<MultiplexGraph> copy = LoadGraphBinary(path_);
    Result<MultiplexGraph> mapped = LoadGraphMapped(path_);
    EXPECT_EQ(copy.ok(), mapped.ok())
        << what << ": copying reader says "
        << (copy.ok() ? "ok" : copy.status().message())
        << ", mmap reader says "
        << (mapped.ok() ? "ok" : mapped.status().message());
    if (copy.ok() && mapped.ok()) {
      ExpectGraphsBitIdentical(what, *mapped, *copy);
    }
    return copy.ok();
  }

  std::string path_;
  std::string image_;
};

TEST_F(IoFuzzTest, TruncationAtEveryLengthIsAStatus) {
  // Every strict prefix of a valid image is invalid: the reader consumes
  // sections in order and the trailer magic sits at the very end, so a
  // truncation either starves a bounded read or loses the trailer.
  for (size_t len = 0; len < image_.size(); ++len) {
    WriteImage(path_, image_.substr(0, len));
    Result<MultiplexGraph> copy = LoadGraphBinary(path_);
    Result<MultiplexGraph> mapped = LoadGraphMapped(path_);
    EXPECT_FALSE(copy.ok()) << "copying reader accepted a " << len
                            << "-byte prefix of a " << image_.size()
                            << "-byte image";
    EXPECT_FALSE(mapped.ok()) << "mmap reader accepted a " << len
                              << "-byte prefix of a " << image_.size()
                              << "-byte image";
  }
}

TEST_F(IoFuzzTest, SeededByteFlipsNeverCrashAndReadersAgree) {
  Rng rng(0xF0552ULL);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutant = image_;
    // One to three byte flips per trial; xor with a nonzero mask so every
    // flip really changes the image.
    const int flips = 1 + static_cast<int>(rng.UniformInt(3));
    std::string what = "flip trial " + std::to_string(trial) + " @";
    for (int f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(rng.UniformInt(mutant.size()));
      const unsigned char mask =
          static_cast<unsigned char>(1 + rng.UniformInt(255));
      mutant[at] = static_cast<char>(
          static_cast<unsigned char>(mutant[at]) ^ mask);
      what += " " + std::to_string(at);
    }
    WriteImage(path_, mutant);
    LoadBothAndCheckAgreement(what);
  }
}

TEST_F(IoFuzzTest, SeededTailGrowthAndShrink) {
  // Appending junk leaves the trailer in the wrong place; doubling the
  // image embeds a second header the reader must never reach.
  WriteImage(path_, image_ + std::string(17, '\x5a'));
  EXPECT_FALSE(LoadBothAndCheckAgreement("17 junk bytes appended"));
  WriteImage(path_, image_ + image_);
  EXPECT_FALSE(LoadBothAndCheckAgreement("image doubled"));
}

/// Offset of the u64 node-count field: magic + version + flags (12), then
/// the length-prefixed name.
size_t NodeCountOffset(const std::string& image) {
  uint32_t name_len = 0;
  std::memcpy(&name_len, image.data() + 12, sizeof(name_len));
  return 12 + 4 + name_len;
}

TEST_F(IoFuzzTest, HostileHeaderCountsAreAStatusNotAnAllocation) {
  const size_t nodes_at = NodeCountOffset(image_);
  const size_t features_at = nodes_at + 8;
  const size_t relations_at = nodes_at + 16;
  // First relation: length-prefixed name then the u64 nnz.
  uint32_t rel_name_len = 0;
  std::memcpy(&rel_name_len, image_.data() + nodes_at + 24,
              sizeof(rel_name_len));
  const size_t nnz_at = nodes_at + 24 + 4 + rel_name_len;

  const uint64_t hostile[] = {
      0,                         // empty — "oversized or empty header"
      1ULL << 32,                // past every io_limits cap
      1ULL << 62,                // would overflow a size computation
      1ULL << 63,                // negative once cast to int64
      0xFFFFFFFFFFFFFFFFULL,
  };
  for (const size_t field_at : {nodes_at, features_at, relations_at, nnz_at}) {
    for (const uint64_t value : hostile) {
      std::string mutant = image_;
      std::memcpy(&mutant[field_at], &value, sizeof(value));
      WriteImage(path_, mutant);
      EXPECT_FALSE(LoadBothAndCheckAgreement(
          "hostile count " + std::to_string(value) + " at offset " +
          std::to_string(field_at)))
          << "a reader accepted a hostile section count";
    }
  }

  // A hostile string length: the name's own length prefix pointing past
  // the end of the file.
  std::string mutant = image_;
  const uint32_t huge_len = 0xFFFFFFFFu;
  std::memcpy(&mutant[12], &huge_len, sizeof(huge_len));
  WriteImage(path_, mutant);
  EXPECT_FALSE(LoadBothAndCheckAgreement("hostile name length"));
}

/// The edge-list oracle for one mutant. A rejected mutant fails with
/// InvalidArgument or OutOfRange and a message that starts with one of
/// `paths`. An accepted one survives ExportEdgeList (with its features and
/// labels, written next to `base`) and a re-import bit for bit.
void CheckEdgeListMutant(const std::string& what,
                         const Result<MultiplexGraph>& imported,
                         const std::vector<std::string>& paths,
                         const std::string& base) {
  if (!imported.ok()) {
    const Status& status = imported.status();
    EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
                status.code() == StatusCode::kOutOfRange)
        << what << ": " << status.ToString();
    bool named = false;
    for (const std::string& path : paths) {
      named = named || status.message().rfind(path + ": ", 0) == 0;
    }
    EXPECT_TRUE(named) << what << ": " << status.message();
    return;
  }
  const MultiplexGraph& graph = *imported;
  EdgeListOptions again;
  again.name = graph.name();
  again.features_path = base + "_features.tsv";
  if (graph.has_labels()) again.labels_path = base + "_labels.tsv";
  for (int r = 0; r < graph.num_relations(); ++r) {
    again.relation_names.push_back(graph.relation_name(r));
  }
  ASSERT_TRUE(ExportEdgeList(graph, base + ".tsv", again.features_path,
                             again.labels_path)
                  .ok())
      << what;
  Result<MultiplexGraph> reimported = ImportEdgeList(base + ".tsv", again);
  ASSERT_TRUE(reimported.ok()) << what << ": "
                               << reimported.status().message();
  ExpectGraphsBitIdentical(what, *reimported, graph);
}

/// 200 seeded mutants of `text`, each a byte flip or a truncation, written
/// to `target` and imported as `edges_path` with `options`; every one goes
/// through CheckEdgeListMutant.
void FuzzEdgeListFile(uint64_t seed, const std::string& target,
                      const std::string& text, const std::string& edges_path,
                      const EdgeListOptions& options,
                      const std::vector<std::string>& paths) {
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutant = text;
    const size_t at = static_cast<size_t>(rng.UniformInt(mutant.size()));
    std::string what = target + " trial " + std::to_string(trial) + ": ";
    if (rng.Bernoulli(0.5)) {
      mutant[at] = static_cast<char>(
          static_cast<unsigned char>(mutant[at]) ^
          static_cast<unsigned char>(1 + rng.UniformInt(255)));
      what += "flip at " + std::to_string(at);
    } else {
      mutant.resize(at);
      what += "truncated to " + std::to_string(at);
    }
    WriteImage(target, mutant);
    CheckEdgeListMutant(what, ImportEdgeList(edges_path, options), paths,
                        target + "_roundtrip");
  }
  for (const char* suffix : {".tsv", "_features.tsv", "_labels.tsv"}) {
    std::remove((target + "_roundtrip" + suffix).c_str());
  }
}

TEST_F(IoFuzzTest, EdgeListFuzzNeverCrashes) {
  // The text importer gets the same treatment: seeded mutations of a valid
  // export — truncations and byte flips, including ones that corrupt ids,
  // field counts, and relation names — must parse or fail cleanly.
  const MultiplexGraph g = FuzzGraph();
  const std::string edges_path = ::testing::TempDir() + "/umgad_fuzz.tsv";
  ASSERT_TRUE(ExportEdgeList(g, edges_path).ok());
  FuzzEdgeListFile(0xED6E5ULL, edges_path, ReadBytes(edges_path), edges_path,
                   EdgeListOptions(), {edges_path});
  std::remove(edges_path.c_str());
}

TEST_F(IoFuzzTest, EdgeListSideFilesFuzzNeverCrash) {
  // The features and labels files are untrusted too. A features mutant can
  // change the node count, so its rejection may name the edges file.
  const MultiplexGraph g = FuzzGraph();
  const std::string base = ::testing::TempDir() + "/umgad_fuzz_side";
  const std::string edges_path = base + ".tsv";
  const std::string features_path = base + "_features.tsv";
  const std::string labels_path = base + "_labels.tsv";
  ASSERT_TRUE(
      ExportEdgeList(g, edges_path, features_path, labels_path).ok());
  EdgeListOptions options;
  options.relation_names = {"r1", "r2"};
  options.features_path = features_path;
  FuzzEdgeListFile(0xFEA7ULL, features_path, ReadBytes(features_path),
                   edges_path, options, {features_path, edges_path});

  ASSERT_TRUE(
      ExportEdgeList(g, edges_path, features_path, labels_path).ok());
  options.labels_path = labels_path;
  FuzzEdgeListFile(0x1ABE1ULL, labels_path, ReadBytes(labels_path),
                   edges_path, options, {labels_path});
  std::remove(edges_path.c_str());
  std::remove(features_path.c_str());
  std::remove(labels_path.c_str());
}

// ------------------------- non-finite and subnormal values ---------------

const float kNonFinite[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
const float kSubnormal[] = {std::numeric_limits<float>::denorm_min(),
                            -1e-40f};

template <typename T>
T PodAt(const std::string& bytes, size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

template <typename T>
void PatchPod(std::string* bytes, size_t at, T value) {
  std::memcpy(&(*bytes)[at], &value, sizeof(value));
}

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Byte offsets of relation 0's col_idx and values arrays and of the
/// attribute section in a v3 .umgb image, walked from the header by the
/// layout in docs/FORMATS.md (every bulk array starts at the next 8-byte
/// file offset).
struct ImageSections {
  size_t col_idx = 0;
  size_t values = 0;
  size_t attributes = 0;
};

ImageSections LocateSections(const std::string& image) {
  auto align8 = [](size_t at) { return (at + 7) / 8 * 8; };
  size_t at = NodeCountOffset(image);
  const uint64_t nodes = PodAt<uint64_t>(image, at);
  const uint64_t relations = PodAt<uint64_t>(image, at + 16);
  at += 24;
  ImageSections out;
  for (uint64_t r = 0; r < relations; ++r) {
    at += 4 + PodAt<uint32_t>(image, at);  // relation name
    const uint64_t nnz = PodAt<uint64_t>(image, at);
    const size_t col_idx = align8(at + 8) + 8 * (nodes + 1);
    const size_t values = col_idx + 4 * nnz;
    if (r == 0) {
      out.col_idx = col_idx;
      out.values = values;
    }
    at = values + 4 * nnz;
  }
  out.attributes = align8(at);
  return out;
}

/// Both .umgb loads of the on-disk image fail with an InvalidArgument whose
/// message contains `want`.
void ExpectBothLoadsFail(const std::string& path, const std::string& want,
                         const std::string& what) {
  Result<MultiplexGraph> copy = LoadGraphBinary(path);
  Result<MultiplexGraph> mapped = LoadGraphMapped(path);
  ASSERT_FALSE(copy.ok()) << what << ": the copying load accepted it";
  ASSERT_FALSE(mapped.ok()) << what << ": the mapped load accepted it";
  EXPECT_EQ(copy.status().code(), StatusCode::kInvalidArgument) << what;
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument) << what;
  EXPECT_NE(copy.status().message().find(want), std::string::npos)
      << what << ": " << copy.status().message();
  EXPECT_NE(mapped.status().message().find(want), std::string::npos)
      << what << ": " << mapped.status().message();
}

TEST_F(IoFuzzTest, SectionWalkFindsTheArrays) {
  // The value tests below patch the offsets LocateSections computes; it
  // must land on the arrays it names.
  const MultiplexGraph g = FuzzGraph();
  const ImageSections at = LocateSections(image_);
  const SparseMatrix& layer = g.layer(0);
  for (int64_t k = 0; k < layer.nnz(); ++k) {
    EXPECT_EQ(PodAt<int32_t>(image_, at.col_idx + 4 * k), layer.col_idx()[k]);
    EXPECT_TRUE(
        SameBits(PodAt<float>(image_, at.values + 4 * k), layer.values()[k]));
  }
  for (int64_t k = 0; k < g.attributes().size(); ++k) {
    EXPECT_TRUE(SameBits(PodAt<float>(image_, at.attributes + 4 * k),
                         g.attributes().data()[k]));
  }
}

TEST_F(IoFuzzTest, NonFiniteWeightsFailBothLoadsAtTheirEntry) {
  const MultiplexGraph g = FuzzGraph();
  const SparseMatrix& layer = g.layer(0);
  const size_t values_at = LocateSections(image_).values;
  // The first and last stored entries of relation 0: (0, 1) and (5, 0).
  const int64_t last = layer.nnz() - 1;
  ASSERT_EQ(layer.col_idx()[0], 1);
  ASSERT_EQ(layer.col_idx()[last], 0);
  for (const int64_t k : {int64_t{0}, last}) {
    const std::string entry = k == 0 ? "(0, 1)" : "(5, 0)";
    for (const float bad : kNonFinite) {
      std::string mutant = image_;
      PatchPod(&mutant, values_at + 4 * k, bad);
      WriteImage(path_, mutant);
      ExpectBothLoadsFail(path_, "layer 0 (r1) has a non-finite weight at " +
                                     entry,
                          "weight " + std::to_string(bad) + " at " + entry);
    }
    // Subnormal weights are finite: both loads keep them bit for bit.
    for (const float tiny : kSubnormal) {
      std::string mutant = image_;
      PatchPod(&mutant, values_at + 4 * k, tiny);
      WriteImage(path_, mutant);
      ASSERT_TRUE(LoadBothAndCheckAgreement("subnormal weight at " + entry));
      Result<MultiplexGraph> copy = LoadGraphBinary(path_);
      EXPECT_TRUE(SameBits(copy->layer(0).values()[k], tiny)) << entry;
    }
  }
}

TEST_F(IoFuzzTest, MovedColumnIndexFailsBothLoadsAsAsymmetric) {
  // Row 0 of relation 0 holds columns {1, 5}. Moving 5 to 4 keeps the row
  // sorted and in range, so only the symmetry check can catch it: (0, 4)
  // has no mirror (4, 0).
  const MultiplexGraph g = FuzzGraph();
  const SparseMatrix& layer = g.layer(0);
  ASSERT_EQ(layer.row_ptr()[1], 2);
  ASSERT_EQ(layer.col_idx()[1], 5);
  std::string mutant = image_;
  PatchPod<int32_t>(&mutant, LocateSections(image_).col_idx + 4, 4);
  WriteImage(path_, mutant);
  ExpectBothLoadsFail(path_, "layer 0 (r1) is not symmetric at (0, 4)",
                      "column 5 moved to 4");
}

TEST_F(IoFuzzTest, NonFiniteAttributesFailBothLoadsAtTheirCell) {
  const int cols = FuzzGraph().feature_dim();
  const size_t cell_at = LocateSections(image_).attributes + 4 * (4 * cols + 2);
  for (const float bad : kNonFinite) {
    std::string mutant = image_;
    PatchPod(&mutant, cell_at, bad);
    WriteImage(path_, mutant);
    ExpectBothLoadsFail(path_, "attribute (4, 2) is not finite",
                        "attribute " + std::to_string(bad));
  }
  // Subnormal attributes are finite: both loads keep them bit for bit.
  for (const float tiny : kSubnormal) {
    std::string mutant = image_;
    PatchPod(&mutant, cell_at, tiny);
    WriteImage(path_, mutant);
    ASSERT_TRUE(LoadBothAndCheckAgreement("subnormal attribute"));
    Result<MultiplexGraph> copy = LoadGraphBinary(path_);
    EXPECT_TRUE(SameBits(copy->attributes().at(4, 2), tiny));
  }
}

TEST_F(IoFuzzTest, NonFiniteAttributesFailLoadDatasetAtTheirCell) {
  const int cols = FuzzGraph().feature_dim();
  const size_t cell_at = LocateSections(image_).attributes + 4 * (4 * cols + 2);
  for (const float bad : kNonFinite) {
    std::string mutant = image_;
    PatchPod(&mutant, cell_at, bad);
    WriteImage(path_, mutant);
    Result<MultiplexGraph> loaded = LoadDataset(path_);
    ASSERT_FALSE(loaded.ok()) << "LoadDataset accepted " << bad;
    EXPECT_NE(loaded.status().message().find("attribute (4, 2) is not finite"),
              std::string::npos)
        << loaded.status().message();
  }
  for (const float tiny : kSubnormal) {
    std::string mutant = image_;
    PatchPod(&mutant, cell_at, tiny);
    WriteImage(path_, mutant);
    Result<MultiplexGraph> loaded = LoadDataset(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(SameBits(loaded->attributes().at(4, 2), tiny));
  }
}

/// `text` with field `col` of line `row` (counted from `block_start`;
/// fields split on spaces and tabs) replaced by `token`.
std::string ReplaceField(const std::string& text, size_t block_start, int row,
                         int col, const std::string& token) {
  size_t at = block_start;
  for (int r = 0; r < row; ++r) at = text.find('\n', at) + 1;
  for (int c = 0; c < col; ++c) at = text.find_first_of(" \t", at) + 1;
  const size_t end = text.find_first_of(" \t\n", at);
  return text.substr(0, at) + token + text.substr(end);
}

TEST(IoFuzzValueTest, TextAttributesNameTheCellAndKeepSubnormals) {
  // The text format and the edge-list features file spell values in
  // decimal: nan, inf and an overflowing literal must fail at their (row,
  // col) through LoadDataset, and subnormal literals must load.
  const MultiplexGraph g = FuzzGraph();
  const std::string dir = ::testing::TempDir();
  const std::string text_path = dir + "/umgad_fuzz_values.txt";
  const std::string edges_path = dir + "/umgad_fuzz_values.tsv";
  const std::string features_path = dir + "/umgad_fuzz_values_features.tsv";
  ASSERT_TRUE(SaveGraph(g, text_path).ok());
  ASSERT_TRUE(ExportEdgeList(g, edges_path, features_path).ok());
  const std::string text = ReadBytes(text_path);
  const std::string features = ReadBytes(features_path);
  const size_t text_block = text.find("attributes\n") + 11;

  LoadDatasetOptions edge_list;
  edge_list.edge_list.features_path = features_path;
  edge_list.edge_list.relation_names = {"r1", "r2"};
  for (const char* bad : {"nan", "inf", "-inf", "1e39"}) {
    WriteImage(text_path, ReplaceField(text, text_block, 4, 2, bad));
    Result<MultiplexGraph> from_text = LoadDataset(text_path);
    ASSERT_FALSE(from_text.ok()) << "text format accepted " << bad;
    EXPECT_NE(from_text.status().message().find(
                  "attribute (4, 2) is not a finite number"),
              std::string::npos)
        << bad << ": " << from_text.status().message();

    WriteImage(features_path, ReplaceField(features, 0, 4, 2, bad));
    Result<MultiplexGraph> from_edges = LoadDataset(edges_path, edge_list);
    ASSERT_FALSE(from_edges.ok()) << "edge list accepted " << bad;
    EXPECT_NE(from_edges.status().message().find(
                  "attribute (4, 2) is not a finite number"),
              std::string::npos)
        << bad << ": " << from_edges.status().message();
  }
  for (const char* tiny : {"1.40129846e-45", "-1e-40"}) {
    const float want = std::strtof(tiny, nullptr);
    WriteImage(text_path, ReplaceField(text, text_block, 4, 2, tiny));
    Result<MultiplexGraph> from_text = LoadDataset(text_path);
    ASSERT_TRUE(from_text.ok()) << tiny << ": "
                                << from_text.status().ToString();
    EXPECT_TRUE(SameBits(from_text->attributes().at(4, 2), want)) << tiny;

    WriteImage(features_path, ReplaceField(features, 0, 4, 2, tiny));
    Result<MultiplexGraph> from_edges = LoadDataset(edges_path, edge_list);
    ASSERT_TRUE(from_edges.ok()) << tiny << ": "
                                 << from_edges.status().ToString();
    EXPECT_TRUE(SameBits(from_edges->attributes().at(4, 2), want)) << tiny;
  }
  std::remove(text_path.c_str());
  std::remove(edges_path.c_str());
  std::remove(features_path.c_str());
}

// ------------------------- .umgm model artifacts --------------------------

/// Byte offsets inside a v2 .umgm image (docs/FORMATS.md): 12-byte header,
/// u32 config length, the 116-byte config, then the fingerprint.
constexpr size_t kHiddenDimAt = 20;
constexpr size_t kEncoderLayersAt = 24;
constexpr size_t kDecoderLayersAt = 28;
constexpr size_t kScoreNegativesAt = 112;
constexpr size_t kNumNodesAt = 132;
constexpr size_t kFeatureDimAt = 136;
constexpr size_t kNumRelationsAt = 140;

class IoFuzzModelTest : public ::testing::Test {
 protected:
  /// Fits a deliberately tiny model (6 nodes, hidden width 2, one epoch)
  /// so the per-byte truncation sweep stays cheap, and snapshots it.
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/umgad_fuzz_" + info->name() + ".umgm";
    UmgadConfig config;
    config.epochs = 1;
    config.hidden_dim = 2;
    config.mask_repeats = 1;
    config.num_subgraphs = 1;
    config.subgraph_size = 3;
    config.num_score_negatives = 2;
    config.seed = 3;
    UmgadModel model(config);
    ASSERT_TRUE(model.Fit(graph_).ok());
    Result<TrainedModel> trained = TrainedModel::FromFitted(model, graph_);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    ASSERT_TRUE(trained->Save(path_).ok());
    image_ = ReadBytes(path_);
    tensor_count_at_ =
        kNumRelationsAt + 4 + 8 * graph_.num_relations() + 8 + 41;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Loads the mutant. When Load accepts it, the object must be usable:
  /// rebuilding its views and standing up a scorer over the fuzz graph
  /// each end in a Status or a working object. Returns Load's verdict.
  bool LoadAndUse(const std::string& mutant) {
    WriteImage(path_, mutant);
    Result<TrainedModel> loaded = TrainedModel::Load(path_);
    if (!loaded.ok()) return false;
    {
      ag::ParamScope params;
      (void)loaded->BuildViews();
    }
    (void)serve::OnlineScorer::Create(*std::move(loaded), graph_);
    return true;
  }

  template <typename T>
  std::string Patched(size_t at, T value) const {
    std::string mutant = image_;
    std::memcpy(&mutant[at], &value, sizeof(value));
    return mutant;
  }

  const MultiplexGraph graph_ = FuzzGraph();
  std::string path_;
  std::string image_;
  size_t tensor_count_at_ = 0;
};

TEST_F(IoFuzzModelTest, TruncationAtEveryLengthIsAStatus) {
  ASSERT_TRUE(LoadAndUse(image_));
  // The trailer magic sits at the very end, so every strict prefix either
  // starves a bounded read or loses the trailer.
  for (size_t len = 0; len < image_.size(); ++len) {
    EXPECT_FALSE(LoadAndUse(image_.substr(0, len)))
        << "accepted a " << len << "-byte prefix of a " << image_.size()
        << "-byte artifact";
  }
}

TEST_F(IoFuzzModelTest, SeededByteFlipsNeverCrash) {
  Rng rng(0x0D37ULL);
  int accepted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutant = image_;
    const int flips = 1 + static_cast<int>(rng.UniformInt(3));
    for (int f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(rng.UniformInt(mutant.size()));
      mutant[at] = static_cast<char>(
          static_cast<unsigned char>(mutant[at]) ^
          static_cast<unsigned char>(1 + rng.UniformInt(255)));
    }
    if (LoadAndUse(mutant)) ++accepted;
  }
  // Most of the image is raw weight bytes, which no reader can validate:
  // flips there must load (and serve) fine.
  EXPECT_GT(accepted, 0);
}

TEST_F(IoFuzzModelTest, SeededTailGrowthAndShrink) {
  // Bytes after the trailer are rejected, as for .umgb: a grown tail and a
  // doubled image (a second header the reader must never reach) both fail.
  ASSERT_TRUE(LoadAndUse(image_));
  EXPECT_FALSE(LoadAndUse(image_ + std::string(17, '\x5a')))
      << "accepted 17 junk bytes after the trailer";
  EXPECT_FALSE(LoadAndUse(image_ + image_)) << "accepted a doubled image";
}

TEST_F(IoFuzzModelTest, HostileCountsAreAStatusNotAnAllocation) {
  // Every int32 count field at INT32_MAX is past its cap and must fail the
  // load; the other hostile values must at least end without a crash or
  // a huge allocation downstream.
  // The last two are the first weight tensor's rows and cols.
  const size_t int32_fields[] = {kHiddenDimAt,         kEncoderLayersAt,
                                 kDecoderLayersAt,     kScoreNegativesAt,
                                 kNumNodesAt,          kFeatureDimAt,
                                 kNumRelationsAt,      tensor_count_at_ + 8,
                                 tensor_count_at_ + 12};
  for (const size_t at : int32_fields) {
    for (const int32_t value : {0, -1, INT32_MIN, 65, 1 << 24}) {
      LoadAndUse(Patched(at, value));
    }
    EXPECT_FALSE(LoadAndUse(Patched(at, INT32_MAX)))
        << "accepted INT32_MAX at offset " << at;
  }
  for (const int64_t value :
       {int64_t{-1}, int64_t{1} << 62, int64_t{INT64_MAX}}) {
    EXPECT_FALSE(LoadAndUse(Patched(tensor_count_at_, value)))
        << "accepted weight count " << value;
  }
  // A hostile config-block length: past the sanity cap, and just short of
  // the fields this build reads.
  for (const uint32_t value : {0xFFFFFFFFu, 115u}) {
    EXPECT_FALSE(LoadAndUse(Patched(size_t{12}, value)))
        << "accepted config length " << value;
  }
}

TEST_F(IoFuzzModelTest, NonFiniteWeightsNameTheElement) {
  // The first and last elements of weight tensor 0, whose data follows its
  // two i32 shape fields.
  const size_t data_at = tensor_count_at_ + 16;
  const int64_t count =
      int64_t{PodAt<int32_t>(image_, tensor_count_at_ + 8)} *
      PodAt<int32_t>(image_, tensor_count_at_ + 12);
  ASSERT_GT(count, 1);
  for (const int64_t k : {int64_t{0}, count - 1}) {
    const std::string want =
        "weight 0 element " + std::to_string(k) + " is not finite";
    for (const float bad : kNonFinite) {
      std::string mutant = image_;
      PatchPod(&mutant, data_at + 4 * k, bad);
      WriteImage(path_, mutant);
      Result<TrainedModel> loaded = TrainedModel::Load(path_);
      ASSERT_FALSE(loaded.ok()) << "accepted " << bad << " at element " << k;
      EXPECT_NE(loaded.status().message().find(want), std::string::npos)
          << loaded.status().message();
    }
    for (const float tiny : kSubnormal) {
      std::string mutant = image_;
      PatchPod(&mutant, data_at + 4 * k, tiny);
      ASSERT_TRUE(LoadAndUse(mutant)) << "rejected " << tiny;
      Result<TrainedModel> loaded = TrainedModel::Load(path_);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_TRUE(SameBits(loaded->weights()[0].data()[k], tiny)) << k;
    }
  }
}

// ------------------------- serve update-stream lines ----------------------

/// Independent reference for ParseEdgeUpdateLine: whitespace-split tokens
/// (std::isspace), exactly four, an op of "+" or "-", and three optionally
/// negative decimal literals that strtoll consumes whole and that fit in
/// an int.
bool ReferenceAccepts(const std::string& line, serve::EdgeUpdate* out) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string t; in >> t;) tokens.push_back(t);
  if (tokens.size() != 4 || (tokens[0] != "+" && tokens[0] != "-")) {
    return false;
  }
  int* ids[3] = {&out->src, &out->dst, &out->relation};
  for (int k = 0; k < 3; ++k) {
    const std::string& t = tokens[k + 1];
    const size_t digits = t[0] == '-' ? 1 : 0;
    if (t.size() == digits ||
        t.find_first_not_of("0123456789", digits) != std::string::npos) {
      return false;
    }
    errno = 0;
    const long long v = std::strtoll(t.c_str(), nullptr, 10);
    if (errno != 0 || v < INT_MIN || v > INT_MAX) return false;
    *ids[k] = static_cast<int>(v);
  }
  out->add = tokens[0] == "+";
  return true;
}

void ExpectParses(const std::string& line, bool add, int src, int dst,
                  int rel) {
  const Result<serve::EdgeUpdate> u = serve::ParseEdgeUpdateLine(line);
  ASSERT_TRUE(u.ok()) << "'" << line << "': " << u.status().ToString();
  EXPECT_EQ(u->add, add) << line;
  EXPECT_EQ(u->src, src) << line;
  EXPECT_EQ(u->dst, dst) << line;
  EXPECT_EQ(u->relation, rel) << line;
}

TEST(IoFuzzUpdateLineTest, AcceptsWellFormedLines) {
  ExpectParses("+ 1 2 0", true, 1, 2, 0);
  ExpectParses("- 30 4 1", false, 30, 4, 1);
  ExpectParses("\t+\t5   6 2\r", true, 5, 6, 2);
  ExpectParses("  - 2147483647 0 0  ", false, INT_MAX, 0, 0);
  // Range checks belong to the scorer, which knows the graph.
  ExpectParses("+ -1 2 0", true, -1, 2, 0);
}

TEST(IoFuzzUpdateLineTest, RejectsTrailingTokens) {
  for (const char* line :
       {"+ 1 2 0 junk", "+ 1 2 0 0", "- 1 2 0 # note", "+ 1 2 0 -"}) {
    const Result<serve::EdgeUpdate> u = serve::ParseEdgeUpdateLine(line);
    ASSERT_FALSE(u.ok()) << "accepted '" << line << "'";
    EXPECT_EQ(u.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(u.status().message().find("trailing input"), std::string::npos)
        << u.status().message();
  }
}

TEST(IoFuzzUpdateLineTest, RejectsPartiallyConsumedNumbers) {
  for (const char* line :
       {"+ 1 2 0.5", "+ 1x 2 0", "+ 1 2 0x1", "+ 1 2e3 0", "+ 1 2 -",
        "+ 1 +2 0", "+ 1 2 2147483648", "+ 99999999999999999999 2 0"}) {
    const Result<serve::EdgeUpdate> u = serve::ParseEdgeUpdateLine(line);
    ASSERT_FALSE(u.ok()) << "accepted '" << line << "'";
    EXPECT_NE(u.status().message().find("must be integers"),
              std::string::npos)
        << u.status().message();
  }
}

TEST(IoFuzzUpdateLineTest, RejectsMalformedLines) {
  for (const char* line : {"", "   ", "+ 1 2", "* 1 2 0", "+1 2 0",
                           "++ 1 2 0", "# + 1 2 0"}) {
    EXPECT_FALSE(serve::ParseEdgeUpdateLine(line).ok())
        << "accepted '" << line << "'";
  }
}

TEST(IoFuzzUpdateLineTest, SeededMutantsAgreeWithTheReference) {
  const std::string seeds[] = {"+ 12 345 0", "- 7 8 1", "+\t0\t19\t3",
                               "- 2147483647 1 0"};
  Rng rng(0x11E5ULL);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string line = seeds[rng.UniformInt(4)];
    const int edits = 1 + static_cast<int>(rng.UniformInt(3));
    for (int e = 0; e < edits; ++e) {
      const size_t at = static_cast<size_t>(rng.UniformInt(line.size() + 1));
      switch (rng.UniformInt(4)) {
        case 0:  // flip a byte (any of the 255 other values)
          if (at < line.size()) {
            line[at] = static_cast<char>(
                static_cast<unsigned char>(line[at]) ^
                static_cast<unsigned char>(1 + rng.UniformInt(255)));
          }
          break;
        case 1:  // truncate
          line.resize(at);
          break;
        case 2:  // insert a character from the grammar's alphabet
          line.insert(at, 1, " \t-+.x09#"[rng.UniformInt(9)]);
          break;
        default:  // duplicate a token-sized slice
          line.insert(at, line.substr(at / 2, 3));
          break;
      }
    }
    serve::EdgeUpdate want;
    const bool ref_ok = ReferenceAccepts(line, &want);
    const Result<serve::EdgeUpdate> got = serve::ParseEdgeUpdateLine(line);
    ASSERT_EQ(got.ok(), ref_ok)
        << "trial " << trial << " '" << line << "': "
        << (got.ok() ? "ok" : got.status().message());
    if (ref_ok) {
      EXPECT_EQ(got->add, want.add) << line;
      EXPECT_EQ(got->src, want.src) << line;
      EXPECT_EQ(got->dst, want.dst) << line;
      EXPECT_EQ(got->relation, want.relation) << line;
    }
  }
}

}  // namespace
}  // namespace umgad
