// The dataset io subsystem: bit-exact round trips through both on-disk
// formats for every registered dataset, malformed-file error paths for
// each loader, the generic edge-list importer, and LoadDataset's
// dispatch/UMGAD_DATASET_DIR resolution.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "graph/dataset_registry.h"
#include "graph/datasets.h"
#include "graph/io/binary_format.h"
#include "graph/io/edge_list.h"
#include "graph/io/graph_io.h"
#include "graph/io/mmap_format.h"
#include "graph/io/text_format.h"
#include "tensor/pool.h"

namespace umgad {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void ExpectBitIdentical(const MultiplexGraph& actual,
                        const MultiplexGraph& expected) {
  EXPECT_EQ(actual.name(), expected.name());
  ASSERT_EQ(actual.num_nodes(), expected.num_nodes());
  ASSERT_EQ(actual.num_relations(), expected.num_relations());
  ASSERT_EQ(actual.feature_dim(), expected.feature_dim());
  EXPECT_EQ(actual.labels(), expected.labels());
  for (int r = 0; r < actual.num_relations(); ++r) {
    EXPECT_EQ(actual.relation_name(r), expected.relation_name(r));
    EXPECT_EQ(actual.layer(r).row_ptr(), expected.layer(r).row_ptr());
    EXPECT_EQ(actual.layer(r).col_idx(), expected.layer(r).col_idx());
    EXPECT_EQ(actual.layer(r).values(), expected.layer(r).values());
  }
  EXPECT_EQ(MaxAbsDiff(actual.attributes(), expected.attributes()), 0.0);
}

/// Small but real instance of a registered dataset (both anomaly regimes
/// are covered by the parameterised sweep below).
MultiplexGraph BuildSmall(const std::string& name) {
  const DatasetSpec* spec = DatasetRegistry::Global().Find(name);
  UMGAD_CHECK(spec != nullptr);
  const double scale = spec->group == DatasetGroup::kLarge ? 0.01 : 0.05;
  return BuildDataset(*spec, /*seed=*/17, scale);
}

// ------------------------- round trips ------------------------------------

class RoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTrip, TextIsBitExact) {
  MultiplexGraph g = BuildSmall(GetParam());
  const std::string path = TempPath(GetParam() + "_rt.txt");
  ASSERT_TRUE(SaveGraph(g, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitIdentical(*loaded, g);
  std::remove(path.c_str());
}

TEST_P(RoundTrip, BinaryIsBitExact) {
  MultiplexGraph g = BuildSmall(GetParam());
  const std::string path = TempPath(GetParam() + "_rt.umgb");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  auto loaded = LoadGraphBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitIdentical(*loaded, g);
  std::remove(path.c_str());
}

TEST_P(RoundTrip, TextToBinaryToTextIsBitExact) {
  MultiplexGraph g = BuildSmall(GetParam());
  const std::string text1 = TempPath(GetParam() + "_c1.txt");
  const std::string binary = TempPath(GetParam() + "_c.umgb");
  ASSERT_TRUE(SaveGraph(g, text1).ok());
  auto from_text = LoadGraph(text1);
  ASSERT_TRUE(from_text.ok());
  ASSERT_TRUE(SaveGraphBinary(*from_text, binary).ok());
  auto from_binary = LoadGraphBinary(binary);
  ASSERT_TRUE(from_binary.ok());
  ExpectBitIdentical(*from_binary, g);
  std::remove(text1.c_str());
  std::remove(binary.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, RoundTrip,
                         ::testing::Values("Retail", "Alibaba", "Amazon",
                                           "YelpChi", "DG-Fin", "T-Social",
                                           "Tiny"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

MultiplexGraph GraphWithSpacedNames() {
  Tensor x(4, 2);
  x.at(0, 0) = 0.5f;
  x.at(3, 1) = -2.25f;
  SparseMatrix a = SparseMatrix::FromEdges(4, {Edge{0, 1}, Edge{2, 3}}, true);
  auto g = MultiplexGraph::Create("my spaced dataset", std::move(x), {a},
                                  {"relation with spaces"}, {0, 1, 0, 0});
  UMGAD_CHECK(g.ok());
  return *std::move(g);
}

TEST(TextFormatTest, NamesWithSpacesRoundTrip) {
  MultiplexGraph g = GraphWithSpacedNames();
  const std::string path = TempPath("spaced.txt");
  ASSERT_TRUE(SaveGraph(g, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name(), "my spaced dataset");
  EXPECT_EQ(loaded->relation_name(0), "relation with spaces");
  ExpectBitIdentical(*loaded, g);
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, NamesWithSpacesRoundTrip) {
  MultiplexGraph g = GraphWithSpacedNames();
  const std::string path = TempPath("spaced.umgb");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  auto loaded = LoadGraphBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitIdentical(*loaded, g);
  std::remove(path.c_str());
}

// ------------------------- text error paths -------------------------------

std::string ValidTextHeader() {
  return "umgad-graph v1\nname t\nnodes 4\nfeatures 2\nrelations 1\n"
         "labeled 0\n";
}

TEST(TextFormatTest, LoadsCrlfFiles) {
  // Files edited or written on Windows carry \r\n endings; the loader must
  // not embed '\r' in names nor fail the strict relation-count parse.
  MultiplexGraph g = MakeTiny(11);
  const std::string unix_path = TempPath("crlf_src.txt");
  const std::string crlf_path = TempPath("crlf.txt");
  ASSERT_TRUE(SaveGraph(g, unix_path).ok());
  std::string content = ReadFile(unix_path);
  std::string crlf;
  for (char c : content) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  WriteFile(crlf_path, crlf);
  auto loaded = LoadGraph(crlf_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitIdentical(*loaded, g);
  std::remove(unix_path.c_str());
  std::remove(crlf_path.c_str());
}

TEST(TextFormatTest, RejectsGarbageAndMissingFile) {
  const std::string path = TempPath("garbage.txt");
  WriteFile(path, "not a graph\n");
  EXPECT_FALSE(LoadGraph(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadGraph("/nonexistent/path.txt").ok());
}

TEST(TextFormatTest, EmptyRelationRoundTrips) {
  // A relation layer with zero edges (the importer produces these for
  // pinned-but-unused relation names) must survive the text format: the
  // loader may only skip operator>>'s trailing newline when edges were
  // actually read.
  Tensor x(3, 2);
  x.at(1, 0) = 4.0f;
  SparseMatrix a = SparseMatrix::FromEdges(3, {Edge{0, 1}}, true);
  SparseMatrix empty = SparseMatrix::FromEdges(3, {}, true);
  auto g = MultiplexGraph::Create("with-empty", std::move(x), {a, empty},
                                  {"a", "empty"}, {0, 0, 1});
  ASSERT_TRUE(g.ok());
  const std::string path = TempPath("empty_rel.txt");
  ASSERT_TRUE(SaveGraph(*g, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitIdentical(*loaded, *g);
  EXPECT_EQ(loaded->num_edges(1), 0);
  std::remove(path.c_str());
}

TEST(TextFormatTest, RejectsNegativeEdgeCount) {
  const std::string path = TempPath("neg_edges.txt");
  WriteFile(path, ValidTextHeader() + "relation r -3\nattributes\n");
  auto result = LoadGraph(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("negative edge count"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(TextFormatTest, RejectsDuplicateRelationNames) {
  const std::string path = TempPath("dup_rel.txt");
  WriteFile(path,
            "umgad-graph v1\nname t\nnodes 4\nfeatures 2\nrelations 2\n"
            "labeled 0\nrelation r 1\n0 1\nrelation r 1\n2 3\n");
  auto result = LoadGraph(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("duplicate relation"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(TextFormatTest, RejectsOversizedHeader) {
  const std::string path = TempPath("oversized.txt");
  WriteFile(path,
            "umgad-graph v1\nname t\nnodes 2000000000\nfeatures 2000000\n"
            "relations 1\nlabeled 0\n");
  auto result = LoadGraph(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("oversized"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TextFormatTest, CorruptEdgeCountFailsWithoutOom) {
  // An absurd edge count must fail on the truncated list, not allocate.
  const std::string path = TempPath("huge_count.txt");
  WriteFile(path, ValidTextHeader() + "relation r 4000000000\n0 1\n");
  auto result = LoadGraph(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("truncated edge list"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(TextFormatTest, RejectsOutOfRangeEdgesAndTruncatedSections) {
  const std::string out_of_range = TempPath("oor.txt");
  WriteFile(out_of_range, ValidTextHeader() + "relation r 1\n0 9\n");
  EXPECT_EQ(LoadGraph(out_of_range).status().code(), StatusCode::kOutOfRange);
  std::remove(out_of_range.c_str());

  const std::string no_attributes = TempPath("no_attr.txt");
  WriteFile(no_attributes, ValidTextHeader() + "relation r 1\n0 1\n");
  EXPECT_FALSE(LoadGraph(no_attributes).ok());
  std::remove(no_attributes.c_str());

  const std::string short_attributes = TempPath("short_attr.txt");
  WriteFile(short_attributes,
            ValidTextHeader() + "relation r 1\n0 1\nattributes\n0.5 1.0\n");
  auto result = LoadGraph(short_attributes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("truncated attribute"),
            std::string::npos);
  std::remove(short_attributes.c_str());
}

/// Loads a two-row text graph whose attribute or edge section holds `token`
/// at one position, returning the load's status message.
std::string TextLoadMessage(const std::string& name, const std::string& edge,
                            const std::string& attributes) {
  const std::string path = TempPath(name);
  WriteFile(path, ValidTextHeader() + "relation r 2\n0 1\n" + edge +
                      "\nattributes\n" + attributes);
  auto result = LoadGraph(path);
  std::remove(path.c_str());
  EXPECT_FALSE(result.ok()) << name;
  return result.status().message();
}

TEST(TextFormatTest, NamesANonNumericAttributeByPosition) {
  // numpy writes a missing value as "nan"; the loader rejects it, and any
  // other non-number, at its (row, col) instead of calling the matrix
  // truncated.
  for (const char* token : {"nan", "inf", "-inf", "abc"}) {
    const std::string message = TextLoadMessage(
        "bad_attr.txt", "2 3",
        std::string("0 1\n2 3\n4 5\n6 ") + token + "\n");
    EXPECT_NE(message.find("attribute (3, 1) is not a finite number"),
              std::string::npos)
        << token << ": " << message;
  }
}

TEST(TextFormatTest, NamesANonNumericEdgeByPosition) {
  for (const char* token : {"nan", "inf", "x"}) {
    const std::string message =
        TextLoadMessage("bad_edge.txt", std::string("2 ") + token,
                        "0 1\n2 3\n4 5\n6 7\n");
    EXPECT_NE(message.find("edge 1 of relation 'r' is not a pair of node ids"),
              std::string::npos)
        << token << ": " << message;
  }
}

// ------------------------- binary error paths -----------------------------

TEST(BinaryFormatTest, RejectsBadMagicAndVersion) {
  const std::string path = TempPath("bad_magic.umgb");
  WriteFile(path, "XXXXYYYYZZZZ");
  auto result = LoadGraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("not a umgad binary"),
            std::string::npos);

  // Valid magic, wrong version byte.
  MultiplexGraph g = MakeTiny(1);
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  std::string bytes = ReadFile(path);
  bytes[4] = 0x7f;  // version field
  WriteFile(path, bytes);
  result = LoadGraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unsupported binary graph"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsTruncation) {
  MultiplexGraph g = MakeTiny(2);
  const std::string path = TempPath("trunc.umgb");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  const std::string bytes = ReadFile(path);
  // Cut at several depths: mid-header, mid-CSR, and just before the
  // trailer (the trailer is what catches a file missing only its tail).
  for (size_t cut : {size_t{6}, size_t{40}, bytes.size() / 2,
                     bytes.size() - 2}) {
    WriteFile(path, bytes.substr(0, cut));
    EXPECT_FALSE(LoadGraphBinary(path).ok()) << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, CorruptNnzFailsWithoutOom) {
  MultiplexGraph g = MakeTiny(3);
  const std::string path = TempPath("corrupt_nnz.umgb");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  std::string bytes = ReadFile(path);
  // The first relation's nnz field sits after magic/version/flags (12),
  // name (4 + 4), node/feature/relation counts (24), and the relation
  // name "rel-a" (4 + 5).
  const size_t nnz_offset = 12 + 8 + 24 + 9;
  for (int b = 0; b < 8; ++b) {
    bytes[nnz_offset + b] = static_cast<char>(0xff);
  }
  WriteFile(path, bytes);
  auto result = LoadGraphBinary(path);
  ASSERT_FALSE(result.ok());

  // A count crafted so that count * sizeof(T) wraps int64 to a small
  // positive number must still be rejected (the size check divides
  // instead of multiplying).
  const uint64_t wrapping_nnz = 0x2000000000000001ULL;  // * 8 wraps to 8
  for (int b = 0; b < 8; ++b) {
    bytes[nnz_offset + b] =
        static_cast<char>((wrapping_nnz >> (8 * b)) & 0xff);
  }
  WriteFile(path, bytes);
  result = LoadGraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("corrupt"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsCorruptCsr) {
  MultiplexGraph g = MakeTiny(4);
  const std::string path = TempPath("corrupt_csr.umgb");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  std::string bytes = ReadFile(path);
  // v3 zero-pads to an 8-byte boundary between the nnz field (ends at 61)
  // and the row_ptr array, so row_ptr starts at 64.
  const size_t row_ptr_offset = 12 + 8 + 24 + 9 + 8 + 3;
  // row_ptr[0] must be 0; make it wild.
  bytes[row_ptr_offset] = 0x33;
  WriteFile(path, bytes);
  auto result = LoadGraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("row_ptr"), std::string::npos);
  std::remove(path.c_str());
}

/// Byte offset of `layer`'s col_idx array in a saved .umgb image: it
/// directly follows the layer's row_ptr array, found by its exact bytes.
size_t ColIdxOffset(const std::string& bytes, const SparseMatrix& layer) {
  const std::string row_ptr(
      reinterpret_cast<const char*>(layer.row_ptr().data()),
      layer.row_ptr().size() * sizeof(int64_t));
  const size_t at = bytes.find(row_ptr);
  UMGAD_CHECK(at != std::string::npos);
  return at + row_ptr.size();
}

template <typename T>
void Poke(std::string* bytes, size_t offset, T value) {
  std::memcpy(&(*bytes)[offset], &value, sizeof(T));
}

/// Both .umgb loads (copying and mapped) reject `path` with an
/// InvalidArgument whose message contains `want`.
void ExpectBothLoadsReject(const std::string& path, const std::string& want) {
  for (bool mapped : {false, true}) {
    Result<MultiplexGraph> g =
        mapped ? LoadGraphMapped(path) : LoadGraphBinary(path);
    ASSERT_FALSE(g.ok()) << (mapped ? "mapped" : "copying") << " load";
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(g.status().message().find(want), std::string::npos)
        << g.status().message();
  }
}

TEST(BinaryFormatTest, BothLoadsRejectAnAsymmetricLayer) {
  MultiplexGraph g = MakeTiny(6);
  const SparseMatrix& layer = g.layer(0);
  const auto& rp = layer.row_ptr();
  const auto& ci = layer.col_idx();
  // Move the first stored column j of a row i to j + 1 where the row stays
  // sorted and in range: (i, j + 1) then lacks its mirror, and so does
  // (j, i).
  int row = -1;
  int64_t pos = -1;
  for (int i = 0; i < g.num_nodes() && row < 0; ++i) {
    for (int64_t k = rp[i]; k < rp[i + 1]; ++k) {
      const int j = ci[k];
      if (j != i && j + 1 != i && j + 1 < g.num_nodes() &&
          (k + 1 == rp[i + 1] || ci[k + 1] > j + 1)) {
        row = i;
        pos = k;
        break;
      }
    }
  }
  ASSERT_GE(row, 0);
  const int col = ci[pos];
  const std::string path = TempPath("asymmetric.umgb");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  std::string bytes = ReadFile(path);
  Poke<int>(&bytes, ColIdxOffset(bytes, layer) + pos * sizeof(int), col + 1);
  WriteFile(path, bytes);
  // The first entry in row-major order whose mirror is missing.
  const std::string at = col < row ? StrFormat("(%d, %d)", col, row)
                                   : StrFormat("(%d, %d)", row, col + 1);
  ExpectBothLoadsReject(path, "layer 0 (" + g.relation_name(0) +
                                  ") is not symmetric at " + at);
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, BothLoadsRejectANonFiniteWeight) {
  MultiplexGraph g = MakeTiny(7);
  const SparseMatrix& layer = g.layer(0);
  const int64_t pos = layer.row_ptr()[5];  // row 5's first entry
  ASSERT_LT(pos, layer.row_ptr()[6]);
  const std::string at =
      StrFormat("has a non-finite weight at (5, %d)", layer.col_idx()[pos]);
  const std::string path = TempPath("nonfinite_weight.umgb");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  const std::string bytes = ReadFile(path);
  const size_t values =
      ColIdxOffset(bytes, layer) + layer.nnz() * sizeof(int);
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    -std::numeric_limits<float>::infinity()}) {
    std::string mutant = bytes;
    Poke<float>(&mutant, values + pos * sizeof(float), bad);
    WriteFile(path, mutant);
    ExpectBothLoadsReject(path, "layer 0 (" + g.relation_name(0) + ") " + at);
  }
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, WriterEnforcesNameCap) {
  // A name the reader would reject must not be writable in the first
  // place (the library must never produce a file it cannot read back).
  Tensor x(2, 1);
  SparseMatrix a = SparseMatrix::FromEdges(2, {Edge{0, 1}}, true);
  auto g = MultiplexGraph::Create(std::string(5000, 'x'), std::move(x), {a},
                                  {"r"});
  ASSERT_TRUE(g.ok());
  const std::string path = TempPath("long_name.umgb");
  auto saved = SaveGraphBinary(*g, path);
  ASSERT_FALSE(saved.ok());
  EXPECT_NE(saved.message().find("format cap"), std::string::npos);
}

TEST(BinaryFormatTest, SniffsFormat) {
  MultiplexGraph g = MakeTiny(5);
  const std::string binary = TempPath("sniff.umgb");
  const std::string text = TempPath("sniff.txt");
  ASSERT_TRUE(SaveGraphBinary(g, binary).ok());
  ASSERT_TRUE(SaveGraph(g, text).ok());
  EXPECT_TRUE(LooksLikeBinaryGraph(binary));
  EXPECT_FALSE(LooksLikeBinaryGraph(text));
  EXPECT_FALSE(LooksLikeBinaryGraph("/nonexistent"));
  std::remove(binary.c_str());
  std::remove(text.c_str());
}

// ------------------------- edge-list importer -----------------------------

TEST(EdgeListTest, ImportsTsvWithRelationsFeaturesAndLabels) {
  const std::string edges = TempPath("import.tsv");
  const std::string features = TempPath("import_features.tsv");
  const std::string labels = TempPath("import_labels.txt");
  WriteFile(edges,
            "# comment line\n"
            "src\tdst\trelation\n"
            "0\t1\tfollows\n"
            "1\t2\tfollows\n"
            "0\t3\ttransacts\n"
            "2\t3\ttransacts\n");
  WriteFile(features, "1.0\t0.5\n0.25\t-1\n0\t0\n2\t3\n");
  WriteFile(labels, "0\n0\n1\n0\n");

  EdgeListOptions options;
  options.name = "imported-tsv";
  options.features_path = features;
  options.labels_path = labels;
  auto graph = ImportEdgeList(edges, options);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->name(), "imported-tsv");
  EXPECT_EQ(graph->num_nodes(), 4);
  EXPECT_EQ(graph->num_relations(), 2);
  EXPECT_EQ(graph->relation_name(0), "follows");
  EXPECT_EQ(graph->relation_name(1), "transacts");
  EXPECT_EQ(graph->num_edges(0), 2);
  EXPECT_EQ(graph->num_edges(1), 2);
  EXPECT_EQ(graph->feature_dim(), 2);
  EXPECT_EQ(graph->attributes().at(3, 1), 3.0f);
  EXPECT_EQ(graph->num_anomalies(), 1);
  std::remove(edges.c_str());
  std::remove(features.c_str());
  std::remove(labels.c_str());
}

TEST(EdgeListTest, ImportsCsvAndWhitespaceWithoutSideFiles) {
  const std::string csv = TempPath("import.csv");
  WriteFile(csv, "0,1\n1,2\n2,0\n");
  auto from_csv = ImportEdgeList(csv);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  EXPECT_EQ(from_csv->num_nodes(), 3);
  EXPECT_EQ(from_csv->num_relations(), 1);
  EXPECT_EQ(from_csv->relation_name(0), "edges");
  // Structural features: per-relation normalised degree + constant.
  EXPECT_EQ(from_csv->feature_dim(), 2);
  EXPECT_EQ(from_csv->attributes().at(0, 1), 1.0f);
  EXPECT_FALSE(from_csv->has_labels());
  std::remove(csv.c_str());

  const std::string spaces = TempPath("import_spaces.txt");
  WriteFile(spaces, "0 1\n1  2\n");
  auto from_spaces = ImportEdgeList(spaces);
  ASSERT_TRUE(from_spaces.ok()) << from_spaces.status().ToString();
  EXPECT_EQ(from_spaces->num_nodes(), 3);
  std::remove(spaces.c_str());
}

TEST(EdgeListTest, HeaderAutoDetectionRegressions) {
  // Regression: the old heuristic skipped the first row when *either* of
  // its first two fields failed to parse as an integer, so a data row like
  // "0,weight" was silently dropped instead of rejected. kAuto now skips
  // only when NEITHER parses; a mixed row is data with a bad id.
  const std::string mixed = TempPath("header_mixed.csv");
  WriteFile(mixed, "0,weight\n1,2\n");
  auto from_mixed = ImportEdgeList(mixed);
  ASSERT_FALSE(from_mixed.ok());
  EXPECT_NE(from_mixed.status().message().find("line 1"), std::string::npos)
      << from_mixed.status().message();
  EXPECT_NE(from_mixed.status().message().find("bad node ids"),
            std::string::npos)
      << from_mixed.status().message();
  std::remove(mixed.c_str());

  // kAuto keeps an all-numeric first row as data...
  const std::string numeric = TempPath("header_numeric.tsv");
  WriteFile(numeric, "0\t1\n1\t2\n");
  auto from_auto = ImportEdgeList(numeric);
  ASSERT_TRUE(from_auto.ok()) << from_auto.status().ToString();
  EXPECT_EQ(from_auto->num_nodes(), 3);
  EXPECT_EQ(from_auto->total_edges(), 2);

  // ...while kAlways skips it (the only way to consume a header that
  // happens to be all digits, e.g. column indices).
  EdgeListOptions always;
  always.header = HeaderMode::kAlways;
  auto skipped = ImportEdgeList(numeric, always);
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  EXPECT_EQ(skipped->num_nodes(), 3);
  EXPECT_EQ(skipped->total_edges(), 1);
  std::remove(numeric.c_str());

  // kAlways on a header-only file: nothing left to import.
  const std::string only_header = TempPath("header_only.tsv");
  WriteFile(only_header, "src\tdst\n");
  auto empty = ImportEdgeList(only_header, always);
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find("no edges after header"),
            std::string::npos)
      << empty.status().message();
  std::remove(only_header.c_str());

  // kNever never skips: a textual first row is malformed data.
  const std::string textual = TempPath("header_textual.tsv");
  WriteFile(textual, "src\tdst\n0\t1\n");
  EdgeListOptions never;
  never.header = HeaderMode::kNever;
  auto rejected = ImportEdgeList(textual, never);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("bad node ids"),
            std::string::npos)
      << rejected.status().message();
  // Same file under kAuto: the textual header is skipped.
  auto accepted = ImportEdgeList(textual);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted->total_edges(), 1);
  std::remove(textual.c_str());
}

TEST(EdgeListTest, AcceptsSubnormalFeatureValues) {
  // strtof sets ERANGE for subnormal results; those are legitimate tiny
  // values (exported probabilities), not malformed fields.
  const std::string edges = TempPath("subnormal.tsv");
  const std::string features = TempPath("subnormal_features.tsv");
  WriteFile(edges, "0\t1\n");
  WriteFile(features, "1e-42\t1\n0\t2\n");
  EdgeListOptions options;
  options.features_path = features;
  auto graph = ImportEdgeList(edges, options);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_GT(graph->attributes().at(0, 0), 0.0f);
  EXPECT_LT(graph->attributes().at(0, 0), 1e-40f);

  // Non-finite values are rejected: overflow to infinity, and textual
  // nan/inf (numpy writes 'nan' for missing values) which would silently
  // poison every downstream loss.
  for (const char* bad : {"1e99\t1\n0\t2\n", "nan\t1\n0\t2\n",
                          "inf\t1\n0\t2\n"}) {
    WriteFile(features, bad);
    EXPECT_FALSE(ImportEdgeList(edges, options).ok()) << bad;
  }
  std::remove(edges.c_str());
  std::remove(features.c_str());
}

TEST(EdgeListTest, FeatureRowsDefineIsolatedTrailingNodes) {
  const std::string edges = TempPath("iso.tsv");
  const std::string features = TempPath("iso_features.tsv");
  WriteFile(edges, "0\t1\n");
  WriteFile(features, "1\n2\n3\n4\n");  // nodes 2 and 3 are isolated
  EdgeListOptions options;
  options.features_path = features;
  auto graph = ImportEdgeList(edges, options);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_nodes(), 4);
  std::remove(edges.c_str());
  std::remove(features.c_str());
}

TEST(EdgeListTest, InjectsAnomaliesWhenUnlabeled) {
  const std::string edges = TempPath("inject.tsv");
  std::string content;
  // A ring over 60 nodes, large enough for the injection protocol.
  for (int i = 0; i < 60; ++i) {
    content += std::to_string(i) + "\t" + std::to_string((i + 1) % 60) + "\n";
  }
  WriteFile(edges, content);
  EdgeListOptions options;
  options.inject_if_unlabeled = true;
  options.injection.clique_size = 4;
  options.injection.num_cliques = 2;
  options.injection.num_attribute_anomalies = 4;
  options.injection.candidate_pool = 10;
  options.injection_seed = 9;
  auto graph = ImportEdgeList(edges, options);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_TRUE(graph->has_labels());
  EXPECT_EQ(graph->num_anomalies(), 2 * 4 + 4);
  // Deterministic in the injection seed.
  auto again = ImportEdgeList(edges, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->labels(), graph->labels());
  std::remove(edges.c_str());
}

TEST(EdgeListTest, PinnedRelationOrderAndUnknownRelation) {
  const std::string edges = TempPath("pinned.tsv");
  WriteFile(edges, "0\t1\tb\n1\t2\ta\n");
  EdgeListOptions options;
  options.relation_names = {"a", "b", "c"};
  auto graph = ImportEdgeList(edges, options);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_relations(), 3);
  EXPECT_EQ(graph->relation_name(0), "a");
  EXPECT_EQ(graph->num_edges(2), 0);  // listed but empty

  options.relation_names = {"a"};
  auto unknown = ImportEdgeList(edges, options);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown relation"),
            std::string::npos);
  std::remove(edges.c_str());
}

TEST(EdgeListTest, MalformedInputsAreRejected) {
  const std::string path = TempPath("bad_edge_list.tsv");

  WriteFile(path, "# only comments\n");
  EXPECT_FALSE(ImportEdgeList(path).ok());

  WriteFile(path, "0\tx\n");
  EXPECT_FALSE(ImportEdgeList(path).ok());

  WriteFile(path, "0\t1\trel\textra\n");
  EXPECT_FALSE(ImportEdgeList(path).ok());

  WriteFile(path, "-4\t1\n");
  EXPECT_FALSE(ImportEdgeList(path).ok());

  // Node id beyond the declared node count.
  WriteFile(path, "0\t7\n");
  EdgeListOptions options;
  options.num_nodes = 4;
  EXPECT_EQ(ImportEdgeList(path, options).status().code(),
            StatusCode::kOutOfRange);

  // Label / feature side-file shape mismatches.
  const std::string side = TempPath("bad_side.txt");
  WriteFile(path, "0\t1\n");
  WriteFile(side, "0\n1\n0\n");
  options = EdgeListOptions();
  options.labels_path = side;
  EXPECT_FALSE(ImportEdgeList(path, options).ok());

  WriteFile(side, "1 2\n3\n");
  options = EdgeListOptions();
  options.features_path = side;
  EXPECT_FALSE(ImportEdgeList(path, options).ok());

  std::remove(path.c_str());
  std::remove(side.c_str());
}

TEST(EdgeListTest, DiagnosticsNameThePhysicalLine) {
  // Comments, blank lines and the header row all count, and CRLF endings
  // do not: the bad row below is the sixth line an editor shows.
  const std::string edges = TempPath("physical_lines.tsv");
  WriteFile(edges,
            "# exported by a tool\r\n"
            "\r\n"
            "# columns: src dst relation\n"
            "src\tdst\trelation\r\n"
            "0\t1\tfollows\r\n"
            "0\tx\tfollows\r\n");
  auto bad_edge = ImportEdgeList(edges);
  ASSERT_FALSE(bad_edge.ok());
  EXPECT_NE(bad_edge.status().message().find(edges + ": line 6: bad node ids"),
            std::string::npos)
      << bad_edge.status().message();

  const std::string labels = TempPath("physical_lines_labels.txt");
  WriteFile(edges, "0\t1\n");
  WriteFile(labels, "# label per node\r\n\r\n0\r\n2\r\n");
  EdgeListOptions options;
  options.labels_path = labels;
  auto bad_label = ImportEdgeList(edges, options);
  ASSERT_FALSE(bad_label.ok());
  EXPECT_NE(bad_label.status().message().find(
                labels + ": line 4: labels must be 0 or 1"),
            std::string::npos)
      << bad_label.status().message();
  std::remove(edges.c_str());
  std::remove(labels.c_str());
}

TEST(EdgeListTest, RelationCountAndNameLengthAreCapped) {
  const std::string edges = TempPath("many_relations.tsv");
  std::string content;
  for (int r = 0; r < 4096; ++r) content += StrFormat("0\t1\tr%d\n", r);
  WriteFile(edges, content);
  auto at_cap = ImportEdgeList(edges);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->num_relations(), 4096);

  WriteFile(edges, content + "0\t1\tone-too-many\n");
  auto over_cap = ImportEdgeList(edges);
  ASSERT_FALSE(over_cap.ok());
  EXPECT_NE(over_cap.status().message().find(
                "line 4097: more than 4096 relations"),
            std::string::npos)
      << over_cap.status().message();

  WriteFile(edges, "0\t1\t" + std::string(4096, 'n') + "\n");
  auto longest = ImportEdgeList(edges);
  ASSERT_TRUE(longest.ok()) << longest.status().ToString();
  EXPECT_EQ(longest->relation_name(0).size(), 4096u);

  WriteFile(edges, "0\t1\tr\n1\t2\t" + std::string(4097, 'n') + "\n");
  auto too_long = ImportEdgeList(edges);
  ASSERT_FALSE(too_long.ok());
  EXPECT_NE(too_long.status().message().find(
                "line 2: relation name of 4097 chars exceeds the 4096-char "
                "cap"),
            std::string::npos)
      << too_long.status().message();
  std::remove(edges.c_str());
}

TEST(EdgeListTest, FeatureWidthIsCappedAndCheckedBeforeAllocation) {
  const std::string edges = TempPath("wide.tsv");
  const std::string features = TempPath("wide_features.tsv");
  WriteFile(edges, "0\t1\n");
  EdgeListOptions options;
  options.features_path = features;
  auto row_of = [](int width) {
    std::string row = "1";
    for (int j = 1; j < width; ++j) row += "\t0";
    return row + "\n";
  };
  WriteFile(features, row_of(65536) + row_of(65536));
  auto at_cap = ImportEdgeList(edges, options);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->feature_dim(), 65536);

  WriteFile(features, row_of(65537) + row_of(65537));
  auto over_cap = ImportEdgeList(edges, options);
  ASSERT_FALSE(over_cap.ok());
  EXPECT_NE(over_cap.status().message().find(
                "65537 values per row exceed the limit of 65536"),
            std::string::npos)
      << over_cap.status().message();

  // A wide first row over short ones: 1000 x 4096 floats would be 16.4 MB,
  // and the width error must come before any of it is allocated.
  std::string short_rows;
  for (int i = 1; i < 1000; ++i) short_rows += "1\n";
  WriteFile(edges, "0\t999\n");
  WriteFile(features, row_of(4096) + short_rows);
  const int64_t fresh_before = TensorPool::Global().stats().fresh_bytes;
  auto narrow = ImportEdgeList(edges, options);
  const int64_t fresh_growth =
      TensorPool::Global().stats().fresh_bytes - fresh_before;
  ASSERT_FALSE(narrow.ok());
  EXPECT_NE(narrow.status().message().find("row 1 has 1 values, expected 4096"),
            std::string::npos)
      << narrow.status().message();
  EXPECT_LT(fresh_growth, 16'000'000);
  std::remove(edges.c_str());
  std::remove(features.c_str());
}

// ------------------------- LoadDataset dispatch ---------------------------

TEST(LoadDatasetTest, RejectsANonFiniteUmgbAttributeFromBothLoads) {
  MultiplexGraph g = MakeTiny(8);
  const Tensor& x = g.attributes();
  const std::string path = TempPath("nonfinite_attr.umgb");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  const std::string bytes = ReadFile(path);
  const size_t attr =
      bytes.find(std::string(reinterpret_cast<const char*>(x.data()),
                             x.size() * sizeof(float)));
  ASSERT_NE(attr, std::string::npos);
  const int row = 3;
  const int col = x.cols() - 1;
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    std::string mutant = bytes;
    Poke<float>(&mutant, attr + (row * x.cols() + col) * sizeof(float), bad);
    WriteFile(path, mutant);
    for (bool mmap : {false, true}) {
      LoadDatasetOptions options;
      options.prefer_mmap = mmap;
      Result<MultiplexGraph> loaded = LoadDataset(path, options);
      ASSERT_FALSE(loaded.ok()) << (mmap ? "mapped" : "copying") << " load";
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(loaded.status().message().find(
                    StrFormat("attribute (%d, %d) is not finite", row, col)),
                std::string::npos)
          << loaded.status().message();
    }
  }
  std::remove(path.c_str());
}

TEST(LoadDatasetTest, ResolvesRegisteredNamesAndFiles) {
  LoadDatasetOptions options;
  options.seed = 21;
  options.scale = 0.05;
  auto from_registry = LoadDataset("Retail", options);
  ASSERT_TRUE(from_registry.ok());
  ExpectBitIdentical(*from_registry, *MakeDataset("Retail", 21, 0.05));

  const std::string text = TempPath("dispatch.txt");
  const std::string binary = TempPath("dispatch.umgb");
  ASSERT_TRUE(SaveGraph(*from_registry, text).ok());
  ASSERT_TRUE(SaveGraphBinary(*from_registry, binary).ok());
  auto from_text = LoadDataset(text);
  ASSERT_TRUE(from_text.ok());
  ExpectBitIdentical(*from_text, *from_registry);
  auto from_binary = LoadDataset(binary);
  ASSERT_TRUE(from_binary.ok());
  ExpectBitIdentical(*from_binary, *from_registry);
  std::remove(text.c_str());
  std::remove(binary.c_str());

  auto missing = LoadDataset("NoSuchDatasetOrFile");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(LoadDatasetTest, EdgeListFilesDispatchToImporter) {
  const std::string edges = TempPath("dispatch_edges.csv");
  WriteFile(edges, "0,1\n1,2\n");
  LoadDatasetOptions options;
  options.edge_list.name = "via-dispatch";
  auto graph = LoadDataset(edges, options);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->name(), "via-dispatch");
  EXPECT_EQ(graph->num_nodes(), 3);
  std::remove(edges.c_str());
}

TEST(LoadDatasetTest, DatasetDirRedirectsRegisteredNames) {
  // SaveGraphAuto picks the format from the extension.
  MultiplexGraph g = MakeTiny(77);
  const std::string dir = ::testing::TempDir();
  const std::string file = dir + "/Tiny." + kBinaryGraphExtension;
  ASSERT_TRUE(SaveGraphAuto(g, file).ok());

  setenv("UMGAD_DATASET_DIR", dir.c_str(), 1);
  EXPECT_EQ(FindDatasetFile("Tiny"), file);
  auto redirected = LoadDataset("Tiny");
  ASSERT_TRUE(redirected.ok());
  // Seed 77 graph regardless of the requested seed: the file wins.
  LoadDatasetOptions options;
  options.seed = 1;
  auto still_redirected = LoadDataset("Tiny", options);
  ASSERT_TRUE(still_redirected.ok());
  ExpectBitIdentical(*redirected, g);
  ExpectBitIdentical(*still_redirected, g);

  // Opt-out rebuilds from the registry.
  options.use_dataset_dir = false;
  options.seed = 77;
  auto rebuilt = LoadDataset("Tiny", options);
  ASSERT_TRUE(rebuilt.ok());
  ExpectBitIdentical(*rebuilt, g);

  unsetenv("UMGAD_DATASET_DIR");
  EXPECT_EQ(FindDatasetFile("Tiny"), "");
  std::remove(file.c_str());
}

// ------------------------- FromCsr validation -----------------------------

TEST(FromCsrTest, RejectsBrokenInvariants) {
  // Valid 2x2 with one symmetric pair.
  auto ok = SparseMatrix::FromCsr(2, 2, {0, 1, 2}, {1, 0}, {1.0f, 1.0f});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->nnz(), 2);

  EXPECT_FALSE(
      SparseMatrix::FromCsr(2, 2, {0, 1}, {1, 0}, {1.0f, 1.0f}).ok());
  EXPECT_FALSE(
      SparseMatrix::FromCsr(2, 2, {0, 2, 1}, {1, 0}, {1.0f, 1.0f}).ok());
  EXPECT_FALSE(
      SparseMatrix::FromCsr(2, 2, {0, 1, 2}, {1, 5}, {1.0f, 1.0f}).ok());
  EXPECT_FALSE(SparseMatrix::FromCsr(2, 2, {0, 2, 2}, {1, 1}, {1.0f, 1.0f})
                   .ok());  // duplicate column in row
  EXPECT_FALSE(
      SparseMatrix::FromCsr(2, 2, {0, 1, 2}, {1, 0}, {1.0f}).ok());
}

}  // namespace
}  // namespace umgad
