#ifndef UMGAD_GRAPH_IO_BINARY_FORMAT_H_
#define UMGAD_GRAPH_IO_BINARY_FORMAT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "graph/multiplex_graph.h"

namespace umgad {

/// Versioned little-endian binary graph container (`.umgb`, v3; the text
/// format is v1 of the on-disk story). Full spec in docs/FORMATS.md.
///
/// Layout: fixed magic/version/flags header, length-prefixed names, then
/// raw sections — per relation the CSR arrays exactly as stored in memory
/// (row_ptr int64, col_idx int32, values float32), the attribute matrix as
/// one float32 block, labels as int32 — closed by a trailer magic that
/// detects truncation. Every bulk array starts at an 8-aligned offset and
/// loads with one block copy rather than a per-value parse.
///
/// Round trips are bit-exact: the CSR arrays, attribute floats, and labels
/// are preserved verbatim in both directions. Save replaces `path`
/// atomically (a temp file renamed over it), so a reader that has the old
/// file open or mapped keeps seeing the old bytes.
Status SaveGraphBinary(const MultiplexGraph& graph, const std::string& path);

/// Runs ParseGraphImage's parse over the file itself: each section is
/// read from the file straight into the array that keeps it, with no
/// whole-file buffer. The graph and every Status are those ParseGraphImage
/// gives for the file's bytes, except that a file that shrinks during the
/// load fails with IoError.
Result<MultiplexGraph> LoadGraphBinary(const std::string& path);

/// The one `.umgb` parse. Copies every section of the `size`-byte image at
/// `bytes` into storage the returned graph owns, so the image may be freed
/// or unmapped as soon as this returns. Every section is bounded by `size`
/// before anything is allocated for it, header counts are capped, the CSR
/// invariants are checked (SparseMatrix::FromCsr), trailing bytes after
/// the trailer are rejected, and the graph passes MultiplexGraph::Create's
/// checks (finite weights and attributes, symmetric layers): a corrupt
/// image fails with a Status.
Result<MultiplexGraph> ParseGraphImage(const std::string& path,
                                       const unsigned char* bytes,
                                       int64_t size);

/// True if the file starts with the binary magic (cheap format sniff used
/// by LoadDataset; does not validate anything past the first 4 bytes).
bool LooksLikeBinaryGraph(const std::string& path);

/// Canonical file extensions used by the tools layer ("umgb" / "txt").
extern const char kBinaryGraphExtension[];
extern const char kTextGraphExtension[];

}  // namespace umgad

#endif  // UMGAD_GRAPH_IO_BINARY_FORMAT_H_
