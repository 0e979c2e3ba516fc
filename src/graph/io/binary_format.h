#ifndef UMGAD_GRAPH_IO_BINARY_FORMAT_H_
#define UMGAD_GRAPH_IO_BINARY_FORMAT_H_

#include <cstdint>
#include <memory>
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
/// detects truncation. Every bulk array sits at an 8-aligned offset, so a
/// loaded graph's CSR arrays and attribute matrix are views into the image
/// rather than per-value parses.
///
/// Round trips are bit-exact: the CSR arrays, attribute floats, and labels
/// are preserved verbatim in both directions. Save replaces `path`
/// atomically (a temp file renamed over it), so it never truncates a file
/// another graph is still mapped from.
Status SaveGraphBinary(const MultiplexGraph& graph, const std::string& path);

/// Reads the whole file into one owned buffer and parses it with
/// ParseGraphImage: the graph borrows its CSR arrays and attribute matrix
/// from that buffer (mutable_attributes() is copy-on-write). Unlike a
/// mapping, the buffer is a snapshot — a later rewrite of the file by
/// another process cannot reach it.
Result<MultiplexGraph> LoadGraphBinary(const std::string& path);

/// The one `.umgb` parse behind both loaders (LoadGraphBinary and
/// MappedGraph::Load). Parses the `size`-byte image at `bytes` into a graph
/// whose CSR arrays and attribute matrix are views into the image, kept
/// alive by `keepalive` (labels are copied). `bytes` must be 8-byte
/// aligned. Every section is bounded by `size` before use, header counts
/// are capped, the CSR invariants are checked (FromBorrowedCsr) and
/// trailing bytes after the trailer are rejected — a corrupt image fails
/// with a Status. `prefetch`, when set, is called on each byte range the
/// parse is about to scan (the mmap loader issues readahead there).
Result<MultiplexGraph> ParseGraphImage(
    const std::string& path, const unsigned char* bytes, int64_t size,
    std::shared_ptr<const void> keepalive,
    void (*prefetch)(const void* p, int64_t bytes) = nullptr);

/// True if the file starts with the binary magic (cheap format sniff used
/// by LoadDataset; does not validate anything past the first 4 bytes).
bool LooksLikeBinaryGraph(const std::string& path);

/// Canonical file extensions used by the tools layer ("umgb" / "txt").
extern const char kBinaryGraphExtension[];
extern const char kTextGraphExtension[];

}  // namespace umgad

#endif  // UMGAD_GRAPH_IO_BINARY_FORMAT_H_
