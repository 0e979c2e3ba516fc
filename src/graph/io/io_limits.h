#ifndef UMGAD_GRAPH_IO_IO_LIMITS_H_
#define UMGAD_GRAPH_IO_IO_LIMITS_H_

#include <cstdint>

namespace umgad {
namespace io_limits {

/// Shared header sanity bounds for every graph loader (text, binary,
/// edge list): a corrupt or hostile size field must produce a Status, not
/// a multi-gigabyte allocation. The caps are far above any graph this
/// library can train on while keeping worst-case pre-validation
/// allocations harmless. One definition so the loaders cannot drift.
constexpr int64_t kMaxNodes = 100'000'000;
constexpr int64_t kMaxFeatures = 65'536;
constexpr int64_t kMaxRelations = 4'096;
constexpr int64_t kMaxNameLen = 4'096;
constexpr int64_t kMaxAttributeEntries = int64_t{1} << 31;  // 8 GiB of f32
/// Edge-list import cap on nodes x relations. The importer sizes a row_ptr
/// of nodes + 1 int64s per relation and, without a features file, a
/// nodes x (relations + 1) float matrix, both from the largest node id in
/// the file, so a few lines can name a huge graph. At this cap those take
/// about 200 MB. It admits DG-Fin at its paper size (3.7M nodes x 3
/// relations) but not T-Social (5.78M x 3); training either is out of
/// reach anyway, as a 37k-node Fit already peaks near 0.9 GB.
constexpr int64_t kMaxImportNodeRelations = int64_t{1} << 24;

/// Training-side partition fan-out cap (umgad_cli --partitions /
/// UMGAD_PARTITIONS): far above any useful block count (blocks are
/// cache-sized, so even a 10^8-node graph wants only thousands), low
/// enough that per-vertex x per-block bookkeeping stays harmless.
constexpr int64_t kMaxPartitions = 65'536;

/// Overflow-guarded element count: a * b as int64, or -1 when either
/// factor is negative or the product would overflow or exceed `cap`.
/// The one size-check helper shared by every size-field consumer —
/// the graph loaders (nodes x features attribute buffers), the CSR
/// validator behind SparseMatrix::FromCsr, and the partition builder
/// (vertices x blocks incidence counters) — so "multiply two
/// attacker-controlled sizes" is never re-derived ad hoc per site.
/// Header-only on purpose: the tensor layer includes it without
/// linking umgad_graph.
constexpr int64_t CheckedElemCount(int64_t a, int64_t b, int64_t cap) {
  return (a < 0 || b < 0 || cap < 0) ? -1
         : (a != 0 && b > cap / a)   ? -1
                                     : a * b;
}

}  // namespace io_limits
}  // namespace umgad

#endif  // UMGAD_GRAPH_IO_IO_LIMITS_H_
