#ifndef UMGAD_GRAPH_IO_MMAP_FORMAT_H_
#define UMGAD_GRAPH_IO_MMAP_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "graph/multiplex_graph.h"

namespace umgad {

/// Read-only memory mapping of a whole file. The mapping is PROT_READ and
/// private; it is unmapped when the last shared_ptr holding it dies — every
/// borrowed view created by the mapped graph loader (CSR spans, the
/// attribute tensor) carries one as its keepalive, so the mapping strictly
/// outlives every reader of its bytes, in any destruction order, even after
/// the file itself is deleted or re-loaded.
class MappedFile {
 public:
  /// Maps `path` read-only. Fails with IoError when the file cannot be
  /// opened/stat'ed/mapped and InvalidArgument when it is empty (a zero-size
  /// file cannot be mapped and is not a valid graph anyway).
  static Result<std::shared_ptr<const MappedFile>> Open(
      const std::string& path);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const unsigned char* data() const {
    return static_cast<const unsigned char*>(map_);
  }
  int64_t size() const { return size_; }

  /// Bytes of the mapping currently resident in physical memory (a mincore
  /// page walk). This is the out-of-core meter: right after Load it counts
  /// only the pages the loader faulted (header + CSR arrays + labels, plus
  /// kernel readahead) — the attribute and value sections stay on disk
  /// until first use. Returns size() on platforms without mincore.
  int64_t ResidentBytes() const;

 private:
  MappedFile(void* map, int64_t size) : map_(map), size_(size) {}

  void* map_;
  int64_t size_;
};

/// True when this platform can mmap (a compile-time property).
bool MmapSupported();

/// A `.umgb` graph loaded through a file mapping: ParseGraphImage — the same
/// parse LoadGraphBinary runs over an owned buffer — over the mapped bytes,
/// so the CSR arrays and the attribute matrix are *views* into the mapping
/// (zero copy; labels — 4 bytes per node — are copied so `labels()` can
/// stay a vector), kept alive by the views themselves. A corrupt file fails
/// with the same Status either loader would give.
///
/// The mapping sees the file's inode, not a snapshot: SaveGraphBinary
/// replaces files by rename and never disturbs it, but another process
/// truncating the file in place would. Use LoadGraphBinary when that can
/// happen. On platforms without mmap, Load is LoadGraphBinary and reports
/// mapped() == false.
class MappedGraph {
 public:
  static Result<MappedGraph> Load(const std::string& path);

  const MultiplexGraph& graph() const { return graph_; }
  /// Moves the graph out. Safe: the keepalives ride inside the layers and
  /// the attribute tensor, so the mapping survives this wrapper.
  MultiplexGraph TakeGraph() { return std::move(graph_); }

  /// False on platforms without mmap (the copying loader ran).
  bool mapped() const { return file_ != nullptr; }
  /// Size of the backing file in bytes; 0 when the copying loader ran.
  int64_t file_bytes() const { return file_ == nullptr ? 0 : file_->size(); }
  /// Bytes of the mapping resident in memory right now (see
  /// MappedFile::ResidentBytes); 0 when the copying loader ran.
  int64_t resident_bytes() const {
    return file_ == nullptr ? 0 : file_->ResidentBytes();
  }

 private:
  MultiplexGraph graph_;
  std::shared_ptr<const MappedFile> file_;
};

/// Convenience wrapper: MappedGraph::Load + TakeGraph. This is what
/// LoadDataset's `prefer_mmap` option and `umgad_cli --mmap` call.
Result<MultiplexGraph> LoadGraphMapped(const std::string& path);

}  // namespace umgad

#endif  // UMGAD_GRAPH_IO_MMAP_FORMAT_H_
