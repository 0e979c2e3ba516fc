#include "graph/io/mmap_format.h"

#include <algorithm>
#include <vector>

#include "graph/io/binary_format.h"

#if defined(__unix__) || defined(__APPLE__)
#define UMGAD_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define UMGAD_HAS_MMAP 0
#endif

namespace umgad {

#if UMGAD_HAS_MMAP

namespace {

/// Applies `advice` to the pages covering [p, p + bytes), rounded outward
/// to page boundaries. Best-effort: advice is a hint everywhere it exists.
void AdviseBytes(const void* p, int64_t bytes, int advice) {
#if defined(_SC_PAGESIZE)
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t lo = reinterpret_cast<uintptr_t>(p) / page * page;
  const uintptr_t hi =
      (reinterpret_cast<uintptr_t>(p) + static_cast<uintptr_t>(bytes) +
       page - 1) /
      page * page;
  posix_madvise(reinterpret_cast<void*>(lo), hi - lo, advice);
#else
  (void)p;
  (void)bytes;
  (void)advice;
#endif
}

/// ParseGraphImage's prefetch hook: async readahead of exactly the ranges
/// the parse scans (the CSR index arrays and the labels).
void WillNeed(const void* p, int64_t bytes) {
#if defined(POSIX_MADV_WILLNEED)
  AdviseBytes(p, bytes, POSIX_MADV_WILLNEED);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace

MappedFile::~MappedFile() {
  if (map_ != nullptr) munmap(map_, static_cast<size_t>(size_));
}

int64_t MappedFile::ResidentBytes() const {
#if defined(_SC_PAGESIZE)
  const int64_t page = sysconf(_SC_PAGESIZE);
  const size_t pages = (static_cast<size_t>(size_) + page - 1) / page;
  std::vector<unsigned char> vec(pages);
  if (mincore(map_, static_cast<size_t>(size_), vec.data()) != 0) {
    return size_;
  }
  int64_t resident_pages = 0;
  for (const unsigned char v : vec) resident_pages += (v & 1);
  // The final page may extend past EOF; clamp to the file size.
  return std::min<int64_t>(size_, resident_pages * page);
#else
  return size_;
#endif
}

Result<std::shared_ptr<const MappedFile>> MappedFile::Open(
    const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st;
  if (fstat(fd, &st) != 0) {
    close(fd);
    return Status::IoError("cannot stat " + path);
  }
  const int64_t size = static_cast<int64_t>(st.st_size);
  if (size <= 0) {
    close(fd);
    return Status::InvalidArgument(path + ": empty file");
  }
  void* map = mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                   MAP_PRIVATE, fd, 0);
  // The mapping holds its own reference to the file; the descriptor is not
  // needed past this point (POSIX: munmap and close are independent).
  close(fd);
  if (map == MAP_FAILED) {
    return Status::IoError("cannot mmap " + path);
  }
  // Deliberately no POSIX_MADV_WILLNEED: prefetching the whole file would
  // forfeit the out-of-core win. RANDOM suppresses speculative readahead,
  // so only pages a reader explicitly touches (or prefetches — the graph
  // loader WILLNEEDs exactly the sections it validates, then restores
  // NORMAL) ever fault in; the value and attribute sections — the bulk of
  // a .umgb — stay on disk until first use.
#if defined(POSIX_MADV_RANDOM)
  posix_madvise(map, static_cast<size_t>(size), POSIX_MADV_RANDOM);
#endif
  return std::shared_ptr<const MappedFile>(new MappedFile(map, size));
}

#else  // !UMGAD_HAS_MMAP

MappedFile::~MappedFile() {}

int64_t MappedFile::ResidentBytes() const { return size_; }

Result<std::shared_ptr<const MappedFile>> MappedFile::Open(
    const std::string& path) {
  return Status::Unimplemented("mmap is not available on this platform: " +
                               path);
}

#endif  // UMGAD_HAS_MMAP

bool MmapSupported() { return UMGAD_HAS_MMAP != 0; }

Result<MappedGraph> MappedGraph::Load(const std::string& path) {
  MappedGraph result;
#if UMGAD_HAS_MMAP
  UMGAD_ASSIGN_OR_RETURN(std::shared_ptr<const MappedFile> file,
                         MappedFile::Open(path));
  UMGAD_ASSIGN_OR_RETURN(
      MultiplexGraph graph,
      ParseGraphImage(path, file->data(), file->size(), file, WillNeed));
#if defined(POSIX_MADV_NORMAL)
  // The load's targeted prefetching is done; hand the mapping back to the
  // kernel's default readahead so later streaming over the value/attribute
  // sections (SpMM, encoders) gets normal sequential behaviour.
  AdviseBytes(file->data(), file->size(), POSIX_MADV_NORMAL);
#endif
  result.file_ = std::move(file);
#else
  // Platforms without mmap take the copying loader: the same parse over an
  // owned buffer.
  UMGAD_ASSIGN_OR_RETURN(MultiplexGraph graph, LoadGraphBinary(path));
#endif
  result.graph_ = std::move(graph);
  return result;
}

Result<MultiplexGraph> LoadGraphMapped(const std::string& path) {
  UMGAD_ASSIGN_OR_RETURN(MappedGraph mapped, MappedGraph::Load(path));
  return mapped.TakeGraph();
}

}  // namespace umgad
