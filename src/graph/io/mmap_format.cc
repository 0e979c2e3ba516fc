#include "graph/io/mmap_format.h"

#include "common/byte_io.h"
#include "graph/io/binary_format.h"

#if defined(__unix__) || defined(__APPLE__)
#define UMGAD_HAS_MMAP 1
#include <sys/mman.h>
#else
#define UMGAD_HAS_MMAP 0
#endif

namespace umgad {

#if UMGAD_HAS_MMAP

Result<MultiplexGraph> LoadGraphMapped(const std::string& path) {
  UMGAD_ASSIGN_OR_RETURN(const ReadOnlyFile file, ReadOnlyFile::Open(path));
  if (file.size() <= 0) return Status::InvalidArgument(path + ": empty file");
  const size_t size = static_cast<size_t>(file.size());
  void* map = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, file.fd(), 0);
  if (map == MAP_FAILED) return Status::IoError("cannot mmap " + path);
  Result<MultiplexGraph> graph = ParseGraphImage(
      path, static_cast<const unsigned char*>(map), file.size());
  munmap(map, size);
  return graph;
}

#else  // !UMGAD_HAS_MMAP

Result<MultiplexGraph> LoadGraphMapped(const std::string& path) {
  return LoadGraphBinary(path);
}

#endif  // UMGAD_HAS_MMAP

}  // namespace umgad
