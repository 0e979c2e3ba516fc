#ifndef UMGAD_GRAPH_IO_MMAP_FORMAT_H_
#define UMGAD_GRAPH_IO_MMAP_FORMAT_H_

#include <string>

#include "common/result.h"
#include "graph/multiplex_graph.h"

namespace umgad {

/// Loads a `.umgb` graph through a read-only file mapping: ParseGraphImage
/// over the mapped bytes, which copies every section into storage the graph
/// owns, and then unmaps the file before returning. The graph is
/// LoadGraphBinary's, bit for bit, and a corrupt image fails the same
/// parse. On platforms without mmap this is LoadGraphBinary.
///
/// It remains only because perfbench times it as `graph.load_mmap_ms`;
/// ROADMAP item 4 deletes it along with that metric.
Result<MultiplexGraph> LoadGraphMapped(const std::string& path);

}  // namespace umgad

#endif  // UMGAD_GRAPH_IO_MMAP_FORMAT_H_
