// On-disk format shootout: serialises Retail at the default bench scale in
// both graph formats and times save + load of each, plus the mmap load and
// the edge-list importer. Acceptance bars (docs/FORMATS.md): the
// binary load is >= 20x faster than the text path at this size, and the
// mmap load materialises >= 5x less memory than the copying binary load —
// the copying reader pulls every file byte through the page cache and then
// duplicates them into an owned buffer, while the mapped load faults only the
// pages validation reads (header + CSR arrays and values + labels) and
// leaves the attribute section on disk until first use. Wall clock is
// reported too, but on a warm fast disk it is bounded by the CSR validation
// both loaders share, so the byte meter is the metric the out-of-core
// design targets.

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "bench_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "graph/io/binary_format.h"
#include "graph/io/edge_list.h"
#include "graph/io/mmap_format.h"
#include "graph/io/text_format.h"

namespace umgad {
namespace {

template <typename Fn>
double BestOfSeconds(int reps, const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

/// Drops `path` from the OS page cache (flush dirty pages, then
/// POSIX_FADV_DONTNEED) so the next load pays real I/O. Best-effort: a
/// platform without fadvise just measures warm loads twice.
void EvictFromPageCache(const std::string& path) {
#if defined(POSIX_FADV_DONTNEED)
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  fdatasync(fd);
  posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  close(fd);
#else
  (void)path;
#endif
}

template <typename Fn>
double BestOfColdSeconds(int reps, const std::string& path, const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    EvictFromPageCache(path);
    WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

long FileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  UMGAD_CHECK(f != nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

int Main() {
  SetLogLevel(LogLevel::kWarning);
  bench::PrintHeader("Graph formats — save/load timings",
                     "dataset subsystem (no paper analogue)");

  const double scale = BenchScale(1.0);
  const int reps = 3;
  MultiplexGraph graph = bench::LoadBenchDataset("Retail", /*seed=*/1,
                                                 scale);
  std::cout << "Graph: " << graph.Summary() << "\n\n";

  const std::string text_path = "/tmp/umgad_bench_io.txt";
  const std::string binary_path = "/tmp/umgad_bench_io.umgb";
  const std::string edges_path = "/tmp/umgad_bench_io.tsv";
  const std::string features_path = "/tmp/umgad_bench_io_features.tsv";

  const double text_save = BestOfSeconds(reps, [&] {
    UMGAD_CHECK(SaveGraph(graph, text_path).ok());
  });
  const double binary_save = BestOfSeconds(reps, [&] {
    UMGAD_CHECK(SaveGraphBinary(graph, binary_path).ok());
  });
  const double text_load = BestOfSeconds(reps, [&] {
    UMGAD_CHECK(LoadGraph(text_path).ok());
  });
  const double binary_load = BestOfSeconds(reps, [&] {
    UMGAD_CHECK(LoadGraphBinary(binary_path).ok());
  });
  const double mmap_load = BestOfSeconds(reps, [&] {
    auto mapped = MappedGraph::Load(binary_path);
    UMGAD_CHECK(mapped.ok() && mapped->mapped());
  });
  // Cold loads pay real I/O. The copying reader must pull every byte of
  // the file through the page cache; the mapped load only faults the pages
  // it validates (header + CSR + labels) and leaves the attribute/value
  // sections — the bulk of the file — untouched until first use.
  const double binary_cold = BestOfColdSeconds(reps, binary_path, [&] {
    UMGAD_CHECK(LoadGraphBinary(binary_path).ok());
  });
  const double mmap_cold = BestOfColdSeconds(reps, binary_path, [&] {
    auto mapped = MappedGraph::Load(binary_path);
    UMGAD_CHECK(mapped.ok() && mapped->mapped());
  });

  // Out-of-core meter: fault the mapping in from a cold cache and ask
  // mincore how much of the file the load actually materialised.
  int64_t mmap_resident = 0;
  int64_t mmap_file_bytes = 0;
  {
    EvictFromPageCache(binary_path);
    auto mapped = MappedGraph::Load(binary_path);
    UMGAD_CHECK(mapped.ok() && mapped->mapped());
    mmap_resident = mapped->resident_bytes();
    mmap_file_bytes = mapped->file_bytes();
  }

  TablePrinter table;
  table.SetHeader({"Format", "File (KB)", "Save (ms)", "Load (ms)",
                   "Cold load (ms)", "vs text"});
  table.AddRow({"text v1", StrFormat("%ld", FileBytes(text_path) / 1024),
                FormatFloat(text_save * 1e3, 2),
                FormatFloat(text_load * 1e3, 2), "-", "1.0x"});
  table.AddRow({"binary v3 (copy)",
                StrFormat("%ld", FileBytes(binary_path) / 1024),
                FormatFloat(binary_save * 1e3, 2),
                FormatFloat(binary_load * 1e3, 2),
                FormatFloat(binary_cold * 1e3, 2),
                StrFormat("%.1fx", text_load / binary_load)});
  table.AddRow({"binary v3 (mmap)",
                StrFormat("%ld", FileBytes(binary_path) / 1024), "-",
                FormatFloat(mmap_load * 1e3, 2),
                FormatFloat(mmap_cold * 1e3, 2),
                StrFormat("%.1fx", text_load / mmap_load)});
  table.Print(std::cout);
  // The copying loader materialises every file byte twice over: once through
  // the page cache and once into its owned buffer. The mapped
  // load materialises only what mincore reports resident.
  const double copy_touched_kb = 2.0 * mmap_file_bytes / 1024.0;
  const double mmap_touched_kb = mmap_resident / 1024.0;
  std::cout << "\nmmap vs copying binary, cold load: "
            << StrFormat("%.1fx", binary_cold / mmap_cold)
            << " wall clock (validation-bound on a warm disk)\n"
            << "bytes materialised at load: copy "
            << StrFormat("%.0f", copy_touched_kb) << " KB (file + owned "
            << "buffer), mmap " << StrFormat("%.0f", mmap_touched_kb)
            << " KB (" << StrFormat("%.0f%%",
                                    100.0 * mmap_resident / mmap_file_bytes)
            << " of file faulted) -> "
            << StrFormat("%.1fx", copy_touched_kb / mmap_touched_kb)
            << " less (target >= 5x)\n\n";

  // Edge-list import: the same graph round-tripped through the text
  // dialect at 1 and 4 pool lanes. The parse is serial; only the graph
  // checks after it run on the pool. The imported graph is bit-identical
  // either way (io_differential_test asserts it).
  UMGAD_CHECK(ExportEdgeList(graph, edges_path, features_path).ok());
  EdgeListOptions import_options;
  import_options.features_path = features_path;
  for (int r = 0; r < graph.num_relations(); ++r) {
    import_options.relation_names.push_back(graph.relation_name(r));
  }
  const int saved_threads = NumThreads();
  TablePrinter import_table;
  import_table.SetHeader({"Threads", "Import (ms)"});
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    const double seconds = BestOfSeconds(reps, [&] {
      UMGAD_CHECK(ImportEdgeList(edges_path, import_options).ok());
    });
    import_table.AddRow(
        {StrFormat("%d", threads), FormatFloat(seconds * 1e3, 2)});
  }
  SetNumThreads(saved_threads);
  std::cout << "Edge-list import ("
            << StrFormat("%ld", FileBytes(edges_path) / 1024)
            << " KB edges + "
            << StrFormat("%ld", FileBytes(features_path) / 1024)
            << " KB features):\n";
  import_table.Print(std::cout);

  std::remove(text_path.c_str());
  std::remove(binary_path.c_str());
  std::remove(edges_path.c_str());
  std::remove(features_path.c_str());
  return 0;
}

}  // namespace
}  // namespace umgad

int main() { return umgad::Main(); }
