// On-disk format shootout: serialises Retail at the default bench scale in
// both graph formats and times save + load of each, plus the edge-list
// importer. Acceptance bar (docs/FORMATS.md): the binary load is >= 20x
// faster than the text path at this size.

#include <cstdio>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "graph/io/binary_format.h"
#include "graph/io/edge_list.h"
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

  TablePrinter table;
  table.SetHeader({"Format", "File (KB)", "Save (ms)", "Load (ms)",
                   "vs text"});
  table.AddRow({"text v1", StrFormat("%ld", FileBytes(text_path) / 1024),
                FormatFloat(text_save * 1e3, 2),
                FormatFloat(text_load * 1e3, 2), "1.0x"});
  table.AddRow({"binary v3",
                StrFormat("%ld", FileBytes(binary_path) / 1024),
                FormatFloat(binary_save * 1e3, 2),
                FormatFloat(binary_load * 1e3, 2),
                StrFormat("%.1fx (target >= 20x)", text_load / binary_load)});
  table.Print(std::cout);
  std::cout << "\n";

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
