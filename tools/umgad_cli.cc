// umgad_cli — the user-facing entry point to the dataset subsystem and the
// detectors behind it.
//
//   umgad_cli list                          registered datasets + detectors
//   umgad_cli gen <name|all> [flags]        generate dataset(s) to disk
//   umgad_cli convert <in> <out>            re-encode between graph formats
//   umgad_cli inspect <path|name> [flags]   print stats (--time: load time)
//   umgad_cli run <path|name> [flags]       run UMGAD + a baseline end to end
//   umgad_cli train <path|name> [flags]     fit UMGAD, save a .umgm artifact
//   umgad_cli serve <path|name> [flags]     online scoring from an artifact
//
// Common flags: --seed N, --scale S (registered generators only),
// --inject (edge-list imports without labels get injected anomalies),
// --header auto|always|never (edge-list header row handling).
// gen:   --out PATH_OR_DIR, --format binary|text
// run:   --detector NAME (repeatable), --baseline NAME, --epochs N,
//        --threshold inflection|topk, --save-scores PATH (CSV)
// train: --save-model PATH.umgm, --epochs N
// serve: --model PATH.umgm, --stream FILE|- ("+ src dst rel" inserts an
//        edge, "- src dst rel" removes one, applied incrementally),
//        --naive (serial from-scratch oracle, for differential checks),
//        --shards S / --queue-capacity N (concurrent sharded
//        serving; drained output byte-identical to the flat path),
//        --metrics (counters + latency percentiles to stderr),
//        --save-scores PATH (CSV; default stdout)
//
// Every path accepted here goes through LoadDataset (graph/io/graph_io.h),
// so text v1, binary v3, raw edge lists, and registered names (including
// UMGAD_DATASET_DIR resolution) all behave identically across subcommands.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/detector.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/model_io.h"
#include "core/threshold.h"
#include "core/umgad.h"
#include "eval/experiment.h"
#include "graph/dataset_registry.h"
#include "graph/io/binary_format.h"
#include "graph/io/graph_io.h"
#include "graph/io/text_format.h"
#include "serve/online_scorer.h"
#include "serve/serve_metrics.h"
#include "serve/shard_router.h"
#include "tensor/dispatch/registry.h"

namespace umgad {
namespace {

struct CliArgs {
  std::string command;
  std::vector<std::string> positional;
  uint64_t seed = 1;
  double scale = 1.0;
  std::string out;
  std::string format = "binary";
  std::vector<std::string> detectors;
  int epochs = 0;
  int partitions = 0;
  std::string partition_method;  // empty = config default (dbh)
  std::string threshold = "inflection";
  bool time = false;
  bool inject = false;
  std::string save_model;
  std::string model;
  std::string stream;
  std::string save_scores;
  bool naive = false;
  int shards = 0;  // 0 = flat single-scorer path
  int queue_capacity = 0;  // 0 = RouterOptions default
  bool metrics = false;
  std::string header = "auto";
  bool kernels = false;  // inspect --kernels
};

int Usage() {
  std::cerr <<
      "usage: umgad_cli <command> [args]\n"
      "\n"
      "commands:\n"
      "  list                         registered datasets and detectors\n"
      "  gen <name|all> [--seed N] [--scale S] [--format binary|text]\n"
      "                 [--out PATH_OR_DIR]\n"
      "  convert <in> <out>           re-encode (format from <out> extension:\n"
      "                               .umgb = binary v3, else text v1)\n"
      "  inspect <path|name> [--seed N] [--scale S] [--time]\n"
      "  inspect --kernels            CPU features and the kernel each\n"
      "                               product runs\n"
      "  run <path|name> [--detector NAME]... [--baseline NAME]\n"
      "                  [--seed N] [--scale S] [--epochs N]\n"
      "                  [--partitions P] [--partition-method dbh|hdrf]\n"
      "                  [--threshold inflection|topk] [--inject]\n"
      "                  [--save-scores PATH]\n"
      "  train <path|name> --save-model PATH.umgm [--seed N] [--scale S]\n"
      "                  [--epochs N] [--partitions P]\n"
      "                  [--partition-method dbh|hdrf]\n"
      "  serve <path|name> --model PATH.umgm [--stream FILE|-]\n"
      "                  [--naive] [--save-scores PATH]\n"
      "                  [--shards S] [--queue-capacity N] [--metrics]\n"
      "                  [--seed N] [--scale S]\n"
      "\n"
      "load flags (any command that loads a graph): --header\n"
      "auto|always|never controls edge-list header-row detection. Saves\n"
      "replace their target file atomically, so converting a .umgb onto\n"
      "itself is safe.\n"
      "\n"
      "serve applies a stream of edge updates (\"+ src dst rel\" inserts,\n"
      "\"- src dst rel\" removes; '#' comments) with incremental re-scoring\n"
      "and emits \"node,score\" CSV. --naive re-scores from scratch with the\n"
      "serial oracle kernels; both paths agree after any stream, and on an\n"
      "unmutated graph they equal the scores `run` prints. --shards S\n"
      "(at most one per node) routes the stream through S concurrent\n"
      "scorer shards instead — the drained CSV is byte-identical to the\n"
      "single-scorer path (the CI serve-smoke job diffs them). --metrics\n"
      "prints serving counters and latency percentiles to stderr; without\n"
      "--shards it also prints the rows, nodes and structure-residual\n"
      "terms re-computed over the whole stream.\n"
      "\n"
      "<path|name> is a registered dataset name (umgad_cli list), a graph\n"
      "file in either format, or a raw edge list (src dst [relation] per\n"
      "line; TSV/CSV/whitespace). UMGAD_DATASET_DIR redirects registered\n"
      "names to pre-generated files.\n";
  return 2;
}

/// Parses all of `text` as a finite T no smaller than `lo`, the way
/// ParseEdgeUpdateLine reads ids: std::from_chars, so a leading '+' or
/// space, a trailing tail, a '-' on an unsigned value and a value outside
/// T's range all fail. On failure prints "<flag> must be <want>" and returns
/// false.
template <typename T>
bool ParseNumber(const char* flag, const char* text, T lo, const char* want,
                 T* out) {
  const char* const end = text + std::strlen(text);
  T value{};
  const std::from_chars_result parsed = std::from_chars(text, end, value);
  bool ok = parsed.ec == std::errc() && parsed.ptr == end && value >= lo;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::cerr << flag << " must be " << want << ", got \"" << text << "\"\n";
    return false;
  }
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr ||
          !ParseNumber<uint64_t>("--seed", v, 0, "a non-negative integer",
                                 &args->seed)) {
        return false;
      }
    } else if (arg == "--scale") {
      const char* v = next("--scale");
      if (v == nullptr ||
          !ParseNumber("--scale", v, std::numeric_limits<double>::min(),
                       "a positive number", &args->scale)) {
        return false;
      }
    } else if (arg == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return false;
      args->out = v;
    } else if (arg == "--format") {
      const char* v = next("--format");
      if (v == nullptr) return false;
      args->format = v;
      if (args->format != "binary" && args->format != "text") {
        std::cerr << "--format must be binary or text\n";
        return false;
      }
    } else if (arg == "--detector" || arg == "--baseline") {
      const char* v = next(arg.c_str());
      if (v == nullptr) return false;
      args->detectors.push_back(v);
    } else if (arg == "--epochs") {
      const char* v = next("--epochs");
      if (v == nullptr ||
          !ParseNumber("--epochs", v, 1, "an integer >= 1", &args->epochs)) {
        return false;
      }
    } else if (arg == "--partitions") {
      const char* v = next("--partitions");
      if (v == nullptr || !ParseNumber("--partitions", v, 1, "an integer >= 1",
                                       &args->partitions)) {
        return false;
      }
    } else if (arg == "--partition-method") {
      const char* v = next("--partition-method");
      if (v == nullptr) return false;
      args->partition_method = v;
      if (args->partition_method != "dbh" &&
          args->partition_method != "hdrf") {
        std::cerr << "--partition-method must be dbh or hdrf\n";
        return false;
      }
    } else if (arg == "--threshold") {
      const char* v = next("--threshold");
      if (v == nullptr) return false;
      args->threshold = v;
      if (args->threshold != "inflection" && args->threshold != "topk") {
        std::cerr << "--threshold must be inflection or topk\n";
        return false;
      }
    } else if (arg == "--time") {
      args->time = true;
    } else if (arg == "--inject") {
      args->inject = true;
    } else if (arg == "--save-model") {
      const char* v = next("--save-model");
      if (v == nullptr) return false;
      args->save_model = v;
    } else if (arg == "--model") {
      const char* v = next("--model");
      if (v == nullptr) return false;
      args->model = v;
    } else if (arg == "--stream") {
      const char* v = next("--stream");
      if (v == nullptr) return false;
      args->stream = v;
    } else if (arg == "--save-scores") {
      const char* v = next("--save-scores");
      if (v == nullptr) return false;
      args->save_scores = v;
    } else if (arg == "--naive") {
      args->naive = true;
    } else if (arg == "--shards") {
      const char* v = next("--shards");
      if (v == nullptr ||
          !ParseNumber("--shards", v, 1, "an integer >= 1", &args->shards)) {
        return false;
      }
    } else if (arg == "--queue-capacity") {
      const char* v = next("--queue-capacity");
      if (v == nullptr ||
          !ParseNumber("--queue-capacity", v, 1, "an integer >= 1",
                       &args->queue_capacity)) {
        return false;
      }
    } else if (arg == "--metrics") {
      args->metrics = true;
    } else if (arg == "--kernels") {
      args->kernels = true;
    } else if (arg == "--header") {
      const char* v = next("--header");
      if (v == nullptr) return false;
      args->header = v;
      if (args->header != "auto" && args->header != "always" &&
          args->header != "never") {
        std::cerr << "--header must be auto, always, or never\n";
        return false;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag " << arg << "\n";
      return false;
    } else {
      args->positional.push_back(arg);
    }
  }
  return true;
}

LoadDatasetOptions LoadOptionsFrom(const CliArgs& args) {
  LoadDatasetOptions load;
  load.seed = args.seed;
  load.scale = args.scale;
  load.edge_list.inject_if_unlabeled = args.inject;
  load.edge_list.injection_seed = args.seed;
  load.edge_list.header = args.header == "always" ? HeaderMode::kAlways
                          : args.header == "never" ? HeaderMode::kNever
                                                   : HeaderMode::kAuto;
  return load;
}

int FailWith(const Status& status) {
  std::cerr << status.ToString() << "\n";
  return 1;
}

const char* GroupName(DatasetGroup group) {
  switch (group) {
    case DatasetGroup::kSmall: return "small (Table II)";
    case DatasetGroup::kLarge: return "large (Table III)";
    case DatasetGroup::kTest: return "test";
  }
  return "?";
}

int CmdList(const CliArgs&) {
  TablePrinter datasets("Registered datasets");
  datasets.SetHeader({"Name", "Group", "Anomalies", "Relations",
                      "Paper #Nodes"});
  for (const DatasetSpec& spec : DatasetRegistry::Global().specs()) {
    std::vector<std::string> rels;
    for (const RelationSpec& rel : spec.relations) rels.push_back(rel.name);
    datasets.AddRow({spec.name, GroupName(spec.group),
                     spec.anomalies.kind ==
                             AnomalySpec::Kind::kInjectedCliques
                         ? "injected"
                         : "organic",
                     Join(rels, "/"),
                     spec.paper_nodes.empty() ? "-" : spec.paper_nodes});
  }
  datasets.Print(std::cout);

  std::cout << "\nDetectors: " << Join(AllDetectorNames(), ", ") << "\n";
  const std::string dir = DatasetDir();
  if (!dir.empty()) std::cout << "UMGAD_DATASET_DIR: " << dir << "\n";
  return 0;
}

/// --out names a single file only when it carries a known graph extension;
/// anything else — including dotted directory names like "corpora.v2" —
/// is a directory to drop "<name>.<ext>" into.
bool OutIsFile(const std::string& path) {
  return EndsWith(path, std::string(".") + kBinaryGraphExtension) ||
         EndsWith(path, std::string(".") + kTextGraphExtension);
}

int GenOne(const std::string& name, const CliArgs& args) {
  Result<MultiplexGraph> graph =
      DatasetRegistry::Global().Build(name, args.seed, args.scale);
  if (!graph.ok()) return FailWith(graph.status());
  const char* ext = args.format == "binary" ? kBinaryGraphExtension
                                            : kTextGraphExtension;
  std::string path = args.out;
  if (path.empty()) {
    path = name + "." + ext;
  } else if (!OutIsFile(path)) {
    path += "/" + name + "." + ext;
  }
  const Status saved = args.format == "binary"
                           ? SaveGraphBinary(*graph, path)
                           : SaveGraph(*graph, path);
  if (!saved.ok()) return FailWith(saved);
  std::cout << path << ": " << graph->Summary() << "\n";
  return 0;
}

int CmdGen(const CliArgs& args) {
  if (args.positional.size() != 1) return Usage();
  if (args.positional[0] == "all") {
    if (OutIsFile(args.out)) {
      std::cerr << "gen all needs --out to be a directory, not a single "
                   "file (every dataset would overwrite it)\n";
      return 2;
    }
    for (const std::string& name : DatasetRegistry::Global().Names()) {
      const int rc = GenOne(name, args);
      if (rc != 0) return rc;
    }
    return 0;
  }
  return GenOne(args.positional[0], args);
}

int CmdConvert(const CliArgs& args) {
  if (args.positional.size() != 2) return Usage();
  LoadDatasetOptions load = LoadOptionsFrom(args);
  Result<MultiplexGraph> graph = LoadDataset(args.positional[0], load);
  if (!graph.ok()) return FailWith(graph.status());
  const Status saved = SaveGraphAuto(*graph, args.positional[1]);
  if (!saved.ok()) return FailWith(saved);
  std::cout << args.positional[1] << ": " << graph->Summary() << "\n";
  return 0;
}

/// The `inspect --kernels` report: what cpuid found and which kernel each
/// product runs — the reproducibility header for cross-box perf reports.
void PrintKernelReport(std::ostream& os) {
  os << "cpu features: "
     << dispatch::CpuFeatureListString(dispatch::DetectedCpuFeatures())
     << "\n\n";
  TablePrinter table;
  table.SetHeader({"Op", "Kernel"});
  for (const dispatch::KernelSelection& sel :
       dispatch::KernelRegistry::Global()->Selections()) {
    table.AddRow({dispatch::KernelOpName(sel.op), sel.variant});
  }
  table.Print(os);
}

/// One-line form for serve --metrics (stderr, greppable).
std::string KernelSummaryLine() {
  std::string line = "kernels:";
  for (const dispatch::KernelSelection& sel :
       dispatch::KernelRegistry::Global()->Selections()) {
    line += StrFormat(" %s=%s", dispatch::KernelOpName(sel.op),
                      sel.variant.c_str());
  }
  line += " features=" +
          dispatch::CpuFeatureListString(dispatch::DetectedCpuFeatures());
  return line;
}

int CmdInspect(const CliArgs& args) {
  if (args.kernels) {
    PrintKernelReport(std::cout);
    return 0;
  }
  if (args.positional.size() != 1) return Usage();
  LoadDatasetOptions load = LoadOptionsFrom(args);
  WallTimer timer;
  Result<MultiplexGraph> graph = LoadDataset(args.positional[0], load);
  const double load_ms = timer.ElapsedMillis();
  if (!graph.ok()) return FailWith(graph.status());

  std::cout << graph->Summary() << "\n\n";
  TablePrinter table;
  table.SetHeader({"Relation", "#Edges", "Mean deg", "Max deg",
                   "Self-loops"});
  for (int r = 0; r < graph->num_relations(); ++r) {
    const SparseMatrix& layer = graph->layer(r);
    int max_degree = 0;
    int64_t self_loops = 0;
    for (int i = 0; i < layer.rows(); ++i) {
      max_degree = std::max(max_degree, layer.RowNnz(i));
      if (layer.Has(i, i)) ++self_loops;
    }
    table.AddRow({graph->relation_name(r),
                  StrFormat("%lld",
                            static_cast<long long>(graph->num_edges(r))),
                  FormatFloat(static_cast<double>(layer.nnz()) /
                                  std::max(1, graph->num_nodes()),
                              2),
                  StrFormat("%d", max_degree),
                  StrFormat("%lld", static_cast<long long>(self_loops))});
  }
  table.Print(std::cout);

  std::cout << "\nfeatures: " << graph->feature_dim() << "-d";
  if (graph->has_labels()) {
    std::cout << "; anomalies: " << graph->num_anomalies() << "/"
              << graph->num_nodes() << " ("
              << FormatFloat(100.0 * graph->num_anomalies() /
                                 graph->num_nodes(),
                             2)
              << "%)";
  } else {
    std::cout << "; unlabeled";
  }
  std::cout << "\n";
  if (args.time) {
    std::cout << "load time: " << FormatFloat(load_ms, 2) << " ms\n";
  }
  return 0;
}

/// "node,<name>..." header then one row per node. Scores are printed with
/// %.17g, which round-trips doubles exactly: diffing two of these CSVs is
/// a bit-equality check (the CI serve-smoke job relies on it).
Status WriteScoresCsv(const std::string& path,
                      const std::vector<std::string>& names,
                      const std::vector<std::vector<double>>& columns) {
  std::ofstream file;
  std::ostream* out = &std::cout;
  if (!path.empty()) {
    file.open(path);
    if (!file) {
      return Status::NotFound(
          StrFormat("cannot open %s for writing", path.c_str()));
    }
    out = &file;
  }
  *out << "node";
  for (const std::string& name : names) *out << "," << name;
  *out << "\n";
  const size_t n = columns.empty() ? 0 : columns[0].size();
  for (size_t i = 0; i < n; ++i) {
    *out << i;
    for (const std::vector<double>& column : columns) {
      *out << "," << StrFormat("%.17g", column[i]);
    }
    *out << "\n";
  }
  out->flush();
  if (!out->good()) {
    return Status::Internal(StrFormat("write to %s failed",
                                      path.empty() ? "stdout" : path.c_str()));
  }
  return Status::OK();
}

int CmdTrain(const CliArgs& args) {
  if (args.positional.size() != 1) return Usage();
  if (args.save_model.empty()) {
    std::cerr << "train needs --save-model PATH." << kModelExtension << "\n";
    return 2;
  }
  LoadDatasetOptions load = LoadOptionsFrom(args);
  Result<MultiplexGraph> graph = LoadDataset(args.positional[0], load);
  if (!graph.ok()) return FailWith(graph.status());
  // The same config surface `run` gives its UMGAD entry, so a train/run
  // pair with identical flags produces identical scores.
  UmgadConfig config;
  config.seed = args.seed;
  if (args.epochs > 0) config.epochs = args.epochs;
  config.partitions = args.partitions;
  if (args.partition_method == "hdrf") {
    config.partition_method = PartitionMethod::kHdrf;
  }
  UmgadModel model(config);
  WallTimer timer;
  const Status fitted = model.Fit(*graph);
  if (!fitted.ok()) return FailWith(fitted);
  Result<TrainedModel> trained = TrainedModel::FromFitted(model, *graph);
  if (!trained.ok()) return FailWith(trained.status());
  const Status saved = trained->Save(args.save_model);
  if (!saved.ok()) return FailWith(saved);
  std::cout << args.save_model << ": " << trained->weights().size()
            << " weight tensors (" << graph->Summary() << "; fit "
            << FormatFloat(timer.ElapsedMillis() / 1000.0, 2) << " s)\n";
  return 0;
}

/// Reads the --stream input ("+|- src dst rel" lines) and hands every
/// update to `apply` in order. Returns the number of updates delivered,
/// or -1 after reporting a parse/apply error to stderr.
int64_t ReplayStream(const CliArgs& args,
                     const std::function<Status(const serve::EdgeUpdate&)>&
                         apply) {
  std::ifstream stream_file;
  std::istream* in = &std::cin;
  if (args.stream != "-") {
    stream_file.open(args.stream);
    if (!stream_file) {
      std::cerr << "cannot open stream file " << args.stream << "\n";
      return -1;
    }
    in = &stream_file;
  }
  int64_t delivered = 0;
  int line_no = 0;
  std::string line;
  while (std::getline(*in, line)) {
    ++line_no;
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const Result<serve::EdgeUpdate> update = serve::ParseEdgeUpdateLine(line);
    if (!update.ok()) {
      std::cerr << args.stream << ":" << line_no << ": "
                << update.status().message() << ", got: " << line << "\n";
      return -1;
    }
    const Status status = apply(*update);
    if (!status.ok()) {
      std::cerr << args.stream << ":" << line_no << ": " << status.ToString()
                << "\n";
      return -1;
    }
    ++delivered;
  }
  return delivered;
}

/// The --shards path: the same stream replayed through a ShardRouter.
/// Once drained, the published snapshot is bit-identical to the flat
/// scorer's, so the CSV byte-diffs clean against the single-scorer run
/// (the CI serve-smoke job holds us to that).
int ServeSharded(const CliArgs& args, TrainedModel trained,
                 const MultiplexGraph& graph) {
  serve::RouterOptions options;
  options.num_shards = args.shards;
  if (args.queue_capacity > 0) options.queue_capacity = args.queue_capacity;
  auto router = serve::ShardRouter::Create(std::move(trained), graph, options);
  if (!router.ok()) return FailWith(router.status());

  if (!args.stream.empty()) {
    WallTimer timer;
    const int64_t submitted =
        ReplayStream(args, [&](const serve::EdgeUpdate& update) {
          (*router)->Submit({update});
          return Status::OK();
        });
    if (submitted < 0) return 1;
    (*router)->Flush();
    const double seconds = timer.ElapsedMillis() / 1000.0;
    const serve::RouterStats stats = (*router)->Stats();
    // Invalid updates surface only after the asynchronous apply; every
    // shard rejects the same ones, so report the per-replica count.
    if (stats.total_rejected > 0) {
      std::cerr << args.stream << ": "
                << stats.total_rejected / args.shards
                << " updates were invalid against the evolving graph\n";
      return 1;
    }
    std::cerr << "applied " << submitted << " updates across "
              << args.shards << " shards in "
              << FormatFloat(seconds * 1000.0, 2) << " ms ("
              << FormatFloat(seconds > 0 ? submitted / seconds : 0.0, 0)
              << " edges/s)\n";
  }
  if (args.metrics) {
    std::cerr << FormatRouterStats((*router)->Stats());
    std::cerr << KernelSummaryLine() << "\n";
  }

  const std::vector<double> scores = (*router)->Snapshot()->scores;
  const Status written = WriteScoresCsv(args.save_scores, {"score"}, {scores});
  if (!written.ok()) return FailWith(written);
  if (!args.save_scores.empty()) {
    std::cerr << args.save_scores << ": " << scores.size() << " scores\n";
  }
  return 0;
}

int CmdServe(const CliArgs& args) {
  if (args.positional.size() != 1) return Usage();
  if (args.model.empty()) {
    std::cerr << "serve needs --model PATH." << kModelExtension << "\n";
    return 2;
  }
  if (args.shards > 0 && args.naive) {
    std::cerr << "--shards serves the incremental path only (no --naive)\n";
    return 2;
  }
  LoadDatasetOptions load = LoadOptionsFrom(args);
  Result<MultiplexGraph> graph = LoadDataset(args.positional[0], load);
  if (!graph.ok()) return FailWith(graph.status());
  Result<TrainedModel> trained = TrainedModel::Load(args.model);
  if (!trained.ok()) return FailWith(trained.status());
  if (args.shards > 0) {
    return ServeSharded(args, *std::move(trained), *graph);
  }
  auto scorer = serve::OnlineScorer::Create(*std::move(trained), *graph);
  if (!scorer.ok()) return FailWith(scorer.status());

  // The flat path applies one update at a time, so summing the last
  // update's work counts after each one gives the replay's total work.
  int64_t total_dirty_rows = 0;
  int64_t total_rescored_nodes = 0;
  int64_t total_residual_terms = 0;
  if (!args.stream.empty()) {
    WallTimer timer;
    const int64_t applied =
        ReplayStream(args, [&](const serve::EdgeUpdate& update) {
          const Status status = (*scorer)->ApplyEdgeUpdate(update);
          if (status.ok()) {
            total_dirty_rows += (*scorer)->stats().last_dirty_rows;
            total_rescored_nodes += (*scorer)->stats().last_rescored_nodes;
            total_residual_terms += (*scorer)->stats().last_residual_terms;
          }
          return status;
        });
    if (applied < 0) return 1;
    const double seconds = timer.ElapsedMillis() / 1000.0;
    std::cerr << "applied " << applied << " updates in "
              << FormatFloat(seconds * 1000.0, 2) << " ms ("
              << FormatFloat(seconds > 0 ? applied / seconds : 0.0, 0)
              << " edges/s)\n";
  }
  if (args.metrics) {
    const serve::ServeStats& stats = (*scorer)->stats();
    std::cerr << "scorer: updates=" << stats.updates_applied
              << " last_dirty_rows=" << stats.last_dirty_rows
              << " last_rescored_nodes=" << stats.last_rescored_nodes
              << " last_residual_terms=" << stats.last_residual_terms << "\n";
    std::cerr << "scorer totals: dirty_rows=" << total_dirty_rows
              << " rescored_nodes=" << total_rescored_nodes
              << " residual_terms=" << total_residual_terms << "\n";
    std::cerr << KernelSummaryLine() << "\n";
  }

  const std::vector<double> scores =
      args.naive ? (*scorer)->RescoreFullNaive() : (*scorer)->scores();
  const Status written = WriteScoresCsv(args.save_scores, {"score"}, {scores});
  if (!written.ok()) return FailWith(written);
  if (!args.save_scores.empty()) {
    std::cerr << args.save_scores << ": " << scores.size() << " scores\n";
  }
  return 0;
}

int CmdRun(const CliArgs& args) {
  if (args.positional.size() != 1) return Usage();
  LoadDatasetOptions load = LoadOptionsFrom(args);
  Result<MultiplexGraph> graph = LoadDataset(args.positional[0], load);
  if (!graph.ok()) return FailWith(graph.status());
  std::cout << graph->Summary() << "\n\n";

  // UMGAD plus one chosen baseline by default; --detector/--baseline
  // override the roster entirely.
  std::vector<std::string> roster = args.detectors;
  if (roster.empty()) roster = {"UMGAD", "DOMINANT"};
  else if (std::find(roster.begin(), roster.end(), "UMGAD") == roster.end()) {
    roster.insert(roster.begin(), "UMGAD");
  }
  const bool labeled = graph->has_labels();
  TablePrinter table;
  if (labeled) {
    table.SetHeader({"Method", "AUC", "Macro-F1", "Pred./true anomalies",
                     "Fit (s)"});
  } else {
    table.SetHeader({"Method", "Predicted anomalies", "Threshold",
                     "Fit (s)"});
  }
  std::vector<std::string> score_names;
  std::vector<std::vector<double>> score_columns;
  for (const std::string& name : roster) {
    Result<std::unique_ptr<Detector>> detector = [&] {
      // --epochs/--partitions steer the UMGAD run directly; baselines keep
      // their published training budgets (and have no partitioned path).
      if (name == "UMGAD" && (args.epochs > 0 || args.partitions > 0)) {
        UmgadConfig config;
        config.seed = args.seed;
        if (args.epochs > 0) config.epochs = args.epochs;
        config.partitions = args.partitions;
        if (args.partition_method == "hdrf") {
          config.partition_method = PartitionMethod::kHdrf;
        }
        return Result<std::unique_ptr<Detector>>(
            std::unique_ptr<Detector>(new UmgadModel(config)));
      }
      return MakeDetector(name, args.seed);
    }();
    if (!detector.ok()) return FailWith(detector.status());
    const Status fitted = (*detector)->Fit(*graph);
    if (!fitted.ok()) return FailWith(fitted);
    if (!args.save_scores.empty()) {
      score_names.push_back(name);
      score_columns.push_back((*detector)->scores());
    }
    if (labeled) {
      const RunResult run = EvaluateFitted(
          **detector, *graph,
          args.threshold == "topk" ? ThresholdMode::kTopKLeakage
                                   : ThresholdMode::kInflection);
      table.AddRow({name, FormatFloat(run.auc, 3),
                    FormatFloat(run.macro_f1, 3),
                    StrFormat("%d/%d", run.predicted_anomalies,
                              graph->num_anomalies()),
                    FormatFloat(run.fit_seconds, 2)});
    } else {
      const ThresholdResult threshold =
          SelectThresholdInflection((*detector)->scores());
      table.AddRow({name, StrFormat("%d", threshold.num_predicted),
                    FormatFloat(threshold.threshold, 4),
                    FormatFloat((*detector)->fit_seconds(), 2)});
    }
    std::cerr << "  done: " << name << "\n";
  }
  table.Print(std::cout);
  if (!labeled) {
    std::cout << "\n(no ground-truth labels: scores + label-free threshold "
                 "only; --inject marks up unlabeled edge-list imports)\n";
  }
  if (!args.save_scores.empty()) {
    const Status written =
        WriteScoresCsv(args.save_scores, score_names, score_columns);
    if (!written.ok()) return FailWith(written);
    std::cerr << args.save_scores << ": raw scores for "
              << Join(score_names, ", ") << "\n";
  }
  return 0;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.command == "list") return CmdList(args);
  if (args.command == "gen") return CmdGen(args);
  if (args.command == "convert") return CmdConvert(args);
  if (args.command == "inspect") return CmdInspect(args);
  if (args.command == "run") return CmdRun(args);
  if (args.command == "train") return CmdTrain(args);
  if (args.command == "serve") return CmdServe(args);
  return Usage();
}

}  // namespace
}  // namespace umgad

int main(int argc, char** argv) { return umgad::Main(argc, argv); }
