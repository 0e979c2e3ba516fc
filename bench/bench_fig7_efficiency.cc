// Fig. 7: efficiency. (a) per-epoch runtime, (b) total runtime of UMGAD vs
// the four strongest baselines on Retail / YelpChi / T-Social(scaled), and
// (c) UMGAD's training-loss convergence on YelpChi. Each cell fits its
// detector kFits times from the same seed and prints the median runtime
// with its min-max range; the AUC is the first fit's.

#include <algorithm>

#include "bench_util.h"

namespace umgad {
namespace {

constexpr int kFits = 3;

/// "median [min-max]" of the timings.
std::string Spread(std::vector<double> seconds, int digits) {
  std::sort(seconds.begin(), seconds.end());
  return FormatFloat(seconds[seconds.size() / 2], digits) + " [" +
         FormatFloat(seconds.front(), digits) + "-" +
         FormatFloat(seconds.back(), digits) + "]";
}

int Main() {
  SetLogLevel(LogLevel::kWarning);
  bench::PrintHeader("Fig. 7 — runtime and convergence",
                     "Fig. 7a/7b (runtimes) and 7c (loss curve)");

  const uint64_t seed = BenchSeeds(1)[0];
  const std::vector<std::string> methods = {"UMGAD", "GRADATE", "GADAM",
                                            "ADA-GAD", "DualGAD"};
  struct BenchTarget {
    std::string name;
    double scale;
  };
  const std::vector<BenchTarget> datasets = {
      {"Retail", BenchScale(0.4)},
      {"YelpChi", BenchScale(0.3)},
      {"T-Social", BenchScale(0.05)},
  };

  TablePrinter table("Fig. 7a/7b — runtimes");
  table.SetHeader({"Method", "Dataset", "Epoch (s) med [min-max]",
                   "Total (s) med [min-max]", "AUC"});
  std::vector<double> umgad_loss_curve;
  for (const BenchTarget& spec : datasets) {
    MultiplexGraph graph =
        bench::LoadBenchDataset(spec.name, seed, spec.scale);
    for (const std::string& method : methods) {
      std::vector<double> epoch_s;
      std::vector<double> fit_s;
      double auc = 0.0;
      for (int fit = 0; fit < kFits; ++fit) {
        auto detector = MakeDetector(method, seed);
        UMGAD_CHECK(detector.ok());
        if (!(*detector)->Fit(graph).ok()) break;
        epoch_s.push_back((*detector)->epoch_seconds());
        fit_s.push_back((*detector)->fit_seconds());
        if (fit > 0) continue;
        auc = RocAuc((*detector)->scores(), graph.labels());
        if (method == "UMGAD" && spec.name == "YelpChi") {
          auto* model = dynamic_cast<UmgadModel*>(detector->get());
          UMGAD_CHECK(model != nullptr);
          umgad_loss_curve = model->loss_history();
        }
      }
      if (static_cast<int>(fit_s.size()) < kFits) continue;
      table.AddRow({method, spec.name, Spread(epoch_s, 4), Spread(fit_s, 2),
                    FormatFloat(auc, 3)});
      std::cerr << "  done: " << spec.name << " / " << method << "\n";
    }
    table.AddSeparator();
  }
  table.Print(std::cout);

  std::cout << "\nFig. 7c — UMGAD training loss on YelpChi:\n  "
            << bench::Sparkline(umgad_loss_curve, 60) << "\n  first="
            << FormatFloat(umgad_loss_curve.front(), 3) << " last="
            << FormatFloat(umgad_loss_curve.back(), 3) << " epochs="
            << umgad_loss_curve.size() << "\n";
  std::cout << "\nExpected shape (paper): UMGAD converges within the first "
               "third of training and is competitive on per-epoch time.\n";
  return 0;
}

}  // namespace
}  // namespace umgad

int main() { return umgad::Main(); }
