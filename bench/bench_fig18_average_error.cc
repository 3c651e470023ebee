// Figure 18 (Exp-3): average error vs zeta.
// Paper shape: average error grows with zeta and stays well below zeta;
// DP has lower error than FBQS; OPERB ~= OPERB-A (interpolation adds no
// error). The OPERB columns run the paper's heuristics verbatim, which do
// not keep the bound on this data (DESIGN.md "Error-bound guard"); the
// `bound` column names every algorithm whose worst point exceeds zeta.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace operb;  // NOLINT
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  bench::Banner(
      "Figure 18: average error (m) vs zeta",
      "errors grow with zeta; DP and FBQS (and the guarded OPERB "
      "variants, not shown) stay <= zeta, paper-mode OPERB/OPERB-A may "
      "not; DP below FBQS; OPERB ~= OPERB-A");

  const std::vector<baselines::Algorithm> algos{
      baselines::Algorithm::kDP, baselines::Algorithm::kFBQS,
      baselines::Algorithm::kOPERB, baselines::Algorithm::kOPERBA};

  for (auto kind : datagen::AllDatasetKinds()) {
    const auto dataset = bench::MakeDataset(kind, 8, 8000);
    std::printf("\n[%s] average error (m); 'max' column is the worst "
                "per-point distance over all four algorithms\n%8s",
                std::string(datagen::DatasetName(kind)).c_str(), "zeta_m");
    for (auto algo : algos) {
      std::printf(" %11s",
                  std::string(baselines::AlgorithmName(algo)).c_str());
    }
    std::printf(" %9s  %s\n", "max", "bound");

    for (double zeta : {5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
      std::printf("%8.0f", zeta);
      double worst = 0.0;
      std::string over;  // algorithms whose worst point exceeds zeta
      for (auto algo : algos) {
        const auto s = bench::MakePaperSimplifier(algo, zeta);
        std::vector<traj::PiecewiseRepresentation> reps;
        for (const auto& t : dataset) reps.push_back(s->Simplify(t));
        const auto err = eval::AggregateError(dataset, reps);
        std::printf(" %11.2f", err.average);
        if (err.max > worst) worst = err.max;
        if (err.max > zeta) {
          over += over.empty() ? "" : ",";
          over += baselines::AlgorithmName(algo);
        }
      }
      std::printf(" %9.2f  %s\n", worst,
                  over.empty() ? "<= zeta" : ("> zeta: " + over).c_str());
    }
  }
  return 0;
}
