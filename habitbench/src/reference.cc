// habitbench_reference: reference figures for the README, on the same
// corpus and gaps the workloads use. For each method spec it builds the model
// once from the training trips, imputes every gap in one single-threaded
// ImputeBatch, and prints build time, per-query latency, search effort and
// DTW accuracy (the benchmark's own DTW).
//
//   habitbench_reference [spec ...]
//   (default specs: habit:r=9 habit:r=10 gti sli)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/registry.h"
#include "bench.h"
#include "checks.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace habitbench;
  std::vector<std::string> specs(argv + 1, argv + argc);
  if (specs.empty()) specs = {"habit:r=9", "habit:r=10", "gti", "sli"};
  auto corpus = MakeCorpus();
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  const Corpus& c = corpus.value();
  std::printf("KIEL: %zu training trips, %zu points, %zu gaps\n",
              c.train.size(), c.train_points, c.gaps.size());
  std::printf("%-12s %9s %9s %9s %11s %10s %10s %6s\n", "spec", "build_s",
              "q_p50_ms", "q_p99_ms", "expanded", "dtw_mean", "dtw_med",
              "fail");
  for (const std::string& spec : specs) {
    const Clock::time_point start = Clock::now();
    auto model = habit::api::MakeModel(spec, c.train);
    const double build_s = SecondsBetween(start, Clock::now());
    if (!model.ok()) {
      std::printf("%-12s %s\n", spec.c_str(),
                  model.status().ToString().c_str());
      continue;
    }
    std::vector<double> query_seconds;
    const auto results = model.value()->ImputeBatch(c.requests, &query_seconds);
    std::vector<double> dtw, expanded;
    size_t failures = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        ++failures;
        continue;
      }
      dtw.push_back(OwnGapDtw(results[i].value().path,
                              habit::eval::GroundTruthPath(c.gaps[i])));
      expanded.push_back(static_cast<double>(results[i].value().expanded));
    }
    for (double& s : query_seconds) s *= 1e3;
    std::printf("%-12s %9.3f %9.4f %9.4f %11.1f %10.1f %10.1f %6zu\n",
                spec.c_str(), build_s, Quantile(query_seconds, 0.5),
                Quantile(query_seconds, 0.99), Mean(expanded), Mean(dtw),
                Median(dtw), failures);
  }
  return 0;
}
