// Workload "build": cold HABIT builds from the training trips, repeated
// until the run's time is used, then in-process ImputeBatch passes over
// every gap, scored against the simulator's ground truth. Exercises the
// build pipeline (habit graph_builder, minidb GROUP BY, sketch HLL, graph
// freeze) and single-threaded search; no serving layer runs.
//
// The traced run builds through the habit layer's stage functions instead
// of MakeModel, so each stage of every build gets its own span.
#include <algorithm>
#include <numeric>

#include "api/adapters.h"
#include "bench.h"
#include "checks.h"
#include "core/rng.h"

namespace habitbench {

namespace {
// In-process passes over every gap after the builds.
constexpr int kPasses = 8;
}  // namespace

void RunBuild(Env& env) {
  EndSetup(env);
  const Clock::time_point phase_start = Clock::now();
  std::vector<double> build_seconds;
  habit::Result<std::unique_ptr<habit::api::ImputationModel>> model =
      habit::Status::Internal("no build ran");
  do {
    ++env.report.attempted;
    if (env.tracer.enabled()) {
      const Clock::time_point start = Clock::now();
      if (ProfileBuild(env, env.corpus.train) == 0) ++env.report.failed;
      build_seconds.push_back(SecondsBetween(start, Clock::now()));
    } else {
      model = ColdBuild(env, env.corpus.train, &build_seconds);
      if (!model.ok()) ++env.report.failed;
    }
  } while (SecondsBetween(phase_start, Clock::now()) < env.options.seconds);
  env.report.Set("build_s", Fastest(build_seconds));

  // The passes query the last build; the traced run, whose builds stop at
  // the frozen graph, builds the model once more outside its timings.
  if (env.tracer.enabled()) {
    std::vector<double> unused;
    model = ColdBuild(env, env.corpus.train, &unused);
  }
  if (!model.ok()) {
    env.report.Fail("build: " + model.status().ToString());
    return;
  }
  const auto& requests = env.corpus.requests;
  // The passes send the gaps in a seeded order.
  std::vector<size_t> order(requests.size());
  std::iota(order.begin(), order.end(), 0);
  habit::Rng rng(env.options.seed ^ 0xB111DB111DULL);
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::vector<habit::api::ImputeRequest> batch;
  for (const size_t g : order) batch.push_back(requests[g]);
  // Per pass: queries per second and the per-query p50 / p99; each figure
  // reported is the median over the passes.
  std::vector<double> pass_qps, pass_p50, pass_p99;
  std::vector<uint64_t> first_pass(batch.size(), 0);
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<double> query_seconds;
    const Clock::time_point start = Clock::now();
    auto results = model.value()->ImputeBatch(batch, &query_seconds);
    pass_qps.push_back(static_cast<double>(batch.size()) /
                       SecondsBetween(start, Clock::now()));
    env.report.attempted += batch.size();
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        ++env.report.failed;
        env.report.Fail("gap " + std::to_string(order[i]) + ": " +
                        results[i].status().ToString());
        continue;
      }
      env.report.Check(CheckPath(batch[i], results[i].value()));
      const uint64_t hash = AnswerHash(results[i].value());
      if (pass == 0) {
        first_pass[i] = hash;
      } else if (first_pass[i] != hash) {
        env.report.Fail("gap " + std::to_string(order[i]) +
                        " answered differently on pass " +
                        std::to_string(pass));
      }
    }
    for (double& s : query_seconds) s *= 1e3;
    pass_p50.push_back(Quantile(query_seconds, 0.5));
    pass_p99.push_back(Quantile(query_seconds, 0.99));
  }
  env.report.Set("serve_qps", Median(pass_qps));
  env.report.Set("frame_p50_ms", Median(pass_p50));
  env.report.Set("trace.frame_p50_ms", Median(pass_p50));
  env.report.Set("frame_p99_ms", Median(pass_p99));
  EndTimedPhase(env);

  // Accuracy and the search.* layer metrics from one more, unmeasured pass.
  ScoreAccuracy(env, ReferenceAnswers(env, *model.value(), requests));
}

}  // namespace habitbench
