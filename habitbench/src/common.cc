// Pieces every workload shares: the seeded corpus, accuracy scoring, the
// in-process reference pass, and the staged build profile.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "api/adapters.h"
#include "api/registry.h"
#include "bench.h"
#include "checks.h"
#include "core/rng.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "habit/graph_builder.h"

namespace habitbench {

using habit::Result;
using habit::api::ImputeRequest;
using habit::api::ImputeResponse;

void Report::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  // Print the first few in full; a systematic fault repeats per answer.
  if (failures_ < 10) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  ++failures_;
}

Result<Corpus> MakeCorpus() {
  habit::eval::ExperimentOptions options;
  options.scale = kScale;
  options.seed = kCorpusSeed;
  HABIT_ASSIGN_OR_RETURN(habit::eval::Experiment exp,
                         habit::eval::PrepareExperiment("KIEL", options));
  Corpus corpus;
  corpus.train = std::move(exp.train_trips);
  for (const habit::ais::Trip& trip : corpus.train) {
    corpus.train_points += trip.points.size();
  }
  // Mixed gap durations so search depth varies; five placements per trip
  // and duration.
  habit::Rng rng(kCorpusSeed * 0x9E3779B97F4A7C15ULL + 17);
  for (const int64_t minutes : {15, 30, 60, 120}) {
    habit::sim::GapOptions gap_options;
    gap_options.gap_seconds = minutes * 60;
    for (const habit::ais::Trip& trip : exp.test_trips) {
      for (int placement = 0; placement < 5; ++placement) {
        auto gap = habit::sim::InjectGap(trip, gap_options, &rng);
        if (gap.has_value()) corpus.gaps.push_back(std::move(*gap));
      }
    }
  }
  if (corpus.train.empty() || corpus.gaps.empty()) {
    return habit::Status::Internal("KIEL corpus has no trips or no gaps");
  }
  for (const habit::sim::GapCase& gc : corpus.gaps) {
    ImputeRequest request;
    request.gap_start = gc.gap_start.pos;
    request.gap_end = gc.gap_end.pos;
    request.t_start = gc.gap_start.ts;
    request.t_end = gc.gap_end.ts;
    request.vessel_type = gc.degraded.type;
    corpus.requests.push_back(request);
  }
  return corpus;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

void ScoreAccuracy(Env& env, const std::vector<ImputeResponse>& answers) {
  const auto& gaps = env.corpus.gaps;
  if (answers.size() != gaps.size()) {
    env.report.Fail("scored " + std::to_string(answers.size()) +
                    " answers for " + std::to_string(gaps.size()) + " gaps");
    return;
  }
  std::vector<double> scores;
  scores.reserve(gaps.size());
  for (size_t i = 0; i < gaps.size(); ++i) {
    const double own = OwnGapDtw(answers[i].path,
                                 habit::eval::GroundTruthPath(gaps[i]));
    env.report.Check(
        CheckDtwAgrees(own, habit::eval::GapDtw(answers[i].path, gaps[i])));
    scores.push_back(own);
  }
  env.report.Set("dtw_mean_m", Mean(scores));
  // The median of an even count is the mean of the middle pair.
  std::sort(scores.begin(), scores.end());
  const size_t mid = scores.size() / 2;
  env.report.Set("dtw_median_m", scores.size() % 2 == 1
                                     ? scores[mid]
                                     : (scores[mid - 1] + scores[mid]) / 2.0);
}

std::vector<ImputeResponse> ReferenceAnswers(
    Env& env, const habit::api::ImputationModel& model,
    const std::vector<ImputeRequest>& requests) {
  std::vector<double> query_seconds;
  auto results = model.ImputeBatch(requests, &query_seconds);
  std::vector<ImputeResponse> answers;
  answers.reserve(results.size());
  std::vector<double> expanded;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      env.report.Fail("in-process query " + std::to_string(i) + ": " +
                      results[i].status().ToString());
      answers.emplace_back();
      continue;
    }
    env.report.Check(CheckPath(requests[i], results[i].value()));
    expanded.push_back(static_cast<double>(results[i].value().expanded));
    answers.push_back(results[i].MoveValue());
  }
  for (double& s : query_seconds) s *= 1e3;
  env.report.Set("search.query_p50_ms", Quantile(query_seconds, 0.5));
  env.report.Set("search.query_p99_ms", Quantile(query_seconds, 0.99));
  env.report.Set("search.expanded_mean", Mean(expanded));
  return answers;
}

size_t ProfileBuild(Env& env, const std::vector<habit::ais::Trip>& trips) {
  namespace core = habit::core;
  const core::HabitConfig config;  // the defaults are habit:r=9
  const long faults_before = MinorFaults();
  Span build(env.tracer, "habit.Build");
  habit::db::Table table;
  {
    Span s(env.tracer, "habit.TripsToTable", build.id());
    table = core::TripsToTable(trips, config.resolution);
  }
  Span cell_span(env.tracer, "habit.ComputeCellStats", build.id());
  auto cells = core::ComputeCellStats(table, config);
  cell_span.End();
  Span transition_span(env.tracer, "habit.ComputeTransitionStats",
                       build.id());
  auto transitions = core::ComputeTransitionStats(table, config);
  transition_span.End();
  if (!cells.ok() || !transitions.ok()) {
    env.report.Fail("staged build: " + (cells.ok() ? transitions.status()
                                                   : cells.status())
                                           .ToString());
    return 0;
  }
  Span graph_span(env.tracer, "habit.BuildTransitionGraph", build.id());
  auto digraph =
      core::BuildTransitionGraph(cells.value(), transitions.value(), config);
  graph_span.End();
  if (!digraph.ok()) {
    env.report.Fail("staged build: " + digraph.status().ToString());
    return 0;
  }
  Span freeze_span(env.tracer, "graph.Freeze", build.id());
  const habit::graph::CompactGraph frozen = digraph.value().Freeze();
  freeze_span.End();
  build.End();
  env.report.Set("habit.build_minor_faults",
                 static_cast<double>(MinorFaults() - faults_before));
  env.report.Set("habit.points", static_cast<double>(table.num_rows()));
  env.report.Set("habit.cell_groups",
                 static_cast<double>(cells.value().num_rows()));
  env.report.Set("habit.transition_groups",
                 static_cast<double>(transitions.value().num_rows()));
  env.report.Set("graph.nodes", static_cast<double>(frozen.num_nodes()));
  env.report.Set("graph.edges", static_cast<double>(frozen.num_edges()));
  size_t points = 0;
  for (const habit::ais::Trip& trip : trips) points += trip.points.size();
  env.report.Check(CheckMessageCounts(frozen, points));
  return frozen.num_nodes();
}

Result<std::unique_ptr<habit::api::ImputationModel>> ColdBuild(
    Env& env, const std::vector<habit::ais::Trip>& trips,
    std::vector<double>* build_seconds, int count) {
  Result<std::unique_ptr<habit::api::ImputationModel>> model =
      habit::Status::Internal("no build ran");
  for (int k = 0; k < count; ++k) {
    model = habit::Status::Internal("dropped");  // free the previous model
    const Clock::time_point start = Clock::now();
    model = habit::api::MakeModel(kSpec, trips);
    build_seconds->push_back(SecondsBetween(start, Clock::now()));
    if (!model.ok()) return model.status();
  }
  const auto* habit_model =
      dynamic_cast<const habit::api::HabitModel*>(model.value().get());
  if (habit_model == nullptr) {
    return habit::Status::Internal(std::string(kSpec) +
                                   " did not build a HABIT model");
  }
  size_t points = 0;
  for (const habit::ais::Trip& trip : trips) points += trip.points.size();
  env.report.Check(
      CheckMessageCounts(habit_model->framework().graph(), points));
  return model;
}

LoopResult ClosedLoop(int clients,
                      const std::function<size_t(int, uint64_t)>& frame,
                      const std::function<void()>& until) {
  struct Sample {
    double end_s;
    double ms;
    size_t queries;
  };
  const Clock::time_point phase_start = Clock::now();
  std::atomic<bool> stop{false};
  std::vector<std::vector<Sample>> samples(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t k = 0; !stop.load(); ++k) {
        const Clock::time_point start = Clock::now();
        const size_t queries = frame(c, k);
        if (queries == 0) return;
        const Clock::time_point end = Clock::now();
        samples[c].push_back({SecondsBetween(phase_start, end),
                              SecondsBetween(start, end) * 1e3, queries});
      }
    });
  }
  until();
  stop.store(true);
  for (std::thread& t : threads) t.join();

  LoopResult result;
  result.seconds = SecondsBetween(phase_start, Clock::now());
  const double window_s = result.seconds / kWindows;
  std::vector<std::vector<double>> window_ms(kWindows);
  std::vector<double> window_queries(kWindows, 0);
  for (const auto& per_client : samples) {
    for (const Sample& s : per_client) {
      const int w = std::min(kWindows - 1, static_cast<int>(s.end_s / window_s));
      window_ms[w].push_back(s.ms);
      window_queries[w] += static_cast<double>(s.queries);
      result.frame_ms.push_back(s.ms);
    }
  }
  std::vector<double> qps, p50;
  for (int w = 0; w < kWindows; ++w) {
    qps.push_back(window_queries[w] / window_s);
    p50.push_back(Quantile(window_ms[w], 0.5));
  }
  result.qps = Median(qps);
  result.p50_ms = Median(p50);
  result.p99_ms = Quantile(result.frame_ms, 0.99);
  return result;
}

void ReportLoop(Env& env, const LoopResult& loop) {
  EndTimedPhase(env);
  env.report.Set("serve_qps", loop.qps);
  env.report.Set("frame_p50_ms", loop.p50_ms);
  env.report.Set("frame_p99_ms", loop.p99_ms);
  env.report.Set("trace.frame_p50_ms", loop.p50_ms);
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

}  // namespace habitbench
