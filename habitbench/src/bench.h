// Shared pieces of the habitbench program: options, the metric report, the
// seeded KIEL corpus every workload runs on, and small statistics helpers.
//
// The benchmark drives the program from outside: it calls only the public
// functions of the habit, graph, api, server and router layers, and checks
// every output it gets back (checks.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ais/ais.h"
#include "api/imputation_model.h"
#include "core/status.h"
#include "sim/gaps.h"
#include "trace.h"

namespace habitbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options (see main.cc for the flags).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = "habitbench/out";  ///< scratch snapshots + spans
};

/// The model every workload builds and serves.
inline constexpr const char* kSpec = "habit:r=9";
/// KIEL corpus scale: 127 training trips, 179k points, ~1,000 gaps.
inline constexpr double kScale = 4.0;
/// The AIS traffic, its 70/30 split and the gaps are the same in every
/// run: a world or gap set drawn per run moved build_s and the DTW figures
/// by 20% between seeds, which no bound could tell from a regression.
/// The run's --seed draws how the gaps are batched into frames and the
/// order they are sent in.
inline constexpr uint64_t kCorpusSeed = 42;

/// \brief The input: KIEL trips split 70/30, and ~1,000 gaps cut out of
/// the test trips (15/30/60/120 min, five placements each).
struct Corpus {
  std::vector<habit::ais::Trip> train;
  std::vector<habit::sim::GapCase> gaps;
  std::vector<habit::api::ImputeRequest> requests;  ///< aligned with gaps
  size_t train_points = 0;
};

habit::Result<Corpus> MakeCorpus();

/// \brief Metrics, operation counts and correctness of one run.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  /// Records a failed output check; the run reports correct=false.
  /// Thread-safe: client threads check their answers as they arrive.
  void Fail(const std::string& what);
  /// Records a failed check only when `what` is non-empty.
  void Check(const std::string& what) {
    if (!what.empty()) Fail(what);
  }
  bool correct() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_ == 0;
  }

  uint64_t attempted = 0;  ///< operations attempted in the timed phase
  uint64_t failed = 0;     ///< of those, the ones the program failed

 private:
  std::map<std::string, double> values_;
  mutable std::mutex mu_;
  uint64_t failures_ = 0;  // guarded by mu_
};

/// \brief What a workload gets: its options, corpus, report and tracer.
struct Env {
  Options options;
  Corpus corpus;
  Report report;
  Tracer tracer;
  int threads = 1;  ///< client connections and server workers (nproc, <= 4)
  Clock::time_point process_start;
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);
/// Smallest value; 0 for an empty sample. build_s on serve, live and
/// route is the fastest of several timed builds (serve: two cold builds
/// before the timed phase, one after it; live: three after it; route: one
/// BuildShards before it, one after). Interference from outside the
/// process only ever slows a build down and comes in stretches of seconds,
/// so the fastest of builds made apart is the steadiest figure; the first
/// build of a process also pays the page faults of its heap.
inline double Fastest(std::vector<double> values) {
  return Quantile(std::move(values), 0.0);
}

/// Peak resident set of this process, MB (getrusage).
double PeakRssMb();
/// Minor page faults of this process so far (getrusage).
long MinorFaults();

/// Records setup_s: everything from process start to now.
inline void EndSetup(Env& env) {
  env.report.Set("setup_s", SecondsBetween(env.process_start, Clock::now()));
}

/// Records peak_rss_mb: the process's peak up to the end of the timed
/// phase, before the checks build or load models of their own.
inline void EndTimedPhase(Env& env) {
  env.report.Set("peak_rss_mb", PeakRssMb());
}

/// Scores answers aligned with env.corpus.requests: DTW against the gap's
/// ground truth by the benchmark's own code, each one cross-checked
/// against eval::GapDtw; sets dtw_mean_m / dtw_median_m.
void ScoreAccuracy(Env& env,
                   const std::vector<habit::api::ImputeResponse>& answers);

/// Single-threaded in-process ImputeBatch over every corpus request, the
/// reference the served answers are compared with. Fails the run on any
/// failed query; sets the search.* metrics from the per-query times.
std::vector<habit::api::ImputeResponse> ReferenceAnswers(
    Env& env, const habit::api::ImputationModel& model,
    const std::vector<habit::api::ImputeRequest>& requests);

/// Staged HABIT build of `trips` at r=9 through the habit layer's public
/// stage functions, one span per stage (the traced profile of the build);
/// sets the habit.* / graph.* build metrics. Returns the frozen graph's
/// node count, or 0 on failure (recorded in the report).
size_t ProfileBuild(Env& env, const std::vector<habit::ais::Trip>& trips);

/// `count` cold MakeModel(kSpec, trips) builds, each timed into
/// `build_seconds`; returns the last model.
habit::Result<std::unique_ptr<habit::api::ImputationModel>> ColdBuild(
    Env& env, const std::vector<habit::ais::Trip>& trips,
    std::vector<double>* build_seconds, int count = 1);

/// \brief What a closed loop measured. The phase is cut into kWindows
/// equal windows by frame completion time, and qps and p50 are the median
/// over the windows of that window's figure, so one burst of interference
/// from outside the process moves at most one window. p99 is taken over
/// every frame of the phase, so that at least ten frames lie beyond it.
struct LoopResult {
  double seconds = 0;            ///< timed phase, start to last join
  std::vector<double> frame_ms;  ///< every frame's round trip
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};
inline constexpr int kWindows = 5;

/// Sets serve_qps, frame_p50_ms and frame_p99_ms (and trace.frame_p50_ms,
/// the same figure under tracing) from a closed loop, and peak_rss_mb
/// (EndTimedPhase).
void ReportLoop(Env& env, const LoopResult& loop);

/// Runs `clients` closed-loop client threads: client c calls
/// `frame(c, k)` for its k-th frame, which returns the number of queries
/// the frame carried (0 stops the client), and sends the next only after
/// that returns. `until` runs on the calling thread and returns when the
/// timed phase is over; the clients then finish their frame in flight and
/// are joined.
LoopResult ClosedLoop(int clients,
                      const std::function<size_t(int, uint64_t)>& frame,
                      const std::function<void()>& until);

/// Size of a served on-disk file in bytes (0 when missing).
double FileBytes(const std::string& path);

void RunBuild(Env& env);
void RunServe(Env& env);
void RunLive(Env& env);
void RunRoute(Env& env);

}  // namespace habitbench
