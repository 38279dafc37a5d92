// habitbench: one benchmark for HABIT's build, serving, live-ingest and
// routed paths.
//
//   habitbench --workload build|serve|live|route --seed N --seconds S
//              --trace 0|1 [--out DIR]
//
// Generates a seeded KIEL corpus, runs the workload for S seconds, checks
// every output, and prints one JSON object as the last line of stdout:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, computed from the spans the run records around its calls
// into each layer (written to DIR/spans-<workload>-<seed>.jsonl).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace habitbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports each of these; see README.md for what each one
// means on each workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"build_s", "s"},
    {"peak_rss_mb", "MB"},     {"dtw_mean_m", "m"},
    {"dtw_median_m", "m"},     {"serve_qps", "queries/s"},
    {"frame_p50_ms", "ms"},    {"frame_p99_ms", "ms"},
};

// 0 means the workload does not exercise that layer.
constexpr MetricDef kPerLayer[] = {
    {"habit.table_s", "s"},
    {"habit.cell_stats_s", "s"},
    {"habit.transition_stats_s", "s"},
    {"habit.graph_s", "s"},
    {"graph.freeze_s", "s"},
    {"habit.points", "count"},
    {"habit.cell_groups", "count"},
    {"habit.transition_groups", "count"},
    {"graph.nodes", "count"},
    {"graph.edges", "count"},
    {"habit.build_minor_faults", "count"},
    {"graph.snapshot_save_s", "s"},
    {"graph.snapshot_load_s", "s"},
    {"graph.snapshot_bytes", "bytes"},
    {"search.query_p50_ms", "ms"},
    {"search.query_p99_ms", "ms"},
    {"search.expanded_mean", "count"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.coalesced", "count"},
    {"cache.resolve_ms", "ms"},
    {"server.handle_frame_p50_ms", "ms"},
    {"server.handle_frame_p99_ms", "ms"},
    {"server.handle_line_p50_ms", "ms"},
    {"frame.decode_response_us", "us"},
    {"transport.overhead_ms", "ms"},
    {"epoch.rollover_s", "s"},
    {"epoch.ingest_ms", "ms"},
    {"epoch.build_s", "s"},
    {"epoch.swap_s", "s"},
    {"epoch.trips", "count"},
    {"router.handle_line_p50_ms", "ms"},
    {"router.backend_call_p50_ms", "ms"},
    {"router.subframes_per_frame", "count"},
    {"router.shard", "count"},
    {"router.halo", "count"},
    {"router.fallback", "count"},
    {"trace.frame_p50_ms", "ms"},
};

// Per-layer times taken as the median of a span's durations.
struct SpanMetric {
  const char* metric;
  const char* span;
  double scale;
};
constexpr SpanMetric kSpanMedians[] = {
    {"habit.table_s", "habit.TripsToTable", 1},
    {"habit.cell_stats_s", "habit.ComputeCellStats", 1},
    {"habit.transition_stats_s", "habit.ComputeTransitionStats", 1},
    {"habit.graph_s", "habit.BuildTransitionGraph", 1},
    {"graph.freeze_s", "graph.Freeze", 1},
    {"graph.snapshot_save_s", "graph.SaveSnapshot", 1},
    {"graph.snapshot_load_s", "graph.LoadSnapshot", 1},
    {"cache.resolve_ms", "server.Resolve", 1e3},
    {"server.handle_line_p50_ms", "server.HandleLine", 1e3},
    {"frame.decode_response_us", "frame.DecodeResponsePayload", 1e6},
    {"router.handle_line_p50_ms", "router.HandleLine", 1e3},
    {"router.backend_call_p50_ms", "router.BackendCall", 1e3},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "habitbench: %s\nusage: habitbench --workload "
               "build|serve|live|route --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--out") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

void PrintResult(const Env& env) {
  const Report& report = env.report;
  bool correct = report.correct();
  std::string metrics;
  const auto add = [&](const MetricDef& def) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name,
                  report.Get(def.name), def.unit);
    metrics += buf;
  };
  if (env.tracer.enabled()) {
    for (const MetricDef& def : kPerLayer) add(def);
  } else {
    for (const MetricDef& def : kEndToEnd) {
      // Every end-to-end metric is measured on every workload, and none
      // can read 0 on a working program.
      if (!(report.Get(def.name) > 0)) {
        std::fprintf(stderr, "metric %s was not measured\n", def.name);
        correct = false;
      }
      add(def);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace habitbench

int main(int argc, char** argv) {
  using namespace habitbench;
  const Clock::time_point process_start = Clock::now();
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad arguments");
  void (*run)(Env&) = nullptr;
  if (options.workload == "build") run = RunBuild;
  if (options.workload == "serve") run = RunServe;
  if (options.workload == "live") run = RunLive;
  if (options.workload == "route") run = RunRoute;
  if (run == nullptr) return Usage("unknown workload");

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) return Usage(("cannot create " + options.out_dir).c_str());

  auto corpus = MakeCorpus();
  if (!corpus.ok()) {
    std::fprintf(stderr, "habitbench: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  Env env{.options = options,
          .corpus = corpus.MoveValue(),
          .report = {},
          .tracer = Tracer(options.trace),
          .threads = static_cast<int>(hw == 0 ? 1 : std::min(hw, 4u)),
          .process_start = process_start};

  run(env);

  if (env.tracer.enabled()) {
    for (const SpanMetric& m : kSpanMedians) {
      const auto seconds = env.tracer.Seconds(m.span);
      if (!seconds.empty()) env.report.Set(m.metric, Median(seconds) * m.scale);
    }
    const std::string path = options.out_dir + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".jsonl";
    const habit::Status written = env.tracer.Write(path);
    if (!written.ok()) env.report.Fail(written.ToString());
  }
  PrintResult(env);
  return 0;
}
