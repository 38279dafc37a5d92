// Workload "live": a server with live ingest enabled, seeded with the first
// half of the training trips. One connection sends the other half as JSON
// `ingest` frames in kRounds rounds spread over the run (one frame per
// round, as habit_cli ingest-lines batches them), forcing a
// `rollover` after each round; the other nproc-1 connections keep sending
// JSON impute frames against the live spec. The rebuild thread competes
// with the search workers for the same cores; this is the only workload
// that measures the JSON codec.
#include <atomic>
#include <numeric>
#include <thread>

#include "api/epoch.h"
#include "bench.h"
#include "checks.h"
#include "core/rng.h"
#include "server/json.h"
#include "server/line_client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace habitbench {

namespace {

namespace server = habit::server;
using habit::api::ImputeResponse;
using habit::server::Json;

// Gaps per impute_batch frame: the default batch of bench_serve and
// bench_route, the repository's own serving benchmarks.
constexpr size_t kBatch = 32;
constexpr size_t kRounds = 4;
// Trips per ingest frame at most: the default batch of
// `habit_cli ingest-lines`, which turns an AIS feed into ingest frames. A
// round's 16 trips fit in one frame.
constexpr size_t kTripsPerIngest = 256;
constexpr size_t kReplayFrames = 200;

struct Frame {
  std::vector<size_t> gaps;
  std::string line;
};

// One ack's fields; false when the line is not an ok ack.
bool ParseAck(const std::string& line, uint64_t* epoch, uint64_t* accepted) {
  auto json = Json::Parse(line);
  if (!json.ok()) return false;
  const Json* ok = json.value().Find("ok");
  const Json* e = json.value().Find("epoch");
  const Json* a = json.value().Find("accepted");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value() || e == nullptr ||
      a == nullptr || !e->is_number() || !a->is_number()) {
    return false;
  }
  *epoch = static_cast<uint64_t>(e->number_value());
  *accepted = static_cast<uint64_t>(a->number_value());
  return true;
}

// The per-request answers of an impute_batch response line.
habit::Result<std::vector<ImputeResponse>> ParseBatch(const std::string& line,
                                                      size_t expected) {
  HABIT_ASSIGN_OR_RETURN(Json json, Json::Parse(line));
  const Json* results = json.Find("results");
  if (results == nullptr || !results->is_array() ||
      results->items().size() != expected) {
    return habit::Status::Internal("bad response: " + line.substr(0, 200));
  }
  std::vector<ImputeResponse> answers;
  for (const Json& result : results->items()) {
    HABIT_ASSIGN_OR_RETURN(ImputeResponse answer, ResponseFromJson(result));
    answers.push_back(std::move(answer));
  }
  return answers;
}

}  // namespace

void RunLive(Env& env) {
  const auto& requests = env.corpus.requests;
  const auto& train = env.corpus.train;
  const size_t half = train.size() / 2;
  std::vector<habit::ais::Trip> base(train.begin(), train.begin() + half);
  // Ingest frames round by round, in the order they are sent.
  struct IngestFrame {
    std::string line;
    size_t trips;
  };
  std::vector<std::vector<IngestFrame>> rounds(kRounds);
  std::vector<habit::ais::Trip> live(train.begin() + half, train.end());
  for (size_t r = 0; r < kRounds; ++r) {
    const size_t begin = r * live.size() / kRounds;
    const size_t end = (r + 1) * live.size() / kRounds;
    for (size_t i = begin; i < end; i += kTripsPerIngest) {
      const size_t n = std::min(end, i + kTripsPerIngest) - i;
      rounds[r].push_back(
          {server::EncodeIngestRequest(std::span(live.data() + i, n)), n});
    }
  }

  server::ServerOptions server_options;
  server_options.threads = env.threads;
  server::Server srv(server_options);
  if (const habit::Status enabled =
          srv.EnableIngest({.spec = kSpec}, base);
      !enabled.ok()) {
    env.report.Fail("enable ingest: " + enabled.ToString());
    return;
  }
  if (const habit::Status listening = srv.Listen(0); !listening.ok()) {
    env.report.Fail("listen: " + listening.ToString());
    return;
  }
  std::thread serving([&srv] { (void)srv.Serve(); });

  std::vector<size_t> order(requests.size());
  std::iota(order.begin(), order.end(), 0);
  habit::Rng rng(env.options.seed ^ 0x11FE11FEULL);
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::vector<Frame> frames;
  for (size_t i = 0; i < order.size(); i += kBatch) {
    Frame f;
    std::vector<habit::api::ImputeRequest> batch;
    for (size_t k = i; k < std::min(order.size(), i + kBatch); ++k) {
      f.gaps.push_back(order[k]);
      batch.push_back(requests[order[k]]);
    }
    f.line = server::EncodeImputeBatchRequest(kSpec, batch);
    frames.push_back(std::move(f));
  }

  const server::ClientOptions client_options{.connect_timeout_ms = 10000,
                                             .io_timeout_ms = 120000};
  const int readers = std::max(1, env.threads - 1);
  std::vector<std::unique_ptr<server::LineClient>> clients;
  for (int c = 0; c <= readers; ++c) {  // the last one ingests
    clients.push_back(std::make_unique<server::LineClient>(srv.bound_port(),
                                                           client_options));
    if (!clients.back()->connected()) {
      env.report.Fail("connect: " + clients.back()->last_error());
    }
  }
  std::vector<uint64_t> queries(readers, 0);
  std::vector<uint64_t> failed(readers, 0);
  EndSetup(env);

  const auto one_frame = [&](int c, uint64_t k) {
    const Frame& f =
        frames[(c * frames.size() / readers + k) % frames.size()];
    queries[c] += f.gaps.size();
    std::string line;
    if (!clients[c]->Call(f.line, &line)) {
      failed[c] += f.gaps.size();
      env.report.Fail("reader " + std::to_string(c) + ": no answer: " +
                      clients[c]->last_error());
      return size_t{0};
    }
    auto answers = ParseBatch(line, f.gaps.size());
    if (!answers.ok()) {
      failed[c] += f.gaps.size();
      env.report.Fail(answers.status().ToString());
      return f.gaps.size();
    }
    for (size_t i = 0; i < f.gaps.size(); ++i) {
      env.report.Check(CheckPath(requests[f.gaps[i]], answers.value()[i]));
    }
    return f.gaps.size();
  };

  std::vector<double> ingest_ms, rollover_s, epoch_build_s, epoch_swap_s;
  std::vector<uint64_t> accepted, epochs;
  size_t trips_sent = 0;
  uint64_t ingest_ops = 0, ingest_failed = 0;
  const Clock::time_point phase_start = Clock::now();
  const auto ingest_schedule = [&] {
    server::LineClient& client = *clients[readers];
    for (size_t r = 0; r < kRounds; ++r) {
      std::this_thread::sleep_until(
          phase_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                env.options.seconds * r / kRounds)));
      for (const IngestFrame& frame : rounds[r]) {
        trips_sent += frame.trips;
        ++ingest_ops;
        std::string line;
        uint64_t epoch = 0, count = 0;
        const Clock::time_point start = Clock::now();
        if (!client.Call(frame.line, &line) ||
            !ParseAck(line, &epoch, &count)) {
          ++ingest_failed;
          env.report.Fail("ingest: " + line + client.last_error());
          continue;
        }
        ingest_ms.push_back(SecondsBetween(start, Clock::now()) * 1e3);
        accepted.push_back(count);
      }
      ++ingest_ops;
      std::string line;
      uint64_t epoch = 0, count = 0;
      const Clock::time_point start = Clock::now();
      if (!client.Call(server::EncodeRolloverRequest(), &line) ||
          !ParseAck(line, &epoch, &count)) {
        ++ingest_failed;
        env.report.Fail("rollover: " + line + client.last_error());
        continue;
      }
      rollover_s.push_back(SecondsBetween(start, Clock::now()));
      epochs.push_back(epoch);
      const double build = srv.epoch_pipeline()->stats().last_build_seconds;
      epoch_build_s.push_back(build);
      epoch_swap_s.push_back(rollover_s.back() - build);
    }
    std::this_thread::sleep_until(
        phase_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(env.options.seconds)));
  };
  const LoopResult loop = ClosedLoop(readers, one_frame, ingest_schedule);
  env.report.attempted +=
      std::accumulate(queries.begin(), queries.end(), 0ull) + ingest_ops;
  env.report.failed +=
      std::accumulate(failed.begin(), failed.end(), 0ull) + ingest_failed;
  ReportLoop(env, loop);
  env.report.Set("epoch.rollover_s", Median(rollover_s));
  env.report.Set("epoch.ingest_ms", Median(ingest_ms));
  env.report.Set("epoch.build_s", Median(epoch_build_s));
  env.report.Set("epoch.swap_s", Median(epoch_swap_s));
  env.report.Check(CheckEpochsIncrease(epochs));
  env.report.Check(CheckAccepted(accepted, trips_sent));
  if (epochs.size() != kRounds) env.report.Fail("a rollover was not acked");

  // Answers after the last rollover equal a cold build on base plus every
  // acked trip, in ingest order.
  std::vector<ImputeResponse> served(requests.size());
  for (size_t i = 0; i < order.size(); i += kBatch) {
    const std::vector<habit::api::ImputeRequest> batch(
        requests.begin() + i,
        requests.begin() + std::min(requests.size(), i + kBatch));
    std::string line;
    habit::Result<std::vector<ImputeResponse>> answers =
        habit::Status::Internal(clients[0]->last_error());
    if (clients[0]->Call(server::EncodeImputeBatchRequest(kSpec, batch),
                         &line)) {
      answers = ParseBatch(line, batch.size());
    }
    if (!answers.ok()) {
      env.report.Fail("final answers: " + answers.status().ToString());
      break;
    }
    for (size_t k = 0; k < batch.size(); ++k) {
      served[i + k] = std::move(answers.value()[k]);
    }
  }
  if (env.tracer.enabled()) {
    for (size_t k = 0; k < kReplayFrames; ++k) {
      Span handle(env.tracer, "server.HandleLine");
      (void)srv.HandleLine(frames[k % frames.size()].line);
    }
  }
  const auto stats = srv.epoch_pipeline()->stats();
  env.report.Set("epoch.trips", static_cast<double>(stats.epoch_trips));
  const auto cache = srv.cache().stats();
  env.report.Set("cache.hits", static_cast<double>(cache.hits));
  env.report.Set("cache.misses", static_cast<double>(cache.misses));
  env.report.Set("cache.coalesced", static_cast<double>(cache.coalesced));
  clients.clear();
  srv.Shutdown();
  serving.join();

  std::vector<habit::ais::Trip> cumulative = base;
  cumulative.insert(cumulative.end(), live.begin(), live.end());
  if (env.tracer.enabled()) ProfileBuild(env, cumulative);
  // build_s on this workload: the fastest of three cold builds of base plus
  // every acked trip (the whole training set), after the timed phase; the
  // last one is the reference. A build at setup would leave its heap in
  // peak_rss_mb. The epoch rebuilds share the cores with the readers, so
  // their times (epoch.build_s) swing with the scheduler.
  std::vector<double> build_seconds;
  auto cold = ColdBuild(env, cumulative, &build_seconds, 3);
  env.report.Set("build_s", Fastest(build_seconds));
  if (!cold.ok()) {
    env.report.Fail("cold build: " + cold.status().ToString());
    return;
  }
  const std::vector<ImputeResponse> reference =
      ReferenceAnswers(env, *cold.value(), requests);
  for (size_t g = 0; g < requests.size(); ++g) {
    const std::string diff = CheckSameAnswer(served[g], reference[g]);
    if (!diff.empty()) {
      env.report.Fail("gap " + std::to_string(g) +
                      " after the last rollover: " + diff);
    }
  }
  ScoreAccuracy(env, served);
}

}  // namespace habitbench
