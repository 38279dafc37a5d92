// Workload "serve": a snapshot-loaded model behind server::Server on
// loopback TCP. nproc clients speak the binary frame protocol, each in a
// closed loop, sending impute_batch frames of kBatch gaps drawn from the
// corpus's ~1,000 distinct gaps of mixed durations. Exercises graph search,
// server dispatch and the worker pool, the frame codec and the epoll
// transport; the build runs only in setup.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <thread>

#include "api/adapters.h"
#include "api/registry.h"
#include "bench.h"
#include "checks.h"
#include "core/rng.h"
#include "habit/serialize.h"
#include "server/frame.h"
#include "server/line_client.h"
#include "server/server.h"

namespace habitbench {

namespace {

namespace server = habit::server;
namespace frame = habit::server::frame;
using habit::api::ImputeResponse;

// Gaps per impute_batch frame: the default batch of bench_serve and
// bench_route, the repository's own serving benchmarks.
constexpr size_t kBatch = 32;
// HandleFrame replays in the traced run: enough for a p99 with ten beyond.
constexpr size_t kReplayFrames = 1000;

struct Frame {
  std::vector<size_t> gaps;  ///< corpus indices, in request order
  std::string bytes;         ///< the encoded request frame
};

}  // namespace

void RunServe(Env& env) {
  const auto& requests = env.corpus.requests;
  std::vector<double> build_seconds;
  auto built = ColdBuild(env, env.corpus.train, &build_seconds, 2);
  if (!built.ok()) {
    env.report.Fail("build: " + built.status().ToString());
    return;
  }
  const std::string snapshot = env.options.out_dir + "/serve-" +
                               std::to_string(::getpid()) + ".snap";
  {
    const auto& model =
        dynamic_cast<const habit::api::HabitModel&>(*built.value());
    Span save(env.tracer, "graph.SaveSnapshot");
    const habit::Status saved =
        habit::core::SaveModelSnapshot(model.framework(), snapshot);
    save.End();
    if (!saved.ok()) {
      env.report.Fail("save: " + saved.ToString());
      return;
    }
  }
  built.value().reset();  // serve the snapshot, not the built model
  env.report.Set("graph.snapshot_bytes", FileBytes(snapshot));
  const std::string spec_text = "habit:load=" + snapshot;
  const auto spec = habit::api::MethodSpec::Parse(spec_text).MoveValue();

  server::ServerOptions server_options;
  server_options.threads = env.threads;
  server::Server srv(server_options);
  {
    Span load(env.tracer, "graph.LoadSnapshot");
    auto resolved = srv.Resolve(spec);
    load.End();
    if (!resolved.ok()) {
      env.report.Fail("load: " + resolved.status().ToString());
      return;
    }
  }
  if (const habit::Status listening = srv.Listen(0); !listening.ok()) {
    env.report.Fail("listen: " + listening.ToString());
    return;
  }
  std::thread serving([&srv] { (void)srv.Serve(); });

  // A seeded order of the gaps, cut into frames; client c starts at its
  // own offset and cycles through them.
  std::vector<size_t> order(requests.size());
  std::iota(order.begin(), order.end(), 0);
  habit::Rng rng(env.options.seed ^ 0x5E7E5E7EULL);
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::vector<Frame> frames;
  for (size_t i = 0; i < order.size(); i += kBatch) {
    Frame f;
    server::Request request;
    request.op = server::Request::Op::kImputeBatch;
    request.model = spec_text;
    for (size_t k = i; k < std::min(order.size(), i + kBatch); ++k) {
      f.gaps.push_back(order[k]);
      request.requests.push_back(requests[order[k]]);
    }
    f.bytes = frame::EncodeRequestFrame(request);
    frames.push_back(std::move(f));
  }

  std::vector<std::unique_ptr<server::LineClient>> clients;
  for (int c = 0; c < env.threads; ++c) {
    clients.push_back(std::make_unique<server::LineClient>(
        srv.bound_port(),
        server::ClientOptions{.connect_timeout_ms = 10000,
                              .io_timeout_ms = 60000,
                              .binary = true}));
    if (!clients.back()->connected() || !clients.back()->binary()) {
      env.report.Fail("client " + std::to_string(c) +
                      " could not negotiate binary frames: " +
                      clients.back()->last_error());
    }
  }

  // First answer seen per gap (hash; 0 = not yet served): every later
  // answer to the same gap must match it, and the reference after the run.
  std::vector<std::atomic<uint64_t>> served(requests.size());
  std::vector<uint64_t> queries(env.threads, 0);
  std::vector<uint64_t> failed(env.threads, 0);
  EndSetup(env);

  const auto one_frame = [&](int c, uint64_t k) {
    const Frame& f = frames[(c * frames.size() / env.threads + k) %
                            frames.size()];
    server::LineClient& client = *clients[c];
    queries[c] += f.gaps.size();
    std::string payload;
    if (!client.SendRaw(f.bytes) || !client.ReadFrame(&payload)) {
      failed[c] += f.gaps.size();
      env.report.Fail("client " + std::to_string(c) + ": no answer: " +
                      client.last_error());
      return size_t{0};
    }
    Span decode(env.tracer, "frame.DecodeResponsePayload");
    auto response = frame::DecodeResponsePayload(payload);
    decode.End();
    if (!response.ok() || response.value().tag != frame::ResponseTag::kResults ||
        response.value().results.size() != f.gaps.size()) {
      failed[c] += f.gaps.size();
      env.report.Fail("bad response frame: " +
                      (response.ok() ? frame::ResponseToJsonLine(response.value())
                                     : response.status().ToString()));
      return f.gaps.size();
    }
    for (size_t i = 0; i < f.gaps.size(); ++i) {
      const auto& result = response.value().results[i];
      const size_t gap = f.gaps[i];
      if (!result.ok()) {
        ++failed[c];
        env.report.Fail("gap " + std::to_string(gap) + ": " +
                        result.status().ToString());
        continue;
      }
      env.report.Check(CheckPath(requests[gap], result.value()));
      uint64_t expected = 0;
      const uint64_t hash = AnswerHash(result.value());
      if (!served[gap].compare_exchange_strong(expected, hash) &&
          expected != hash) {
        env.report.Fail("gap " + std::to_string(gap) +
                        " was answered two different ways");
      }
    }
    return f.gaps.size();
  };
  const LoopResult loop = ClosedLoop(env.threads, one_frame, [&] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(env.options.seconds));
  });
  clients.clear();
  env.report.attempted +=
      std::accumulate(queries.begin(), queries.end(), 0ull);
  env.report.failed += std::accumulate(failed.begin(), failed.end(), 0ull);
  ReportLoop(env, loop);

  if (env.tracer.enabled()) {
    // The same frames through HandleFrame with no socket, and warm
    // resolutions of the served spec.
    for (size_t k = 0; k < kReplayFrames; ++k) {
      const std::string& bytes = frames[k % frames.size()].bytes;
      Span handle(env.tracer, "server.HandleFrame");
      (void)srv.HandleFrame(std::string_view(bytes).substr(frame::kHeaderBytes));
    }
    for (int k = 0; k < 200; ++k) {
      Span resolve(env.tracer, "server.Resolve");
      (void)srv.Resolve(spec);
    }
    std::vector<double> handle_ms = env.tracer.Seconds("server.HandleFrame");
    for (double& s : handle_ms) s *= 1e3;
    env.report.Set("server.handle_frame_p50_ms", Quantile(handle_ms, 0.5));
    env.report.Set("server.handle_frame_p99_ms", Quantile(handle_ms, 0.99));
    env.report.Set("transport.overhead_ms",
                   loop.p50_ms - Quantile(handle_ms, 0.5));
  }
  const auto cache = srv.cache().stats();
  env.report.Set("cache.hits", static_cast<double>(cache.hits));
  env.report.Set("cache.misses", static_cast<double>(cache.misses));
  env.report.Set("cache.coalesced", static_cast<double>(cache.coalesced));
  srv.Shutdown();
  serving.join();

  // Every served answer equals an in-process ImputeBatch on the snapshot.
  auto reference_model = habit::api::MakeModel(spec, {});
  if (!reference_model.ok()) {
    env.report.Fail("reference load: " +
                    reference_model.status().ToString());
    return;
  }
  const std::vector<ImputeResponse> reference =
      ReferenceAnswers(env, *reference_model.value(), requests);
  size_t distinct = 0;
  for (size_t g = 0; g < requests.size(); ++g) {
    const uint64_t hash = served[g].load();
    if (hash == 0) continue;
    ++distinct;
    if (hash != AnswerHash(reference[g])) {
      env.report.Fail("gap " + std::to_string(g) +
                      ": served answer differs from the in-process answer");
    }
  }
  if (distinct == 0) env.report.Fail("no gap was served");
  ScoreAccuracy(env, reference);
  std::remove(snapshot.c_str());
  // The third build for build_s, after the timed phase (bench.h).
  if (!ColdBuild(env, env.corpus.train, &build_seconds).ok()) {
    env.report.Fail("build after the timed phase failed");
  }
  env.report.Set("build_s", Fastest(build_seconds));
}

}  // namespace habitbench
