// Workload "route": H3 shards plus the full-graph fallback are built at
// setup (router::BuildShards); impute frames then go through router::Router
// over an in-process LocalBackend behind the epoll transport, the way
// `habit_route --local` serves them. nproc JSON clients in a closed loop.
// This is the only traffic through src/router/.
#include <unistd.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "api/adapters.h"
#include "api/registry.h"
#include "bench.h"
#include "checks.h"
#include "core/rng.h"
#include "habit/serialize.h"
#include "hexgrid/hexgrid.h"
#include "router/backend.h"
#include "router/router.h"
#include "router/shard_builder.h"
#include "server/json.h"
#include "server/line_client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/transport.h"

namespace habitbench {

namespace {

namespace server = habit::server;
namespace router = habit::router;
using habit::api::ImputeResponse;
using habit::server::Json;

// Gaps per impute_batch frame: the default batch of bench_serve and
// bench_route, the repository's own serving benchmarks.
constexpr size_t kBatch = 32;
constexpr size_t kReplayFrames = 200;

enum Route : uint8_t { kUnseen = 0, kShard, kHalo, kFallback };

// Counts and times every sub-frame the router sends to its backend.
class TimingBackend : public router::ShardBackend {
 public:
  TimingBackend(std::shared_ptr<router::ShardBackend> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  habit::Result<std::string> Call(const std::string& line) override {
    calls_.fetch_add(1);
    Span span(*tracer_, "router.BackendCall");
    return inner_->Call(line);
  }
  std::string Describe() const override { return inner_->Describe(); }
  uint64_t calls() const { return calls_.load(); }

 private:
  std::shared_ptr<router::ShardBackend> inner_;
  Tracer* tracer_;
  std::atomic<uint64_t> calls_{0};
};

struct Frame {
  std::vector<size_t> gaps;
  std::string line;
};

}  // namespace

void RunRoute(Env& env) {
  const auto& requests = env.corpus.requests;
  const std::string dir = env.options.out_dir + "/shards-" +
                          std::to_string(::getpid());
  router::ShardBuildOptions build_options;
  build_options.spec = kSpec;
  build_options.out_dir = dir;
  // build_s on this workload: every shard model plus the fallback, the
  // fastest of one BuildShards here and one after the timed phase
  // (bench.h).
  std::vector<double> build_seconds;
  Clock::time_point build_start = Clock::now();
  auto manifest = router::BuildShards(env.corpus.train, build_options);
  build_seconds.push_back(SecondsBetween(build_start, Clock::now()));
  if (!manifest.ok()) {
    env.report.Fail("shard build: " + manifest.status().ToString());
    return;
  }
  const int resolution = manifest.value().resolution;
  const int parent_res = manifest.value().parent_res;
  std::unordered_map<habit::hex::CellId, size_t> shard_of_cell;
  for (size_t i = 0; i < manifest.value().shards.size(); ++i) {
    shard_of_cell[manifest.value().shards[i].parent_cell] = i;
  }
  env.report.Set("graph.snapshot_bytes",
                 FileBytes(dir + "/" +
                           manifest.value().fallback.snapshot_path));

  server::ServerOptions server_options;
  server_options.threads = env.threads;
  server::Server backend_server(server_options);
  auto backend = std::make_shared<TimingBackend>(
      std::make_shared<router::LocalBackend>(&backend_server), &env.tracer);
  auto made = router::Router::Make(manifest.MoveValue(), dir, {backend});
  if (!made.ok()) {
    env.report.Fail("router: " + made.status().ToString());
    return;
  }
  router::Router& rt = *made.value();
  // Load every shard model and the fallback now, not in the timed phase.
  for (size_t i = 0; i <= rt.manifest().shards.size(); ++i) {
    const bool fallback = i == rt.manifest().shards.size();
    const auto spec = habit::api::MethodSpec::Parse(
        fallback ? rt.fallback_spec() : rt.shard_spec(i));
    if (!spec.ok()) {
      env.report.Fail("shard spec: " + spec.status().ToString());
      return;
    }
    Span load(env.tracer, fallback ? "graph.LoadSnapshot" : "router.LoadShard");
    auto resolved = backend_server.Resolve(spec.value());
    load.End();
    if (!resolved.ok()) {
      env.report.Fail("load: " + resolved.status().ToString());
      return;
    }
  }

  server::WorkerPool dispatch(env.threads);
  server::LineTransport transport(
      router::RouterOptions{}.max_line_bytes,
      server::TransportHooks{
          // JSON only, as habit_route serves: routed responses carry
          // "routes" members the binary results frame cannot express.
          .handle = [&rt](std::string_view line) { return rt.HandleLine(line); },
          .handle_frame = nullptr,
          .oversize = [&rt] { return rt.OversizeLine(); },
          .frame_error = nullptr,
          .submit =
              [&dispatch](std::function<void()> work) {
                return dispatch.Submit(std::move(work));
              },
      });
  if (const habit::Status listening = transport.Listen(0); !listening.ok()) {
    env.report.Fail("listen: " + listening.ToString());
    return;
  }
  std::thread serving([&transport] { (void)transport.Serve(); });

  std::vector<size_t> order(requests.size());
  std::iota(order.begin(), order.end(), 0);
  habit::Rng rng(env.options.seed ^ 0x4007E4007EULL);
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::vector<Frame> frames;
  for (size_t i = 0; i < order.size(); i += kBatch) {
    Frame f;
    std::vector<habit::api::ImputeRequest> batch;
    for (size_t k = i; k < std::min(order.size(), i + kBatch); ++k) {
      f.gaps.push_back(order[k]);
      batch.push_back(requests[order[k]]);
    }
    f.line = server::EncodeImputeBatchRequest("", batch);  // no model
    frames.push_back(std::move(f));
  }
  std::vector<std::unique_ptr<server::LineClient>> clients;
  for (int c = 0; c < env.threads; ++c) {
    clients.push_back(std::make_unique<server::LineClient>(
        transport.bound_port(),
        server::ClientOptions{.connect_timeout_ms = 10000,
                              .io_timeout_ms = 60000}));
    if (!clients.back()->connected()) {
      env.report.Fail("connect: " + clients.back()->last_error());
    }
  }

  std::vector<std::atomic<uint64_t>> served(requests.size());
  std::vector<std::atomic<uint8_t>> route_of(requests.size());
  std::vector<uint64_t> queries(env.threads, 0);
  std::vector<uint64_t> failed(env.threads, 0);
  std::vector<std::array<uint64_t, 4>> routes(env.threads, {0, 0, 0, 0});
  EndSetup(env);

  const auto one_frame = [&](int c, uint64_t k) {
    const Frame& f =
        frames[(c * frames.size() / env.threads + k) % frames.size()];
    queries[c] += f.gaps.size();
    std::string line;
    if (!clients[c]->Call(f.line, &line)) {
      failed[c] += f.gaps.size();
      env.report.Fail("client " + std::to_string(c) + ": no answer: " +
                      clients[c]->last_error());
      return size_t{0};
    }
    auto json = Json::Parse(line);
    const Json* results = json.ok() ? json.value().Find("results") : nullptr;
    const Json* strategies = json.ok() ? json.value().Find("routes") : nullptr;
    if (results == nullptr || strategies == nullptr ||
        results->items().size() != f.gaps.size() ||
        strategies->items().size() != f.gaps.size()) {
      failed[c] += f.gaps.size();
      env.report.Fail("bad routed response: " + line.substr(0, 200));
      return f.gaps.size();
    }
    for (size_t i = 0; i < f.gaps.size(); ++i) {
      const size_t gap = f.gaps[i];
      auto answer = ResponseFromJson(results->items()[i]);
      const std::string strategy = strategies->items()[i].is_string()
                                       ? strategies->items()[i].string_value()
                                       : "";
      const Route route = strategy == "shard"      ? kShard
                          : strategy == "halo"     ? kHalo
                          : strategy == "fallback" ? kFallback
                                                   : kUnseen;
      if (!answer.ok() || route == kUnseen) {
        ++failed[c];
        env.report.Fail("gap " + std::to_string(gap) + " routed '" +
                        strategy + "': " +
                        (answer.ok() ? "" : answer.status().ToString()));
        continue;
      }
      ++routes[c][route];
      env.report.Check(CheckPath(requests[gap], answer.value()));
      uint64_t expected = 0;
      const uint64_t hash = AnswerHash(answer.value());
      uint8_t expected_route = kUnseen;
      const bool first_answer =
          served[gap].compare_exchange_strong(expected, hash);
      const bool first_route =
          route_of[gap].compare_exchange_strong(expected_route, route);
      if ((!first_answer && expected != hash) ||
          (!first_route && expected_route != route)) {
        env.report.Fail("gap " + std::to_string(gap) +
                        " was answered two different ways");
      }
    }
    return f.gaps.size();
  };
  const uint64_t calls_before = backend->calls();
  const LoopResult loop = ClosedLoop(env.threads, one_frame, [&] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(env.options.seconds));
  });
  const uint64_t subframes = backend->calls() - calls_before;
  clients.clear();
  env.report.attempted +=
      std::accumulate(queries.begin(), queries.end(), 0ull);
  env.report.failed += std::accumulate(failed.begin(), failed.end(), 0ull);
  ReportLoop(env, loop);
  env.report.Set("router.subframes_per_frame",
                 static_cast<double>(subframes) /
                     static_cast<double>(
                         std::max<size_t>(1, loop.frame_ms.size())));
  uint64_t by_route[4] = {0, 0, 0, 0};
  for (const auto& r : routes) {
    for (int k = 0; k < 4; ++k) by_route[k] += r[k];
  }
  env.report.Set("router.shard", static_cast<double>(by_route[kShard]));
  env.report.Set("router.halo", static_cast<double>(by_route[kHalo]));
  env.report.Set("router.fallback", static_cast<double>(by_route[kFallback]));

  if (env.tracer.enabled()) {
    for (size_t k = 0; k < kReplayFrames; ++k) {
      Span handle(env.tracer, "router.HandleLine");
      (void)rt.HandleLine(frames[k % frames.size()].line);
    }
  }
  const auto cache = backend_server.cache().stats();
  env.report.Set("cache.hits", static_cast<double>(cache.hits));
  env.report.Set("cache.misses", static_cast<double>(cache.misses));
  env.report.Set("cache.coalesced", static_cast<double>(cache.coalesced));
  transport.Shutdown();
  serving.join();

  // Each answer equals the in-process answer of the snapshot its route
  // names: for "shard" and "halo", the shard owning the start endpoint's
  // parent cell (else the end endpoint's); for "fallback", the fallback.
  // The two shard labels are not told apart: the router stamps every
  // request of a sub-frame with the label of the sub-frame's first request,
  // so a halo gap batched with an in-core gap of the same shard reads
  // "shard" (and the reverse); the shard that answers is the same.
  const auto parent_of = [&](const habit::geo::LatLng& p) {
    auto parent = habit::hex::CellToParent(
        habit::hex::LatLngToCell(p, resolution), parent_res);
    return parent.ok() ? parent.value() : habit::hex::kInvalidCell;
  };
  const size_t fallback = rt.manifest().shards.size();
  std::vector<std::vector<size_t>> gaps_of(fallback + 1);
  for (size_t g = 0; g < requests.size(); ++g) {
    const uint8_t route = route_of[g].load();
    if (route == kUnseen) continue;
    const auto start = shard_of_cell.find(parent_of(requests[g].gap_start));
    const auto end = shard_of_cell.find(parent_of(requests[g].gap_end));
    size_t target = fallback;
    if (route == kShard || route == kHalo) {
      target = start != shard_of_cell.end() ? start->second
               : end != shard_of_cell.end() ? end->second
                                            : fallback;
      if (target == fallback) {
        env.report.Fail("gap " + std::to_string(g) +
                        " was routed to a shard, but no shard owns its "
                        "start or end cell");
        continue;
      }
    }
    gaps_of[target].push_back(g);
  }
  std::vector<ImputeResponse> routed(requests.size());
  for (size_t target = 0; target <= fallback; ++target) {
    if (gaps_of[target].empty() && target != fallback) continue;
    auto model = habit::api::MakeModel(
        target == fallback ? rt.fallback_spec() : rt.shard_spec(target), {});
    if (!model.ok()) {
      env.report.Fail("reference load: " + model.status().ToString());
      continue;
    }
    std::vector<ImputeResponse> reference;
    if (target == fallback) {
      // Every gap against the fallback: the search.* metrics, and the
      // answers scored for gaps no frame happened to carry.
      reference = ReferenceAnswers(env, *model.value(), requests);
      for (size_t g = 0; g < requests.size(); ++g) {
        if (route_of[g].load() == kUnseen) routed[g] = reference[g];
      }
      for (const size_t g : gaps_of[target]) {
        if (served[g].load() != AnswerHash(reference[g])) {
          env.report.Fail("gap " + std::to_string(g) +
                          ": routed answer differs from the fallback's");
        }
        routed[g] = reference[g];
      }
      continue;
    }
    std::vector<habit::api::ImputeRequest> batch;
    for (const size_t g : gaps_of[target]) batch.push_back(requests[g]);
    auto results = model.value()->ImputeBatch(batch);
    for (size_t k = 0; k < batch.size(); ++k) {
      const size_t g = gaps_of[target][k];
      if (!results[k].ok() ||
          served[g].load() != AnswerHash(results[k].value())) {
        env.report.Fail("gap " + std::to_string(g) +
                        ": routed answer differs from shard " +
                        std::to_string(target) + "'s");
        continue;
      }
      routed[g] = results[k].MoveValue();
    }
  }
  if (env.tracer.enabled()) {
    // BuildShards saves inside one call; time a save of the fallback.
    auto fallback_model = habit::api::MakeModel(rt.fallback_spec(), {});
    if (fallback_model.ok()) {
      const auto& model =
          dynamic_cast<const habit::api::HabitModel&>(*fallback_model.value());
      Span save(env.tracer, "graph.SaveSnapshot");
      (void)habit::core::SaveModelSnapshot(model.framework(),
                                           dir + "/resaved.snap");
    }
  }
  ScoreAccuracy(env, routed);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // The second BuildShards for build_s; it must cut the same shards.
  build_options.out_dir = dir + "-again";
  build_start = Clock::now();
  auto again = router::BuildShards(env.corpus.train, build_options);
  build_seconds.push_back(SecondsBetween(build_start, Clock::now()));
  env.report.Set("build_s", Fastest(build_seconds));
  std::filesystem::remove_all(build_options.out_dir, ec);
  if (!again.ok()) {
    env.report.Fail("shard build after the timed phase: " +
                    again.status().ToString());
    return;
  }
  bool same = again.value().shards.size() == rt.manifest().shards.size();
  for (size_t i = 0; same && i < again.value().shards.size(); ++i) {
    same = again.value().shards[i].parent_cell ==
           rt.manifest().shards[i].parent_cell;
  }
  if (!same) env.report.Fail("a second BuildShards cut different shards");
}

}  // namespace habitbench
