// Span tracing for the traced run (--trace 1): the benchmark records a span
// around each call it makes into a layer, keeps the spans in memory, and
// writes them out as JSON lines when the run ends. Per-layer metrics are
// computed from these spans. A disabled tracer records nothing and reads
// no clock, so the untraced runs that give the end-to-end metrics pay
// nothing for it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace habitbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled = false)
      : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh span id.
  uint64_t NewId() { return next_id_.fetch_add(1); }

  /// Records one finished span. `parent` is the id of the span that caused
  /// it (0 for none).
  void Record(uint64_t id, const char* name, Clock::time_point start,
              Clock::time_point end, uint64_t parent = 0);

  /// Durations in seconds of every span named `name`, in record order.
  std::vector<double> Seconds(std::string_view name) const;

  /// Writes every span as one JSON object per line.
  habit::Status Write(const std::string& path) const;

 private:
  struct SpanRecord {
    uint64_t id;
    uint64_t parent;
    const char* name;  ///< string literal
    int64_t start_ns;  ///< since the tracer was made
    int64_t end_ns;
  };
  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// \brief RAII span: records [construction, End()] when the tracer is on.
class Span {
 public:
  Span(Tracer& tracer, const char* name, uint64_t parent = 0)
      : tracer_(tracer), name_(name), parent_(parent) {
    if (tracer_.enabled()) {
      id_ = tracer_.NewId();
      start_ = Tracer::Clock::now();
    }
  }
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }
  void End() {
    if (id_ == 0 || ended_) return;
    ended_ = true;
    tracer_.Record(id_, name_, start_, Tracer::Clock::now(), parent_);
  }

 private:
  Tracer& tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_ = 0;
  bool ended_ = false;
  Tracer::Clock::time_point start_;
};

}  // namespace habitbench
