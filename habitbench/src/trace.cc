#include "trace.h"

#include <cstdio>

namespace habitbench {

void Tracer::Record(uint64_t id, const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t parent) {
  if (!enabled_) return;
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, parent, name, ns(start), ns(end)});
}

std::vector<double> Tracer::Seconds(std::string_view name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

habit::Status Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return habit::Status::IoError("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? habit::Status::OK()
            : habit::Status::IoError("cannot write " + path);
}

}  // namespace habitbench
