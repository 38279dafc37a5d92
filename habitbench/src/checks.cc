#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

namespace habitbench {

namespace {

using habit::api::ImputeRequest;
using habit::api::ImputeResponse;
using habit::geo::LatLng;
using habit::geo::Polyline;

// Endpoints must be the gap's own coordinates; 1e-9 degrees is ~0.1 mm.
constexpr double kEndpointToleranceDeg = 1e-9;
constexpr double kEarthRadiusM = 6371008.8;
constexpr double kResampleM = 250.0;
constexpr double kPi = 3.14159265358979323846;

std::string Where(const LatLng& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(%.9f, %.9f)", p.lat, p.lng);
  return buf;
}

bool Near(const LatLng& a, const LatLng& b) {
  return std::fabs(a.lat - b.lat) <= kEndpointToleranceDeg &&
         std::fabs(a.lng - b.lng) <= kEndpointToleranceDeg;
}

double Rad(double deg) { return deg * kPi / 180.0; }

double GreatCircleM(const LatLng& a, const LatLng& b) {
  const double p1 = Rad(a.lat), p2 = Rad(b.lat);
  const double s_lat = std::sin((p2 - p1) / 2.0);
  const double s_lng = std::sin(Rad(b.lng - a.lng) / 2.0);
  const double h = s_lat * s_lat + std::cos(p1) * std::cos(p2) * s_lng * s_lng;
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(h)));
}

// Spherical linear interpolation between a and b at fraction f.
LatLng Slerp(const LatLng& a, const LatLng& b, double f) {
  const double d = GreatCircleM(a, b);
  if (d < 1e-9) return a;
  const double angle = d / kEarthRadiusM;
  const double wa = std::sin((1.0 - f) * angle) / std::sin(angle);
  const double wb = std::sin(f * angle) / std::sin(angle);
  const double x = wa * std::cos(Rad(a.lat)) * std::cos(Rad(a.lng)) +
                   wb * std::cos(Rad(b.lat)) * std::cos(Rad(b.lng));
  const double y = wa * std::cos(Rad(a.lat)) * std::sin(Rad(a.lng)) +
                   wb * std::cos(Rad(b.lat)) * std::sin(Rad(b.lng));
  const double z = wa * std::sin(Rad(a.lat)) + wb * std::sin(Rad(b.lat));
  double lng = std::atan2(y, x) * 180.0 / kPi;
  while (lng >= 180.0) lng -= 360.0;
  while (lng < -180.0) lng += 360.0;
  return {std::atan2(z, std::sqrt(x * x + y * y)) * 180.0 / kPi, lng};
}

Polyline Resample(const Polyline& line) {
  if (line.size() < 2) return line;
  Polyline out{line.front()};
  for (size_t i = 1; i < line.size(); ++i) {
    const double d = GreatCircleM(line[i - 1], line[i]);
    if (d > kResampleM) {
      const int pieces = static_cast<int>(std::ceil(d / kResampleM));
      for (int k = 1; k < pieces; ++k) {
        out.push_back(Slerp(line[i - 1], line[i],
                            static_cast<double>(k) / pieces));
      }
    }
    out.push_back(line[i]);
  }
  return out;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  // FNV-1a over the 8 bytes of v.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

}  // namespace

std::string CheckPath(const ImputeRequest& request,
                      const ImputeResponse& response) {
  const Polyline& path = response.path;
  if (path.size() < 2) {
    return "path has " + std::to_string(path.size()) + " points";
  }
  if (!Near(path.front(), request.gap_start)) {
    return "path starts at " + Where(path.front()) + ", gap starts at " +
           Where(request.gap_start);
  }
  if (!Near(path.back(), request.gap_end)) {
    return "path ends at " + Where(path.back()) + ", gap ends at " +
           Where(request.gap_end);
  }
  const std::vector<int64_t>& ts = response.timestamps;
  if (ts.size() != path.size()) {
    return std::to_string(ts.size()) + " timestamps for " +
           std::to_string(path.size()) + " points";
  }
  for (size_t i = 1; i < ts.size(); ++i) {
    if (ts[i] < ts[i - 1]) {
      return "timestamp " + std::to_string(i) + " decreases (" +
             std::to_string(ts[i - 1]) + " -> " + std::to_string(ts[i]) +
             ")";
    }
  }
  if (ts.front() != request.t_start || ts.back() != request.t_end) {
    return "timestamps run " + std::to_string(ts.front()) + ".." +
           std::to_string(ts.back()) + ", gap runs " +
           std::to_string(request.t_start) + ".." +
           std::to_string(request.t_end);
  }
  return "";
}

std::string CheckSameAnswer(const ImputeResponse& got,
                            const ImputeResponse& want) {
  if (got.path.size() != want.path.size()) {
    return "path has " + std::to_string(got.path.size()) +
           " points, reference " + std::to_string(want.path.size());
  }
  for (size_t i = 0; i < got.path.size(); ++i) {
    if (got.path[i].lat != want.path[i].lat ||
        got.path[i].lng != want.path[i].lng) {
      return "point " + std::to_string(i) + " is " + Where(got.path[i]) +
             ", reference " + Where(want.path[i]);
    }
  }
  if (got.timestamps != want.timestamps) return "timestamps differ";
  if (got.expanded != want.expanded) {
    return "expanded " + std::to_string(got.expanded) + ", reference " +
           std::to_string(want.expanded);
  }
  return "";
}

std::string CheckMessageCounts(const habit::graph::CompactGraph& graph,
                               size_t training_points) {
  int64_t sum = 0;
  for (size_t u = 0; u < graph.num_nodes(); ++u) {
    sum += graph.MessageCount(static_cast<habit::graph::NodeIndex>(u));
  }
  if (sum != static_cast<int64_t>(training_points)) {
    return "message counts sum to " + std::to_string(sum) + ", " +
           std::to_string(training_points) + " training points";
  }
  return "";
}

std::string CheckEpochsIncrease(const std::vector<uint64_t>& acked_epochs) {
  for (size_t i = 1; i < acked_epochs.size(); ++i) {
    if (acked_epochs[i] <= acked_epochs[i - 1]) {
      return "rollover " + std::to_string(i) + " acked epoch " +
             std::to_string(acked_epochs[i]) + " after epoch " +
             std::to_string(acked_epochs[i - 1]);
    }
  }
  return "";
}

std::string CheckAccepted(const std::vector<uint64_t>& accepted_per_frame,
                          size_t trips_sent) {
  uint64_t sum = 0;
  for (const uint64_t a : accepted_per_frame) sum += a;
  if (sum != trips_sent) {
    return "ingest acks accepted " + std::to_string(sum) + " trips, " +
           std::to_string(trips_sent) + " sent";
  }
  return "";
}

double OwnGapDtw(const Polyline& imputed, const Polyline& truth) {
  const Polyline a = Resample(imputed);
  const Polyline b = Resample(truth);
  const double inf = std::numeric_limits<double>::infinity();
  if (a.empty() || b.empty()) return a.empty() && b.empty() ? 0.0 : inf;
  // cost[j], steps[j]: best warping path ending at (i, j); the diagonal
  // wins ties, then the cell above, then the cell to the left.
  std::vector<std::pair<double, int>> prev(b.size() + 1, {inf, 0});
  std::vector<std::pair<double, int>> curr(b.size() + 1, {inf, 0});
  prev[0] = {0.0, 0};
  for (size_t i = 1; i <= a.size(); ++i) {
    curr[0] = {inf, 0};
    for (size_t j = 1; j <= b.size(); ++j) {
      std::pair<double, int> best = prev[j - 1];
      if (prev[j].first < best.first) best = prev[j];
      if (curr[j - 1].first < best.first) best = curr[j - 1];
      curr[j] = {best.first + GreatCircleM(a[i - 1], b[j - 1]),
                 best.second + 1};
    }
    std::swap(prev, curr);
  }
  return prev[b.size()].first / prev[b.size()].second;
}

std::string CheckDtwAgrees(double own, double program) {
  if (!(std::fabs(own - program) <= 1e-6)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "DTW %.9f m by the benchmark, %.9f m by eval::GapDtw", own,
                  program);
    return buf;
  }
  return "";
}

uint64_t AnswerHash(const ImputeResponse& response) {
  uint64_t h = 1469598103934665603ULL;
  h = Mix(h, response.path.size());
  for (const LatLng& p : response.path) {
    h = Mix(Mix(h, Bits(p.lat)), Bits(p.lng));
  }
  for (const int64_t t : response.timestamps) {
    h = Mix(h, static_cast<uint64_t>(t));
  }
  return Mix(h, response.expanded);
}

habit::Result<ImputeResponse> ResponseFromJson(
    const habit::server::Json& result) {
  using habit::Status;
  const habit::server::Json* ok = result.Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Status::InvalidArgument("result has no \"ok\"");
  }
  if (!ok->bool_value()) {
    const habit::server::Json* error = result.Find("error");
    return Status::Internal("query failed: " +
                            (error ? error->Dump() : std::string("?")));
  }
  const habit::server::Json* path = result.Find("path");
  const habit::server::Json* ts = result.Find("timestamps");
  const habit::server::Json* expanded = result.Find("expanded");
  if (path == nullptr || !path->is_array() || ts == nullptr ||
      !ts->is_array() || expanded == nullptr || !expanded->is_number()) {
    return Status::InvalidArgument("malformed result " + result.Dump());
  }
  ImputeResponse response;
  for (const habit::server::Json& point : path->items()) {
    if (!point.is_array() || point.items().size() != 2 ||
        !point.items()[0].is_number() || !point.items()[1].is_number()) {
      return Status::InvalidArgument("malformed path point");
    }
    response.path.push_back(
        {point.items()[0].number_value(), point.items()[1].number_value()});
  }
  for (const habit::server::Json& t : ts->items()) {
    if (!t.is_number()) return Status::InvalidArgument("malformed timestamp");
    response.timestamps.push_back(static_cast<int64_t>(t.number_value()));
  }
  response.expanded = static_cast<size_t>(expanded->number_value());
  return response;
}

}  // namespace habitbench
