// The benchmark's output checks. Each is computed apart from the program
// (its own DTW, its own sums) or taken from a property every imputation
// must have. A checker returns "" when the output holds, and otherwise a
// one-line description of what is wrong. checks_test.cc feeds each of
// them a deliberately corrupted output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/imputation_model.h"
#include "core/status.h"
#include "geo/polyline.h"
#include "graph/compact_graph.h"
#include "server/json.h"

namespace habitbench {

/// The path starts at the gap's start point and ends at its end point;
/// the timestamps have the path's length, never decrease, and run from
/// t_start to t_end.
std::string CheckPath(const habit::api::ImputeRequest& request,
                      const habit::api::ImputeResponse& response);

/// `got` equals `want` exactly: same points, timestamps and effort.
std::string CheckSameAnswer(const habit::api::ImputeResponse& got,
                            const habit::api::ImputeResponse& want);

/// The frozen graph's per-cell message counts sum to the number of
/// training points counted from the trips.
std::string CheckMessageCounts(const habit::graph::CompactGraph& graph,
                               size_t training_points);

/// Epochs acked by successive rollovers strictly increase.
std::string CheckEpochsIncrease(const std::vector<uint64_t>& acked_epochs);

/// The `accepted` counts of the ingest acks sum to the trips sent.
std::string CheckAccepted(const std::vector<uint64_t>& accepted_per_frame,
                          size_t trips_sent);

/// The benchmark's own accuracy measure: both paths resampled to at most
/// 250 m spacing along great circles, then the average matched-pair
/// distance of their dynamic time warping, in meters.
double OwnGapDtw(const habit::geo::Polyline& imputed,
                 const habit::geo::Polyline& truth);

/// The benchmark's DTW agrees with the program's eval::GapDtw to 1e-6 m.
std::string CheckDtwAgrees(double own, double program);

/// Order-sensitive hash of an answer (points, timestamps, effort), used to
/// compare many served answers with one reference without keeping them.
uint64_t AnswerHash(const habit::api::ImputeResponse& response);

/// Reads one protocol result object ({"ok":true,"path":...}) back into a
/// response; a non-ok result or a malformed object is an error.
habit::Result<habit::api::ImputeResponse> ResponseFromJson(
    const habit::server::Json& result);

}  // namespace habitbench
