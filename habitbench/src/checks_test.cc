// Shows that the benchmark's output checks catch what they are there to
// catch: each checker accepts a good output and rejects a deliberately
// corrupted one (a moved end point, a non-monotone timestamp, a dropped
// trip, a perturbed path, ...). Exits non-zero on the first checker that
// lets a corruption through.
//
//   ctest --test-dir .bench_build/habitbench
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "graph/digraph.h"

namespace {

using habit::api::ImputeRequest;
using habit::api::ImputeResponse;
using namespace habitbench;

int failures = 0;

void Expect(bool passes, const std::string& verdict, const char* what) {
  const bool flagged = !verdict.empty();
  if (flagged == passes) {
    std::printf("FAIL %s: %s\n", what,
                flagged ? verdict.c_str() : "corruption not detected");
    ++failures;
  } else {
    std::printf("ok   %s%s%s\n", what, flagged ? " -> " : "",
                verdict.c_str());
  }
}

ImputeRequest Gap() {
  ImputeRequest request;
  request.gap_start = {54.40, 10.22};
  request.gap_end = {54.52, 10.30};
  request.t_start = 1000;
  request.t_end = 4600;
  return request;
}

ImputeResponse Answer() {
  ImputeResponse response;
  response.path = {{54.40, 10.22}, {54.45, 10.25}, {54.50, 10.28},
                   {54.52, 10.30}};
  response.timestamps = {1000, 2300, 3900, 4600};
  response.expanded = 42;
  return response;
}

}  // namespace

int main() {
  const ImputeRequest gap = Gap();
  const ImputeResponse good = Answer();

  Expect(true, CheckPath(gap, good), "path of a good answer");
  {
    ImputeResponse bad = good;
    bad.path.back().lat += 1e-4;  // end point moved ~11 m
    Expect(false, CheckPath(gap, bad), "moved end point");
  }
  {
    ImputeResponse bad = good;
    bad.path.front().lng -= 1e-4;
    Expect(false, CheckPath(gap, bad), "moved start point");
  }
  {
    ImputeResponse bad = good;
    bad.timestamps[2] = 2000;  // goes back in time
    Expect(false, CheckPath(gap, bad), "non-monotone timestamp");
  }
  {
    ImputeResponse bad = good;
    bad.timestamps.pop_back();
    Expect(false, CheckPath(gap, bad), "timestamp count != path length");
  }
  {
    ImputeResponse bad = good;
    bad.timestamps.back() = 4500;
    Expect(false, CheckPath(gap, bad), "timestamps not ending at t_end");
  }

  Expect(true, CheckSameAnswer(good, Answer()), "identical answers");
  {
    ImputeResponse bad = good;
    bad.path[1].lng += 1e-12;  // perturbed interior point
    Expect(false, CheckSameAnswer(bad, good), "perturbed path");
  }
  {
    ImputeResponse bad = good;
    bad.expanded += 1;
    Expect(false, CheckSameAnswer(bad, good), "different search effort");
  }
  {
    ImputeResponse bad = good;
    bad.path.pop_back();
    Expect(false, CheckSameAnswer(bad, good), "shortened path");
  }
  {
    ImputeResponse bad = good;
    bad.path[1].lat += 1e-9;
    Expect(false,
           AnswerHash(bad) == AnswerHash(good) ? "" : "hashes differ",
           "perturbed path changes the answer hash");
  }

  Expect(true, CheckAccepted({2, 2, 1}, 5), "every sent trip acked");
  Expect(false, CheckAccepted({2, 1, 1}, 5), "dropped trip");
  Expect(true, CheckEpochsIncrease({1, 2, 3}), "increasing epochs");
  Expect(false, CheckEpochsIncrease({1, 2, 2}), "repeated epoch");
  Expect(false, CheckEpochsIncrease({2, 1}), "epoch going back");

  {
    habit::graph::Digraph digraph;
    habit::graph::NodeAttrs a;
    a.message_count = 7;
    habit::graph::NodeAttrs b;
    b.message_count = 5;
    digraph.AddNode(1, a);
    digraph.AddNode(2, b);
    const habit::graph::CompactGraph graph = digraph.Freeze();
    Expect(true, CheckMessageCounts(graph, 12), "message counts sum");
    Expect(false, CheckMessageCounts(graph, 13),
           "a training point missing from the graph");
  }

  {
    const habit::geo::Polyline truth = {
        {54.40, 10.22}, {54.43, 10.24}, {54.47, 10.27}, {54.52, 10.30}};
    const double same = OwnGapDtw(good.path, good.path);
    Expect(true, same == 0.0 ? "" : "self-DTW " + std::to_string(same),
           "DTW of a path with itself is 0");
    const double d = OwnGapDtw(good.path, truth);
    Expect(true, d > 0 && d < 5000 ? "" : "DTW " + std::to_string(d),
           "DTW of two nearby paths is a few hundred meters");
    Expect(true, CheckDtwAgrees(d, d + 5e-7), "DTW within 1e-6 m");
    Expect(false, CheckDtwAgrees(d, d + 1e-3), "DTW off by 1 mm");
    habit::geo::Polyline moved = good.path;
    moved[1].lat += 0.01;  // ~1.1 km detour
    Expect(true, OwnGapDtw(moved, truth) > d ? "" : "DTW did not grow",
           "perturbed path scores a larger DTW");
  }

  {
    habit::server::Json result = habit::server::Json::Object();
    result.Set("ok", habit::server::Json::Bool(false));
    Expect(false,
           ResponseFromJson(result).ok() ? "" : "not ok",
           "a failed result is not read as an answer");
  }

  std::printf("%s\n", failures == 0 ? "all checkers hold" : "FAILED");
  return failures == 0 ? 0 : 1;
}
