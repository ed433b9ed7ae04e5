// Tests of the benchmark's own code: the percentile rule, the seeded
// schedules, due-time latency, span self time, and that the metric
// catalogue matches BENCHMARK.json.

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(NearestRank, PicksTheSmallestSampleCoveringP) {
  EXPECT_EQ(NearestRank({7.0}, 50), 7.0);
  EXPECT_EQ(NearestRank({7.0}, 99), 7.0);
  EXPECT_EQ(NearestRank({3.0, 1.0, 2.0}, 50), 2.0);
  EXPECT_EQ(NearestRank({4.0, 1.0, 3.0, 2.0}, 50), 2.0);
  EXPECT_EQ(NearestRank(OneTo(1000), 99), 990.0);
  EXPECT_EQ(NearestRank(OneTo(1000), 50), 500.0);
  EXPECT_EQ(NearestRank(OneTo(100), 99), 99.0);
  EXPECT_EQ(NearestRank(OneTo(100), 100), 100.0);
  EXPECT_EQ(NearestRank({}, 50), 0.0);
}

TEST(NearestRank, TenSamplesBeyondP99NeedsAThousand) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10);
  EXPECT_EQ(SamplesBeyond(999, 99), 9);
  EXPECT_EQ(SamplesBeyond(100, 99), 1);
  EXPECT_EQ(SamplesBeyond(0, 99), 0);
  EXPECT_FALSE(SupportsPercentile(999, 99));
  EXPECT_TRUE(SupportsPercentile(1000, 99));
  EXPECT_EQ(MinSamplesFor(99), 1000);
  EXPECT_EQ(MinSamplesFor(50), 20);
  EXPECT_EQ(MinSamplesFor(99, 1), 100);
}

TEST(Schedules, PoissonIsSeededNondecreasingAndAtRate) {
  const std::vector<double> a = PoissonArrivals(200.0, 20000, 5);
  EXPECT_EQ(a, PoissonArrivals(200.0, 20000, 5));
  EXPECT_NE(a, PoissonArrivals(200.0, 20000, 6));
  for (size_t i = 1; i < a.size(); ++i) ASSERT_LE(a[i - 1], a[i]);
  // Mean gap of 20000 exponential gaps is within 3% of 1/rate.
  EXPECT_NEAR(a.back() / a.size(), 1.0 / 200.0, 0.03 / 200.0);
}

TEST(Schedules, MixedWindowsAreDistinctAndSeeded) {
  const std::vector<MixedRequest> s = MixedSchedule(100.0, 500, 800, 4, 11);
  std::set<int64_t> windows;
  std::set<int> models;
  for (const MixedRequest& r : s) {
    ASSERT_GE(r.window, 0);
    ASSERT_LT(r.window, 800);
    windows.insert(r.window);
    models.insert(r.model);
  }
  EXPECT_EQ(windows.size(), s.size());
  EXPECT_EQ(models, (std::set<int>{0, 1, 2, 3}));
  const std::vector<MixedRequest> same = MixedSchedule(100.0, 500, 800, 4, 11);
  const std::vector<MixedRequest> other = MixedSchedule(100.0, 500, 800, 4, 12);
  bool all_same = true, any_diff = false;
  for (size_t i = 0; i < s.size(); ++i) {
    all_same &= s[i].due == same[i].due && s[i].window == same[i].window &&
                s[i].model == same[i].model;
    any_diff |= s[i].window != other[i].window || s[i].model != other[i].model;
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff);
}

TEST(Schedules, SharedWindowAdvancesOncePerInterval) {
  const double interval = 0.2;
  const std::vector<HotRequest> s = SharedWindowSchedule(400.0, 4000, interval, 50, 3);
  ASSERT_FALSE(s.empty());
  const int64_t first = s.front().window - static_cast<int64_t>(s.front().due / interval);
  for (const HotRequest& r : s) {
    const int64_t k = static_cast<int64_t>(r.due / interval);
    ASSERT_EQ(r.window, ((first + k) % 50 + 50) % 50);
  }
  // About rate * interval = 80 requests share each window.
  std::set<int64_t> distinct;
  for (const HotRequest& r : s) distinct.insert(static_cast<int64_t>(r.due / interval));
  EXPECT_GT(static_cast<double>(s.size()) / distinct.size(), 60.0);
  const std::vector<HotRequest> same = SharedWindowSchedule(400.0, 4000, interval, 50, 3);
  const std::vector<HotRequest> other = SharedWindowSchedule(400.0, 4000, interval, 50, 4);
  bool all_same = true, any_diff = false;
  for (size_t i = 0; i < s.size(); ++i) {
    all_same &= s[i].due == same[i].due && s[i].window == same[i].window;
    any_diff |= s[i].due != other[i].due || s[i].window != other[i].window;
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff);
}

TEST(DueLatency, CountsLateSubmitsButNotEarlyOnes) {
  // Due at 1.0 s, submitted at 1.25 s, answered 0.5 s after the submit.
  EXPECT_DOUBLE_EQ(DueLatencySeconds(1.0, 1.25, 0.5), 0.75);
  // A stall that delays the submit shows up in full.
  EXPECT_DOUBLE_EQ(DueLatencySeconds(2.0, 2.0, 0.01), 0.01);
  EXPECT_DOUBLE_EQ(DueLatencySeconds(2.0, 3.0, 0.01), 1.01);
  // Submitting early (clock granularity) is not a negative latency.
  EXPECT_DOUBLE_EQ(DueLatencySeconds(2.0, 1.999, 0.01), 0.01);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const Span parent{"p", 0, -1, 1, 0.0, 10.0};
  const Span a{"a", 1, 0, 1, 1.0, 4.0};
  const Span b{"b", 2, 0, 1, 3.0, 5.0};    // overlaps a
  const Span c{"c", 3, 0, 1, 9.0, 12.0};   // runs past the parent
  EXPECT_DOUBLE_EQ(SelfTime(parent, {}), 10.0);
  EXPECT_DOUBLE_EQ(SelfTime(parent, {&a, &b, &c}), 10.0 - 4.0 - 1.0);

  SpanRecorder off(false);
  EXPECT_EQ(off.Add("x", 0.0, 1.0), -1);
  EXPECT_TRUE(off.spans().empty());

  SpanRecorder rec(true);
  const int64_t root = rec.Add("request", 0.0, 2.0, -1, 7);
  rec.Add("serve.Submit", 0.5, 1.0, root, 7);
  const std::vector<LayerTime> rows = rec.LayerTimes();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "request");
  EXPECT_DOUBLE_EQ(rows[0].self_s, 1.5);
  EXPECT_EQ(rec.spans()[1].request, 7);
}

struct Declared {
  std::string name, unit, better;
};

// The objects of one array of BENCHMARK.json, read with a regular
// expression: the file is flat and written by hand.
std::vector<Declared> DeclaredMetrics(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\"");
  EXPECT_NE(at, std::string::npos) << key;
  const size_t open = json.find('[', at);
  const size_t close = json.find(']', open);
  const std::string body = json.substr(open, close - open);
  static const std::regex kObject(
      "\\{\\s*\"name\"\\s*:\\s*\"([^\"]+)\"\\s*,\\s*\"unit\"\\s*:\\s*\"([^\"]+)\""
      "\\s*,\\s*\"better\"\\s*:\\s*\"([^\"]+)\"");
  std::vector<Declared> out;
  for (std::sregex_iterator it(body.begin(), body.end(), kObject), end; it != end; ++it) {
    out.push_back({(*it)[1], (*it)[2], (*it)[3]});
  }
  return out;
}

void ExpectSame(const std::vector<MetricDef>& printed, const std::vector<Declared>& declared) {
  ASSERT_EQ(printed.size(), declared.size());
  for (size_t i = 0; i < printed.size(); ++i) {
    EXPECT_EQ(printed[i].name, declared[i].name);
    EXPECT_EQ(printed[i].unit, declared[i].unit) << printed[i].name;
    EXPECT_EQ(printed[i].better, declared[i].better) << printed[i].name;
  }
}

TEST(MetricNames, EqualBenchmarkJson) {
  std::ifstream file(PERFBENCH_JSON);
  ASSERT_TRUE(file.good()) << PERFBENCH_JSON;
  std::stringstream text;
  text << file.rdbuf();
  const std::string json = text.str();
  ExpectSame(EndToEndMetrics(), DeclaredMetrics(json, "end_to_end"));
  ExpectSame(PerLayerMetrics(), DeclaredMetrics(json, "per_layer"));

  static const std::regex kWorkload("\"name\"\\s*:\\s*\"([^\"]+)\"\\s*,\\s*\"why\"");
  std::vector<std::string> workloads;
  for (std::sregex_iterator it(json.begin(), json.end(), kWorkload), end; it != end; ++it) {
    workloads.push_back((*it)[1]);
  }
  EXPECT_EQ(workloads, WorkloadNames());
}

TEST(ResultLine, CarriesEveryMetricWithItsUnit) {
  Outcome outcome;
  outcome.attempted = 3;
  for (const MetricDef& d : EndToEndMetrics()) outcome.metrics[d.name] = 1.5;
  const std::string line = ResultLine(outcome, false);
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, ", 0), 0u);
  for (const MetricDef& d : EndToEndMetrics()) {
    EXPECT_NE(line.find("\"" + d.name + "\": {\"value\": 1.5, \"unit\": \"" + d.unit + "\"}"),
              std::string::npos)
        << d.name;
  }
  outcome.metrics.erase("setup_s");
  EXPECT_EQ(ResultLine(outcome, false).rfind("{\"correct\": false", 0), 0u);
}

}  // namespace
}  // namespace perfbench
