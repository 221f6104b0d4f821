// Tests of the benchmark harness's own arithmetic (perfbench/src/harness.h):
// percentile selection, open-loop due-time accounting, the trace-JSON and
// Prometheus parsers and the result emitter.

#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <random>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRankAndMedian) {
  const std::vector<double> v = Iota(100);
  EXPECT_EQ(NearestRank(v, 0.5), 50);
  EXPECT_EQ(NearestRank(v, 0.99), 99);
  EXPECT_EQ(NearestRank(v, 1.0), 100);
  EXPECT_EQ(NearestRank({7}, 0.99), 7);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(Percentile, TailIsHighestLadderStepWithTenSamplesBeyond) {
  // 1000 samples: rank 990 leaves exactly ten beyond, so p99 qualifies.
  Summary s = Summarize(Iota(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.tail_pct, 99);
  EXPECT_EQ(s.tail, 990);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p90, 900);

  // 999 samples: p99 would leave nine beyond; p98 (rank 980) leaves 19.
  s = Summarize(Iota(999));
  EXPECT_EQ(s.tail_pct, 98);
  EXPECT_EQ(s.tail, 980);

  // 20 samples: only the median leaves ten beyond.
  s = Summarize(Iota(20));
  EXPECT_EQ(s.tail_pct, 50);
  EXPECT_EQ(s.tail, 10);

  // Too few for any step: the maximum, flagged with percentile 0.
  s = Summarize(Iota(11));
  EXPECT_EQ(s.tail_pct, 0);
  EXPECT_EQ(s.tail, 11);
}

TEST(Percentile, InputOrderDoesNotMatter) {
  std::vector<double> v = Iota(5000);
  std::mt19937 rng(7);
  std::shuffle(v.begin(), v.end(), rng);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.p50, 2500);
  EXPECT_EQ(s.p90, 4500);
  EXPECT_EQ(s.tail, 4950);
}

TEST(OpenLoop, LatencyCountsFromDueTime) {
  const int64_t ms = 1000000;
  EXPECT_EQ(DueNs(100, ms, 0), 100);
  EXPECT_EQ(DueNs(100, ms, 3), 100 + 3 * ms);

  // Request 0 stalls for 5 ms; request 1 was due at 1 ms but could only
  // be sent at 5 ms. A closed-loop timer would report it as 0.1 ms.
  std::vector<OpenLoopSample> samples = {
      {0, 0, 5 * ms},
      {ms, 5 * ms, 5 * ms + ms / 10},
      {2 * ms, 2 * ms - 10, 2 * ms + ms / 10},  // sent early: no lateness
  };
  const OpenLoopTimes t = AccountOpenLoop(samples);
  ASSERT_EQ(t.latency_us.size(), 3u);
  EXPECT_DOUBLE_EQ(t.latency_us[0], 5000);
  EXPECT_DOUBLE_EQ(t.latency_us[1], 4100);
  EXPECT_DOUBLE_EQ(t.latency_us[2], 100);
  // Service time starts at the send: the queued request took 0.1 ms.
  EXPECT_DOUBLE_EQ(t.service_us[0], 5000);
  EXPECT_DOUBLE_EQ(t.service_us[1], 100);
  EXPECT_DOUBLE_EQ(t.service_us[2], 100.01);
  EXPECT_DOUBLE_EQ(t.late_us[0], 0);
  EXPECT_DOUBLE_EQ(t.late_us[1], 4000);
  EXPECT_DOUBLE_EQ(t.late_us[2], 0);
}

TEST(TraceParser, ReadsPhasesWaitsAndFlags) {
  const std::string line =
      "{\"query_id\":12,\"session_id\":1,\"user\":\"dba\",\"statement\":"
      "\"retrieve (E.name) from E in Employees where E.name = \\\"e1\\\"\","
      "\"parse_us\":14,\"bind_us\":7,\"optimize_us\":11,\"execute_us\":162,"
      "\"total_us\":194,\"rows\":40,\"cached_plan\":true,\"slow\":false,"
      "\"waits\":{\"mvcc_writer_latch_us\":58,\"wal_fsync_us\":3},"
      "\"status\":\"ok\"}";
  auto t = ParseTraceLine(line);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->statement,
            "retrieve (E.name) from E in Employees where E.name = \"e1\"");
  EXPECT_EQ(t->parse_us, 14);
  EXPECT_EQ(t->bind_us, 7);
  EXPECT_EQ(t->optimize_us, 11);
  EXPECT_EQ(t->execute_us, 162);
  EXPECT_EQ(t->total_us, 194);
  EXPECT_EQ(t->rows, 40);
  EXPECT_TRUE(t->cached_plan);
  EXPECT_TRUE(t->ok);
  EXPECT_EQ(t->wait("mvcc_writer_latch"), 58);
  EXPECT_EQ(t->wait("wal_fsync"), 3);
  EXPECT_EQ(t->wait("wal_group_commit"), 0);
}

TEST(TraceParser, RejectsMalformedLines) {
  EXPECT_FALSE(ParseTraceLine("").has_value());
  EXPECT_FALSE(ParseTraceLine("{}").has_value());
  EXPECT_FALSE(ParseTraceLine("{\"parse_us\":1}").has_value());  // no total
  EXPECT_FALSE(ParseTraceLine("{\"total_us\":1").has_value());   // unclosed
  EXPECT_FALSE(ParseTraceLine("{\"total_us\":1} x").has_value());
  EXPECT_FALSE(ParseTraceLine("{\"statement\":\"abc,\"total_us\":1}").has_value());
  auto ok = ParseTraceLine("{\"total_us\":3,\"status\":\"error\"}");
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(ok->ok);
}

TEST(MetricsParser, ParsesExpositionAndDeltas) {
  const std::string before =
      "# TYPE exodus_wal_fsyncs_total counter\n"
      "exodus_wal_fsyncs_total 10\n"
      "exodus_operator_rows_total{op=\"scan\"} 100\n"
      "exodus_operator_rows_total{op=\"hash_join\"} 5\n"
      "exodus_wait_time_us_bucket{event=\"wal_fsync\",le=\"+Inf\"} 4\n"
      "exodus_wait_time_us_sum{event=\"wal_fsync\"} 512\n";
  const std::string after =
      "exodus_wal_fsyncs_total 25\n"
      "exodus_operator_rows_total{op=\"scan\"} 160\n"
      "exodus_operator_rows_total{op=\"hash_join\"} 9\n"
      "exodus_operator_rows_total{op=\"unnest\"} 3\n"
      "exodus_wait_time_us_sum{event=\"wal_fsync\"} 1024\n"
      "garbage line\n"
      "exodus_other_total not_a_number\n";
  const MetricSnapshot b = ParsePrometheus(before);
  const MetricSnapshot a = ParsePrometheus(after);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(a.count("exodus_other_total"), 0u);
  EXPECT_EQ(b.at("exodus_wait_time_us_bucket{event=\"wal_fsync\",le=\"+Inf\"}"), 4);
  EXPECT_EQ(Delta(b, a, "exodus_wal_fsyncs_total"), 15);
  EXPECT_EQ(Delta(b, a, "exodus_wait_time_us_sum{event=\"wal_fsync\"}"), 512);
  EXPECT_EQ(Delta(b, a, "exodus_missing_total"), 0);
  EXPECT_EQ(DeltaPrefix(b, a, "exodus_operator_rows_total"), 60 + 4 + 3);
  EXPECT_EQ(Ratio(1, 0), 0);
  EXPECT_EQ(Ratio(3, 4), 0.75);
}

TEST(MetricsParser, DeltasOfSeparateIntervalsAddUp) {
  // Two traced intervals with an untraced one between them: only the
  // two intervals' increments count.
  const MetricSnapshot s0 = ParsePrometheus("exodus_wal_fsyncs_total 10\n");
  const MetricSnapshot s1 = ParsePrometheus(
      "exodus_wal_fsyncs_total 14\nexodus_operator_rows_total{op=\"scan\"} 7\n");
  const MetricSnapshot s2 = ParsePrometheus(
      "exodus_wal_fsyncs_total 100\nexodus_operator_rows_total{op=\"scan\"} 50\n");
  const MetricSnapshot s3 = ParsePrometheus(
      "exodus_wal_fsyncs_total 103\nexodus_operator_rows_total{op=\"scan\"} 60\n"
      "exodus_operator_rows_total{op=\"unnest\"} 2\n");
  MetricSnapshot sum;
  AccumulateDelta(s0, s1, &sum);
  AccumulateDelta(s2, s3, &sum);
  EXPECT_EQ(Delta({}, sum, "exodus_wal_fsyncs_total"), 4 + 3);
  EXPECT_EQ(Delta({}, sum, "exodus_operator_rows_total{op=\"scan\"}"), 7 + 10);
  EXPECT_EQ(DeltaPrefix({}, sum, "exodus_operator_rows_total"), 7 + 10 + 2);
}

TEST(Emitter, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(FormatNumber(0.1), "0.1");
  EXPECT_EQ(FormatNumber(2), "2");
  EXPECT_EQ(FormatNumber(98.693), "98.693");
  EXPECT_EQ(std::strtod(FormatNumber(1.0 / 3).c_str(), nullptr), 1.0 / 3);
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

TEST(Emitter, ResultLineHasExactlyTheContractKeys) {
  const std::string line =
      ResultJson(true, 1000, 2,
                 {{"latency_ms", 1.2034, "ms"}, {"setup_s", 0.8127, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 2, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}");
  EXPECT_EQ(ResultJson(false, 1, 1, {}),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
            "\"metrics\": {}}");
}

}  // namespace
}  // namespace perfbench
