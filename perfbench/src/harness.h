#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// The benchmark's own arithmetic, kept free of engine dependencies so
// tests/harness_test.cc can check it in isolation: percentile selection,
// open-loop due-time accounting, parsing of the engine's trace JSON and
// Prometheus text, and the result emitter.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending, non-empty), p in (0,1].
double NearestRank(const std::vector<double>& sorted, double p);

/// Median of `values` (any order; the mean of the middle two for an even
/// count). 0 for an empty vector.
double Median(std::vector<double> values);

/// A latency sample summarised: the median, the 90th percentile (the
/// bounded tail metric) and the highest percentile of a fixed ladder
/// (99, 98, 95, 90, 75, 50) that still has at least ten samples beyond
/// it. `tail_pct` names the percentile chosen (0 when n < 11, in which
/// case `tail` is the maximum).
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p90 = 0;
  double tail = 0;
  double tail_pct = 0;
};
Summary Summarize(std::vector<double> samples);

// ---------------------------------------------------------------------------
// Open-loop schedule
// ---------------------------------------------------------------------------

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its reply arrived (nanoseconds on one clock).
struct OpenLoopSample {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
};

/// Due time of request `i` on a fixed-rate schedule starting at
/// `start_ns` with `interval_ns` between requests.
inline int64_t DueNs(int64_t start_ns, int64_t interval_ns, int64_t i) {
  return start_ns + i * interval_ns;
}

/// Latency of each request measured from its due time (so a stall is
/// charged to every request queued behind it, not only the stalled
/// one), its service time (done - sent), and the generator's lateness
/// (sent - due), all in microseconds.
struct OpenLoopTimes {
  std::vector<double> latency_us;
  std::vector<double> service_us;
  std::vector<double> late_us;
};
OpenLoopTimes AccountOpenLoop(const std::vector<OpenLoopSample>& samples);

// ---------------------------------------------------------------------------
// Engine instrumentation parsers
// ---------------------------------------------------------------------------

/// The fields of one `Database::SetTraceSink` JSON line the benchmark
/// uses (docs/observability.md, "Phase tracing"). Waits are keyed by
/// wait-class name without the `_us` suffix.
struct TraceLine {
  std::string statement;
  double parse_us = 0;
  double bind_us = 0;
  double optimize_us = 0;
  double execute_us = 0;
  double total_us = 0;
  double rows = 0;
  bool cached_plan = false;
  bool ok = false;
  std::map<std::string, double> waits;

  double wait(const std::string& name) const {
    auto it = waits.find(name);
    return it == waits.end() ? 0 : it->second;
  }
};

/// Parses one trace line; nullopt when the line is not a JSON object of
/// the expected shape.
std::optional<TraceLine> ParseTraceLine(const std::string& json);

/// Scalar series of a Prometheus text exposition, keyed by the full
/// series name including labels (`exodus_wal_fsyncs_total`,
/// `exodus_wait_time_us_sum{event="wal_fsync"}`). Comment lines and
/// lines without a numeric value are skipped.
using MetricSnapshot = std::map<std::string, double>;
MetricSnapshot ParsePrometheus(const std::string& text);

/// `after[name] - before[name]`, treating a missing series as 0.
double Delta(const MetricSnapshot& before, const MetricSnapshot& after,
             const std::string& name);

/// Sum of Delta over every series whose name starts with `prefix`
/// (e.g. all `exodus_operator_rows_total{op=...}` label sets).
double DeltaPrefix(const MetricSnapshot& before, const MetricSnapshot& after,
                   const std::string& prefix);

/// Adds `after - before` of every series to `*sum`, so the deltas of
/// several separate intervals add up (read them back with an empty
/// snapshot as `before`).
void AccumulateDelta(const MetricSnapshot& before, const MetricSnapshot& after,
                     MetricSnapshot* sum);

/// a / b, or 0 when b is 0 (ratios whose base did not occur).
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Shortest decimal text that reads back as exactly `v` (all its
/// digits, no rounding); non-finite values become 0.
std::string FormatNumber(double v);

/// JSON string literal for `s` (quotes included).
std::string JsonString(const std::string& s);

/// The result line: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`, each metric as {"value": v, "unit": u}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
