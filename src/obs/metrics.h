#ifndef EXODUS_OBS_METRICS_H_
#define EXODUS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace exodus::obs {

/// A monotonically increasing counter. Recording is a single relaxed
/// atomic add; reads are relaxed loads, so hot paths never contend.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (active connections, cache size).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed power-of-two-bucket histogram. Bucket 0 counts observations
/// < 1; bucket i (i >= 1) counts observations in [2^(i-1), 2^i). All
/// counters are atomics: many threads record while any thread reads a
/// percentile or snapshot concurrently.
///
/// This generalizes the server's original latency histogram; the server
/// records microseconds, the statement tracer records microseconds, and
/// tests exercise the bucket math directly.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Record(uint64_t value);

  /// The upper bound of the bucket containing the p-th percentile
  /// observation (p in [0,1]); 0 when the histogram is empty. The top
  /// bucket saturates: observations >= 2^(kBuckets-2) all land there
  /// and report its upper bound.
  uint64_t Percentile(double p) const;

  /// Total number of recorded observations.
  uint64_t TotalCount() const;

  /// Approximate sum of observations (each counted at its bucket's
  /// upper bound) — the `_sum` series of the Prometheus exposition.
  uint64_t ApproxSum() const;

  /// Copies the per-bucket counts (for exposition rendering).
  void Snapshot(uint64_t counts[kBuckets]) const;

  /// The exclusive upper bound of bucket `i` (1, 2, 4, ... 2^(i-1)...).
  static uint64_t BucketUpperBound(size_t i);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// A process- or database-wide registry of named metrics.
///
/// Registration (GetCounter / GetGauge / GetHistogram) takes a mutex
/// and returns a stable pointer; entries are never removed, so callers
/// cache the pointer once and record lock-free forever after.
/// RegisterCallback adds a metric whose value is computed at render
/// time from counters maintained elsewhere (plan cache, MVCC controller).
///
/// Metric names follow Prometheus conventions and may carry a label
/// set: `exodus_operator_rows_total{op="hash_join"}`. RenderPrometheus
/// groups series of one family (the name up to `{`) under a single
/// `# TYPE` header.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first
  /// use. The pointer stays valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Registers a metric computed at render time. `kind` is "counter"
  /// or "gauge" (exposition TYPE line). The callback must be safe to
  /// invoke from any thread (typically it reads other atomics).
  void RegisterCallback(const std::string& name, const std::string& kind,
                        std::function<uint64_t()> fn);

  /// Prometheus text exposition (version 0.0.4) of every registered
  /// metric: `# TYPE` headers, one `name value` line per scalar series,
  /// cumulative `_bucket{le=...}` / `_sum` / `_count` per histogram.
  std::string RenderPrometheus() const;

  /// Number of registered series (tests).
  size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCallback };
  struct Entry {
    Kind kind = Kind::kCounter;
    std::string type_name;  // "counter" | "gauge" | "histogram"
    Counter counter;
    Gauge gauge;
    Histogram histogram;
    std::function<uint64_t()> callback;
  };

  Entry* FindOrCreate(const std::string& name, Kind kind,
                      const std::string& type_name);

  mutable std::mutex mu_;
  /// Keyed by full series name (labels included); std::map keeps the
  /// exposition sorted and therefore stable across scrapes. Values
  /// point into entries_ (deque growth never moves elements).
  std::map<std::string, Entry*> index_;
  std::deque<Entry> entries_;
};

}  // namespace exodus::obs

#endif  // EXODUS_OBS_METRICS_H_
