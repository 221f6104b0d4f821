#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// One benchmark run as the command line asks for it.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for the WAL and checkpoint images (created and
  /// removed by the run).
  std::string workdir;
};

/// What a run reports: the contract's result fields, the metrics of the
/// requested kind (end-to-end untraced, per-layer traced), and a JSON
/// object with the details behind them (sample counts, the percentile
/// each tail is, the sizes, the checks).
struct RunOutput {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string details_json;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end: set-up (several times; the last one is
/// kept), warm-up, the measured window(s), the correctness checks and
/// the restart measurement.
RunOutput RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
