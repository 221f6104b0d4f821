// perfbench: the repository benchmark. Drives an in-process
// server::Server (default ServerOptions, loopback) through server::Client
// connections and prints, as its last stdout line, one JSON object with
// `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1). See
// perfbench/README.md.
//
//   perfbench --workload point|analytic|ingest --seed N --seconds S
//             --trace 0|1 --workdir DIR [--stamp-sha SHA]

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

extern char** environ;

namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__) && !defined(PERFBENCH_SANITIZED)
constexpr bool kOptimisedBuild = true;
#else
constexpr bool kOptimisedBuild = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload point|analytic|ingest --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--stamp-sha SHA]\n";
  return 2;
}

double LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double one = 0;
  in >> one;
  return one;
}

/// Unsets every EXODUS_* variable so the run measures the engine's
/// defaults; returns the names removed.
std::vector<std::string> ClearEngineEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "EXODUS_", 7) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? static_cast<size_t>(eq - *e)
                                         : std::strlen(*e));
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string sha = "unknown";
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return Usage("--seed takes an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || cfg.seconds < 1 || cfg.seconds > 600) {
        return Usage("--seconds takes an integer in [1, 600]");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      trace = v == "1" ? 1 : 0;
    } else if (a == "--workdir") {
      cfg.workdir = v;
    } else if (a == "--stamp-sha") {
      sha = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  bool known = false;
  for (const std::string& n : perfbench::WorkloadNames()) known |= n == cfg.workload;
  if (!known) return Usage("unknown or missing --workload");
  if (!have_seed || trace < 0 || cfg.workdir.empty()) {
    return Usage("--seed, --trace and --workdir are required");
  }
  cfg.trace = trace == 1;
  if (!kOptimisedBuild) {
    std::cerr << "perfbench: refusing to report numbers from a "
                 "non-optimised or sanitizer build (build type "
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }

  const std::vector<std::string> cleared = ClearEngineEnvironment();
  const unsigned nproc = std::thread::hardware_concurrency();
  const double load = LoadAverage();
  if (load > nproc) {
    std::cerr << "perfbench: WARNING load average " << load << " exceeds nproc "
              << nproc << "; timings will be noisy\n";
  }
  std::string cleared_json = "[";
  for (size_t i = 0; i < cleared.size(); ++i) {
    cleared_json += (i > 0 ? ", " : "") + perfbench::JsonString(cleared[i]);
  }
  cleared_json += "]";
  std::cout << "{\"stamp\": {\"git_sha\": " << perfbench::JsonString(sha)
            << ", \"build_type\": " << perfbench::JsonString(PERFBENCH_BUILD_TYPE)
            << ", \"nproc\": " << nproc
            << ", \"loadavg_1m\": " << perfbench::FormatNumber(load)
            << ", \"workload\": " << perfbench::JsonString(cfg.workload)
            << ", \"seed\": " << cfg.seed << ", \"seconds\": " << cfg.seconds
            << ", \"trace\": " << trace
            << ", \"cleared_env\": " << cleared_json << "}}" << std::endl;

  std::filesystem::remove_all(cfg.workdir);
  std::filesystem::create_directories(cfg.workdir);
  perfbench::RunOutput out = perfbench::RunWorkload(cfg);
  std::error_code ec;
  std::filesystem::remove_all(cfg.workdir, ec);
  if (out.metrics.empty()) {
    std::cerr << "perfbench: the run did not complete\n";
    return 1;
  }
  std::cout << "{\"details\": " << out.details_json << "}" << std::endl;
  std::cout << perfbench::ResultJson(out.correct, out.attempted, out.failed,
                                     out.metrics)
            << std::endl;
  return 0;
}
