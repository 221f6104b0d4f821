#ifndef EXODUS_BENCH_BENCH_COMMON_H_
#define EXODUS_BENCH_BENCH_COMMON_H_

// Shared helpers for the benchmark suite. Each bench binary regenerates
// one experiment of DESIGN.md §4 (B1..B20; B9 is retired);
// EXPERIMENTS.md records the qualitative shape each one checks.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "excess/database.h"

namespace exodus::bench {

/// Executes a statement, aborting the benchmark process on failure
/// (misconfigured setup must not silently skew measurements).
inline void MustExecute(Database* db, const std::string& q) {
  auto r = db->Execute(q);
  if (!r.ok()) {
    std::cerr << "benchmark setup failed on:\n"
              << q << "\n"
              << r.status().ToString() << "\n";
    std::abort();
  }
}

/// Executes a query inside the timed region; aborts on error, returns
/// the row count so callers can fence against dead-code elimination.
inline size_t MustQuery(Database* db, const std::string& q) {
  auto r = db->Execute(q);
  if (!r.ok()) {
    std::cerr << "benchmark query failed:\n"
              << q << "\n"
              << r.status().ToString() << "\n";
    std::abort();
  }
  return r->rows.size();
}

}  // namespace exodus::bench

#endif  // EXODUS_BENCH_BENCH_COMMON_H_
