// B19 — Morsel-driven intra-query parallelism: the B14 join sweep and
// the B16 aggregate sweep re-run at exec_threads 1 / 2 / 4 / 8 on
// identical data (default batch size, so 3200 employees split into 4
// morsels at 1024 rows/batch — smaller batches are swept separately to
// show scheduling overhead vs. morsel count). exec_threads = 1 is the
// serial batch executor: the speedup of 4 workers over it on a >= 4
// core host is the headline number tracked in EXPERIMENTS.md. On a
// single-core runner the sweep degenerates to scheduling overhead
// measurement (documented there); the setup still asserts the
// parallel-path invariants — morsel count = ceil(rows / batch_size),
// every parallel query moves exodus_exec_morsels_total and
// exodus_exec_parallel_queries_total, serial queries move neither.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "bench_common.h"
#include "excess/session.h"
#include "obs/metrics.h"

namespace exodus {
namespace {

// B14 data generator: n employees joining n/10 departments. Salaries
// are whole floats (FP-exact sums), so parallel partial-aggregate
// merging must reproduce serial results bit for bit.
Database* Db(int employees) {
  static std::map<int, std::unique_ptr<Database>> dbs;
  auto it = dbs.find(employees);
  if (it != dbs.end()) return it->second.get();
  auto d = std::make_unique<Database>();
  bench::MustExecute(d.get(), R"(
    define type Department (id: int4, floor: int4)
    define type Employee (name: char[25], salary: float8, dept_id: int4)
    create Departments : {Department}
    create Employees : {Employee}
  )");
  const int departments = employees / 10;
  for (int i = 0; i < departments; ++i) {
    bench::MustExecute(d.get(),
                       "append to Departments (id = " + std::to_string(i) +
                           ", floor = " + std::to_string(i % 5) + ")");
  }
  for (int i = 0; i < employees; ++i) {
    bench::MustExecute(
        d.get(), "append to Employees (name = \"e" + std::to_string(i) +
                     "\", salary = " + std::to_string(i % 500) +
                     ".0, dept_id = " + std::to_string(i % departments) + ")");
  }
  Database* out = d.get();
  dbs.emplace(employees, std::move(d));
  return out;
}

const char* kJoin =
    "retrieve (E.name, D.floor) from E in Employees, D in Departments "
    "where D.id = E.dept_id";

const char* kAggregate =
    "retrieve unique (E.dept_id, s = sum(E.salary over E.dept_id), "
    "u = count(unique E.salary over E.dept_id)) from E in Employees";

// One-time sanity pass per database: the parallel path actually engages
// and its accounting invariants hold. Benchmarks measuring a path that
// silently fell back to serial would be meaningless.
void AssertParallelInvariants(Database* db, int employees) {
  static std::map<Database*, bool> checked;
  if (checked[db]) return;
  checked[db] = true;
  obs::Counter* morsels = db->metrics()->GetCounter("exodus_exec_morsels_total");
  obs::Counter* queries =
      db->metrics()->GetCounter("exodus_exec_parallel_queries_total");
  excess::SessionOptions saved = *db->mutable_options();

  db->mutable_options()->batch_size = 256;
  db->mutable_options()->exec_threads = 1;
  uint64_t m0 = morsels->value();
  uint64_t q0 = queries->value();
  const size_t serial_rows = bench::MustQuery(db, kJoin);
  if (morsels->value() != m0 || queries->value() != q0) {
    std::cerr << "B19 invariant violated: serial execution moved the "
                 "parallel series\n";
    std::abort();
  }

  db->mutable_options()->exec_threads = 4;
  m0 = morsels->value();
  q0 = queries->value();
  const size_t parallel_rows = bench::MustQuery(db, kJoin);
  const uint64_t expect_morsels =
      (static_cast<uint64_t>(employees) + 255) / 256;
  if (morsels->value() - m0 != expect_morsels) {
    std::cerr << "B19 invariant violated: expected " << expect_morsels
              << " morsels for " << employees << " rows at batch 256, got "
              << morsels->value() - m0 << "\n";
    std::abort();
  }
  if (queries->value() - q0 != 1) {
    std::cerr << "B19 invariant violated: parallel query count moved by "
              << queries->value() - q0 << ", want 1\n";
    std::abort();
  }
  if (parallel_rows != serial_rows) {
    std::cerr << "B19 invariant violated: parallel rows " << parallel_rows
              << " != serial rows " << serial_rows << "\n";
    std::abort();
  }
  *db->mutable_options() = saved;
}

// Runs `query` at state.range(1) worker threads over state.range(0)
// employees (batch size state.range(2)).
void RunParallel(benchmark::State& state, const char* query) {
  const int employees = static_cast<int>(state.range(0));
  Database* db = Db(employees);
  AssertParallelInvariants(db, employees);
  excess::SessionOptions saved = *db->mutable_options();
  db->mutable_options()->batch_size = static_cast<int>(state.range(2));
  db->mutable_options()->exec_threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::MustQuery(db, query));
  }
  *db->mutable_options() = saved;
  state.SetComplexityN(state.range(0));
}

// Join thread sweep: 3200 and 12800 employees x 1/2/4/8 workers at
// batch sizes 256 (many morsels) and 1024 (the default).
void BM_ParallelJoin(benchmark::State& state) { RunParallel(state, kJoin); }
BENCHMARK(BM_ParallelJoin)
    ->ArgsProduct({{3200, 12800}, {1, 2, 4, 8}, {256, 1024}})
    ->Complexity();

// Grouped-aggregate thread sweep over the same data: exercises the
// parallel materialize pipeline plus partial-aggregate merging.
void BM_ParallelAggregate(benchmark::State& state) {
  RunParallel(state, kAggregate);
}
BENCHMARK(BM_ParallelAggregate)
    ->ArgsProduct({{3200, 12800}, {1, 2, 4, 8}, {256, 1024}})
    ->Complexity();

}  // namespace
}  // namespace exodus

BENCHMARK_MAIN();
