// B16 — Batch execution: the B14 join sweep and an aggregate sweep run
// under the batch-at-a-time executor at batch sizes 1 / 64 / 1024
// (default) / 4096 on identical data. Expected shape: batch size 1 pays
// the per-batch bookkeeping on every row; throughput rises steeply to
// ~64 rows per batch as per-batch costs amortize and flattens by 1024
// once scratch columns stop fitting deeper cache levels.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "bench_common.h"
#include "excess/session.h"

namespace exodus {
namespace {

// One database per scale: n employees joining n/10 departments (the
// B14 data generator, so sweeps stay comparable across PRs).
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

// Runs `query` at state.range(1) rows per batch.
void RunBatched(benchmark::State& state, const char* query) {
  Database* db = Db(static_cast<int>(state.range(0)));
  excess::SessionOptions saved = *db->mutable_options();
  db->mutable_options()->batch_size = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::MustQuery(db, query));
  }
  *db->mutable_options() = saved;
  state.SetComplexityN(state.range(0));
}

// Join sweep (B14 shape): rows = {200, 800, 3200} x batch size
// {1, 64, 1024, 4096}.
void BM_BatchJoin(benchmark::State& state) { RunBatched(state, kJoin); }
BENCHMARK(BM_BatchJoin)
    ->ArgsProduct({{200, 800, 3200}, {1, 64, 1024, 4096}})
    ->Complexity();

// Aggregate sweep over the same data and batch sizes.
void BM_BatchAggregate(benchmark::State& state) {
  RunBatched(state, kAggregate);
}
BENCHMARK(BM_BatchAggregate)
    ->ArgsProduct({{200, 800, 3200}, {1, 64, 1024, 4096}})
    ->Complexity();

}  // namespace
}  // namespace exodus

BENCHMARK_MAIN();
