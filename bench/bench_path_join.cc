// B2 — Implicit join through a reference path vs. an explicit value
// join, extent-size sweep.
// Expected shape: the reference path (`E.dept.floor`) is O(|E|): one
// dereference per employee. The value join (`E.dept_id = D.id`) now
// plans as a hash join — also O(|E| + |D|) — so the historical gap
// against the nested loop (O(|E| * |D|), kept measurable via the
// NestedLoop variant with hash joins disabled) collapses to the
// constant-factor cost of hashing vs dereferencing.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_common.h"

namespace exodus {
namespace {

std::unique_ptr<Database> BuildDb(int employees, int departments) {
  auto db = std::make_unique<Database>();
  bench::MustExecute(db.get(), R"(
    define type Department (id: int4, name: char[20], floor: int4)
    define type Employee (name: char[25], salary: float8,
                          dept: ref Department, dept_id: int4)
    create Departments : {Department}
    create Employees : {Employee}
  )");
  for (int d = 0; d < departments; ++d) {
    bench::MustExecute(db.get(),
                       "append to Departments (id = " + std::to_string(d) +
                           ", name = \"d" + std::to_string(d) +
                           "\", floor = " + std::to_string(d % 10) + ")");
  }
  for (int e = 0; e < employees; ++e) {
    int d = e % departments;
    bench::MustExecute(
        db.get(), "append to Employees (name = \"e" + std::to_string(e) +
                      "\", salary = " + std::to_string(e % 100) +
                      ".0, dept_id = " + std::to_string(d) +
                      ", dept = D) from D in Departments where D.id = " +
                      std::to_string(d));
  }
  return db;
}

struct Shared {
  std::unique_ptr<Database> db;
  int employees = 0;
  int departments = 0;
};
Shared g_shared;

Database* DbFor(int employees, int departments) {
  if (g_shared.employees != employees ||
      g_shared.departments != departments) {
    g_shared.db = BuildDb(employees, departments);
    g_shared.employees = employees;
    g_shared.departments = departments;
  }
  return g_shared.db.get();
}

void BM_ImplicitJoinViaRefPath(benchmark::State& state) {
  Database* db = DbFor(static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(1)));
  size_t rows = 0;
  for (auto _ : state) {
    rows = bench::MustQuery(
        db, "retrieve (E.name) from E in Employees where E.dept.floor = 3");
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_ExplicitValueJoin(benchmark::State& state) {
  Database* db = DbFor(static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(1)));
  size_t rows = 0;
  for (auto _ : state) {
    rows = bench::MustQuery(
        db,
        "retrieve (E.name) from E in Employees, D in Departments "
        "where E.dept_id = D.id and D.floor = 3");
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_ExplicitValueJoinNestedLoop(benchmark::State& state) {
  Database* db = DbFor(static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(1)));
  excess::SessionOptions saved = *db->mutable_options();
  db->mutable_options()->hash_join = false;
  size_t rows = 0;
  for (auto _ : state) {
    rows = bench::MustQuery(
        db,
        "retrieve (E.name) from E in Employees, D in Departments "
        "where E.dept_id = D.id and D.floor = 3");
    benchmark::DoNotOptimize(rows);
  }
  *db->mutable_options() = saved;
  state.counters["rows"] = static_cast<double>(rows);
}

// Sweep: employees x departments.
BENCHMARK(BM_ImplicitJoinViaRefPath)
    ->Args({500, 10})
    ->Args({500, 50})
    ->Args({500, 200})
    ->Args({2000, 50});
BENCHMARK(BM_ExplicitValueJoin)
    ->Args({500, 10})
    ->Args({500, 50})
    ->Args({500, 200})
    ->Args({2000, 50});
BENCHMARK(BM_ExplicitValueJoinNestedLoop)
    ->Args({500, 10})
    ->Args({500, 50})
    ->Args({500, 200})
    ->Args({2000, 50});

}  // namespace
}  // namespace exodus

BENCHMARK_MAIN();
