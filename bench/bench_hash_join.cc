// B14 — Hash equi-joins: build-once/probe-per-row vs the nested loop
// and vs an index-driven join. Expected shape: the nested loop grows as
// n*m and the hash join as n+m, so the gap widens roughly by the
// build-side factor as extents grow; an index equality scan still wins
// on selective point probes (it touches only matching members, where
// the hash join must still enumerate the probe side). Hash aggregation
// is measured over the same data: grouped aggregates are a single pass
// regardless of group count.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "bench_common.h"

namespace exodus {
namespace {

// One database per scale: n employees joining n/10 departments.
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

// A selective point probe: one department, its employees.
const char* kPointProbe =
    "retrieve (E.name) from E in Employees, D in Departments "
    "where D.id = E.dept_id and E.salary = 123.0";

void RunJoin(benchmark::State& state, const char* query, bool hash_join,
             bool indexed) {
  Database* db = Db(static_cast<int>(state.range(0)));
  excess::SessionOptions saved = *db->mutable_options();
  db->mutable_options()->hash_join = hash_join;
  db->mutable_options()->use_indexes = indexed;
  if (indexed) {
    bench::MustExecute(db, "create index DeptIdIdx on Departments (id) "
                           "using hash");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::MustQuery(db, query));
  }
  if (indexed) {
    bench::MustExecute(db, "drop index DeptIdIdx");
  }
  *db->mutable_options() = saved;
  state.SetComplexityN(state.range(0));
}

void BM_EquiJoin_Hash(benchmark::State& state) {
  RunJoin(state, kJoin, true, false);
}
void BM_EquiJoin_NestedLoop(benchmark::State& state) {
  RunJoin(state, kJoin, false, false);
}
void BM_EquiJoin_Index(benchmark::State& state) {
  RunJoin(state, kJoin, false, true);
}
BENCHMARK(BM_EquiJoin_Hash)->Arg(200)->Arg(800)->Arg(3200)->Complexity();
BENCHMARK(BM_EquiJoin_NestedLoop)->Arg(200)->Arg(800)->Arg(3200)->Complexity();
BENCHMARK(BM_EquiJoin_Index)->Arg(200)->Arg(800)->Arg(3200)->Complexity();

// Selective point probes: few surviving probe rows. The hash join still
// pays the full build; an index on the *probed* attribute lets the
// optimizer skip both the build and the scan.
void BM_PointProbe_Hash(benchmark::State& state) {
  RunJoin(state, kPointProbe, true, false);
}
void BM_PointProbe_Index(benchmark::State& state) {
  Database* db = Db(static_cast<int>(state.range(0)));
  excess::SessionOptions saved = *db->mutable_options();
  bench::MustExecute(db, "create index SalIdx on Employees (salary) "
                         "using btree");
  bench::MustExecute(db, "create index DeptIdIdx on Departments (id) "
                         "using hash");
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::MustQuery(db, kPointProbe));
  }
  bench::MustExecute(db, "drop index SalIdx");
  bench::MustExecute(db, "drop index DeptIdIdx");
  *db->mutable_options() = saved;
}
BENCHMARK(BM_PointProbe_Hash)->Arg(3200);
BENCHMARK(BM_PointProbe_Index)->Arg(3200);

// Hash aggregation: one pass over n rows into n/10 groups, with a
// unique-qualified aggregate tracking distinct values per group.
void BM_HashAggregate(benchmark::State& state) {
  Database* db = Db(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::MustQuery(
        db,
        "retrieve unique (E.dept_id, s = sum(E.salary over E.dept_id), "
        "u = count(unique E.salary over E.dept_id)) from E in Employees"));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HashAggregate)->Arg(200)->Arg(800)->Arg(3200)->Complexity();

}  // namespace
}  // namespace exodus

BENCHMARK_MAIN();
