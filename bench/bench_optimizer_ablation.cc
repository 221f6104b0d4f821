// B11 — Optimizer ablation: contribution of each rule family.
// Expected shape: predicate pushdown dominates on multi-variable
// queries (it prunes whole inner loops); join reordering matters when
// extent sizes are skewed; index selection dominates selective
// single-variable predicates; hash joins replace the quadratic nested
// loop whenever an equi-join has no usable index (the *NoHash variants
// measure the pre-hash nested-loop baseline). Turning each off
// individually shows its marginal value; everything off approximates a
// naive interpreter.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_common.h"

namespace exodus {
namespace {

constexpr int kEmployees = 1500;
constexpr int kDepartments = 30;

Database* Db() {
  static std::unique_ptr<Database> db = [] {
    auto d = std::make_unique<Database>();
    bench::MustExecute(d.get(), R"(
      define type Department (id: int4, floor: int4)
      define type Employee (name: char[25], salary: float8,
                            dept_id: int4, dept: ref Department)
      create Departments : {Department}
      create Employees : {Employee}
    )");
    for (int i = 0; i < kDepartments; ++i) {
      bench::MustExecute(d.get(),
                         "append to Departments (id = " + std::to_string(i) +
                             ", floor = " + std::to_string(i % 5) + ")");
    }
    for (int i = 0; i < kEmployees; ++i) {
      bench::MustExecute(
          d.get(), "append to Employees (name = \"e" + std::to_string(i) +
                       "\", salary = " + std::to_string(i % 500) +
                       ".0, dept_id = " + std::to_string(i % kDepartments) +
                       ", dept = D) from D in Departments where D.id = " +
                       std::to_string(i % kDepartments));
    }
    bench::MustExecute(d.get(),
                       "create index SalIdx on Employees (salary) using "
                       "btree");
    return d;
  }();
  return db.get();
}

// The workload: a join plus a selective indexed predicate.
const char* kJoinQuery =
    "retrieve (E.name) from E in Employees, D in Departments "
    "where E.dept_id = D.id and D.floor = 2 and E.salary < 25.0";
const char* kSelectiveQuery =
    "retrieve (E.name) from E in Employees where E.salary = 123.0";

void RunConfig(benchmark::State& state, bool pushdown, bool reorder,
               bool indexes, const char* query, bool hash_join = true) {
  Database* db = Db();
  excess::SessionOptions saved = *db->mutable_options();
  db->mutable_options()->predicate_pushdown = pushdown;
  db->mutable_options()->join_reordering = reorder;
  db->mutable_options()->use_indexes = indexes;
  db->mutable_options()->hash_join = hash_join;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::MustQuery(db, query));
  }
  *db->mutable_options() = saved;
}

void BM_Join_AllRulesOn(benchmark::State& state) {
  RunConfig(state, true, true, true, kJoinQuery);
}
void BM_Join_NoPushdown(benchmark::State& state) {
  RunConfig(state, false, true, true, kJoinQuery);
}
void BM_Join_NoReordering(benchmark::State& state) {
  RunConfig(state, true, false, true, kJoinQuery);
}
void BM_Join_NoIndexes(benchmark::State& state) {
  RunConfig(state, true, true, false, kJoinQuery);
}
void BM_Join_AllRulesOff(benchmark::State& state) {
  RunConfig(state, false, false, false, kJoinQuery, false);
}
// Isolates pushdown: no index access hides it otherwise (the index
// already consumes the selective conjunct).
void BM_Join_NoIndexesNoPushdown(benchmark::State& state) {
  RunConfig(state, false, true, false, kJoinQuery);
}
// Hash-join ablation: the same unindexed configs with hash joins off
// fall back to the nested loop — the pre-hash-join baseline.
void BM_Join_NoHash(benchmark::State& state) {
  RunConfig(state, true, true, true, kJoinQuery, false);
}
void BM_Join_NoIndexesNoHash(benchmark::State& state) {
  RunConfig(state, true, true, false, kJoinQuery, false);
}
void BM_Join_NoIndexesNoPushdownNoHash(benchmark::State& state) {
  RunConfig(state, false, true, false, kJoinQuery, false);
}
BENCHMARK(BM_Join_AllRulesOn);
BENCHMARK(BM_Join_NoPushdown);
BENCHMARK(BM_Join_NoReordering);
BENCHMARK(BM_Join_NoIndexes);
BENCHMARK(BM_Join_AllRulesOff);
BENCHMARK(BM_Join_NoIndexesNoPushdown);
BENCHMARK(BM_Join_NoHash);
BENCHMARK(BM_Join_NoIndexesNoHash);
BENCHMARK(BM_Join_NoIndexesNoPushdownNoHash);

void BM_Selective_AllRulesOn(benchmark::State& state) {
  RunConfig(state, true, true, true, kSelectiveQuery);
}
void BM_Selective_NoIndexes(benchmark::State& state) {
  RunConfig(state, true, true, false, kSelectiveQuery);
}
BENCHMARK(BM_Selective_AllRulesOn);
BENCHMARK(BM_Selective_NoIndexes);

}  // namespace
}  // namespace exodus

BENCHMARK_MAIN();
