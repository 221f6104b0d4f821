// B13 — networked query-server throughput vs. admission permits
// (ServerOptions::workers). Expected shape: eight blocking client
// connections drive read-only retrieves; each connection thread
// executes its own requests, at most `workers` at once, so throughput
// grows with workers until the scan-bound queries saturate the cores. The acceptance bar is >= 2x queries/sec
// at 4 workers over 1 worker. The mixed variant (1 in 16 statements a
// mutation taking the database lock exclusively) shows the
// reader/writer lock keeping read scaling mostly intact.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "server/client.h"
#include "server/server.h"

namespace exodus {
namespace {

constexpr int kRows = 1024;
constexpr int kClients = 8;
constexpr int kQueriesPerClientPerIter = 8;

// A scan-bound selective retrieve: heavy enough that execution (not
// socket round-trips) dominates, so pool size is the limiting factor.
constexpr char kReadQuery[] =
    "retrieve (E.name, E.salary) from E in Employees "
    "where E.age > 30 and E.salary > 80.0";

std::unique_ptr<Database> MakeDb() {
  auto db = std::make_unique<Database>();
  bench::MustExecute(db.get(), R"(
    define type Employee (name: char[25], age: int4, salary: float8)
    create Employees : {Employee}
  )");
  for (int i = 0; i < kRows; ++i) {
    bench::MustExecute(db.get(),
                       "append to Employees (name = \"e" +
                           std::to_string(i) + "\", age = " +
                           std::to_string(20 + i % 50) + ", salary = " +
                           std::to_string(10 + i % 90) + ".0)");
  }
  return db;
}

/// Eight persistent client connections issue `kReadQuery` (plus an
/// occasional append when `mutation_every` > 0); one benchmark
/// iteration is kClients x kQueriesPerClientPerIter statements.
void RunServerBench(benchmark::State& state, int mutation_every) {
  const int workers = static_cast<int>(state.range(0));
  auto db = MakeDb();
  server::ServerOptions options;
  options.port = 0;
  options.workers = static_cast<size_t>(workers);
  server::Server srv(db.get(), options);
  auto st = srv.Start();
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }

  std::vector<std::unique_ptr<server::Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    auto c = server::Client::Connect("127.0.0.1", srv.port());
    if (!c.ok()) {
      state.SkipWithError(c.status().ToString().c_str());
      srv.Stop();
      return;
    }
    clients.push_back(std::move(*c));
  }

  std::atomic<int> errors{0};
  int64_t statements = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (int q = 0; q < kQueriesPerClientPerIter; ++q) {
          if (mutation_every > 0 &&
              (c * kQueriesPerClientPerIter + q) % mutation_every == 0) {
            auto r = clients[c]->Query(
                "append to Employees (name = \"x\", age = 30, "
                "salary = 50.0)");
            if (!r.ok()) ++errors;
          } else {
            auto r = clients[c]->Query(kReadQuery);
            if (!r.ok() || r->rows.empty()) ++errors;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    statements += kClients * kQueriesPerClientPerIter;
  }
  if (errors.load() > 0) state.SkipWithError("query failures");
  state.SetItemsProcessed(statements);
  state.counters["workers"] = workers;
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(statements),
                         benchmark::Counter::kIsRate);
  clients.clear();
  srv.Stop();
}

void BM_ServerReadThroughput(benchmark::State& state) {
  RunServerBench(state, /*mutation_every=*/0);
}
BENCHMARK(BM_ServerReadThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_ServerMixedThroughput(benchmark::State& state) {
  RunServerBench(state, /*mutation_every=*/16);
}
BENCHMARK(BM_ServerMixedThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// B17 — read latency under a sustained writer, MVCC vs the legacy
// exclusive lock. A background connection runs long full-scan
// replaces over a large Ledger extent (several ms each) while one
// reader times cheap indexed point lookups (~25 us) against a small
// separate Accounts extent. Under the `locked` oracle every replace
// holds the database exclusively, so a read arriving mid-statement
// waits out the whole scan and read p99 ≈ the write duration; under
// `snapshot` isolation (the default) the writer holds only the Ledger
// latch, readers run lock-free against pinned epochs, and the tail
// shrinks to scheduler preemption (on a single-CPU host the reader
// still has to displace the scanning writer from the core — with more
// cores it would overlap entirely). The per-query p50/p99 land in the
// JSON counters `read_p50_us` / `read_p99_us`.
constexpr int kLedgerRows = 65536;
constexpr int kAccountRows = 1024;

void RunReadLatencyUnderWriter(benchmark::State& state,
                               const char* isolation) {
  // Bulk-load in locked mode: in-place appends, no per-statement
  // container clone. The isolation under test is set afterwards, so
  // the server's per-connection sessions pick it up from the
  // environment at connect time.
  ::setenv("EXODUS_ISOLATION", "locked", 1);
  auto db = std::make_unique<Database>();
  bench::MustExecute(db.get(), R"(
    define type LedgerRow (name: char[25], age: int4, salary: float8)
    create Ledger : {LedgerRow}
    create Accounts : {LedgerRow}
  )");
  for (int i = 0; i < kLedgerRows; ++i) {
    bench::MustExecute(db.get(),
                       "append to Ledger (name = \"e" + std::to_string(i) +
                           "\", age = " + std::to_string(20 + i % 50) +
                           ", salary = " + std::to_string(10 + i % 90) +
                           ".0)");
  }
  for (int i = 0; i < kAccountRows; ++i) {
    bench::MustExecute(db.get(),
                       "append to Accounts (name = \"a" + std::to_string(i) +
                           "\", age = " + std::to_string(20 + i % 50) +
                           ", salary = " + std::to_string(10 + i % 90) +
                           ".0)");
  }
  bench::MustExecute(
      db.get(), "create index AcctNameIdx on Accounts (name) using hash");
  ::setenv("EXODUS_ISOLATION", isolation, 1);
  server::ServerOptions options;
  options.port = 0;
  options.workers = 4;
  server::Server srv(db.get(), options);
  auto st = srv.Start();
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    ::unsetenv("EXODUS_ISOLATION");
    return;
  }

  auto writer = server::Client::Connect("127.0.0.1", srv.port());
  auto reader = server::Client::Connect("127.0.0.1", srv.port());
  if (!writer.ok() || !reader.ok()) {
    state.SkipWithError("connect failed");
    srv.Stop();
    ::unsetenv("EXODUS_ISOLATION");
    return;
  }

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread writer_thread([&] {
    int gen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // ~1300 rows per statement, found by full 65k-row scan (age is
      // unindexed) — a deliberately long write. Under the locked
      // oracle it holds the database exclusively for the whole scan;
      // under MVCC it holds only the Ledger latch, which the reader
      // never touches.
      auto r = (*writer)->Query(
          "replace E (salary = " + std::to_string(81 + (gen % 15)) +
          ".0) from E in Ledger where E.age = " +
          std::to_string(20 + (gen % 50)) + " and E.salary > 0.0");
      ++gen;
      if (!r.ok()) ++errors;
      // Pace the writer below 100% duty: a fully CPU-saturating
      // writer makes every reader tail reflect run-queue wait in both
      // modes, hiding what the lock itself costs. The 1 ms gap also
      // sizes the delayed-read fraction: the serial reader completes
      // ~40 fast reads per gap, so the one read that lands mid-write
      // sits just above the 99th percentile cutoff.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<double> lat_us;
  int64_t reads = 0;
  for (auto _ : state) {
    for (int q = 0; q < kQueriesPerClientPerIter; ++q) {
      // An indexed point lookup: cheap enough that any queueing behind
      // the writer dominates its latency.
      auto t0 = std::chrono::steady_clock::now();
      auto r = (*reader)->Query(
          "retrieve (E.name, E.salary) from E in Accounts "
          "where E.name = \"a" +
          std::to_string((reads * 37) % kAccountRows) + "\"");
      auto t1 = std::chrono::steady_clock::now();
      if (!r.ok() || r->rows.empty()) ++errors;
      lat_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      ++reads;
      // Pace the reads. A back-to-back reader self-throttles during
      // write statements (each blocked read absorbs the whole window,
      // classic coordinated omission) and its continuous shared-lock
      // stream starves the locked writer outright; a paced reader
      // samples the latency distribution the way an independent
      // client actually experiences it.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  stop.store(true, std::memory_order_release);
  writer_thread.join();
  if (errors.load() > 0) state.SkipWithError("query failures");

  std::sort(lat_us.begin(), lat_us.end());
  auto pct = [&](double p) {
    if (lat_us.empty()) return 0.0;
    size_t i = static_cast<size_t>(p * (lat_us.size() - 1));
    return lat_us[i];
  };
  state.SetItemsProcessed(reads);
  state.counters["read_p50_us"] = pct(0.50);
  state.counters["read_p99_us"] = pct(0.99);
  state.counters["read_p999_us"] = pct(0.999);
  state.counters["read_max_us"] = lat_us.empty() ? 0.0 : lat_us.back();
  reader->reset();
  writer->reset();
  srv.Stop();
  ::unsetenv("EXODUS_ISOLATION");
}

void BM_ServerReadLatencyUnderWriter_Snapshot(benchmark::State& state) {
  RunReadLatencyUnderWriter(state, "snapshot");
}
BENCHMARK(BM_ServerReadLatencyUnderWriter_Snapshot)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_ServerReadLatencyUnderWriter_Locked(benchmark::State& state) {
  RunReadLatencyUnderWriter(state, "locked");
}
BENCHMARK(BM_ServerReadLatencyUnderWriter_Locked)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace exodus

BENCHMARK_MAIN();
