// B18 — commit throughput vs durability mode (sync | group | async).
// Expected shape: `sync` pays one fdatasync per commit, so its
// throughput is pinned to the disk's sync rate regardless of writer
// count. `group` stages commits under a cheap mutex and lets the
// flusher make a whole batch durable with one write+fdatasync; with
// concurrent writers the batches fatten and commits/sec scales well
// past the sync line (the acceptance bar is >= 3x sync at 4 writers,
// with the JSON counter `fsyncs_per_commit` << 1, i.e. at most one
// fsync per flush batch). `async` shows the no-durability ceiling:
// staging cost only, records ride along with whatever flush happens
// next.
//
// The measured object is the WalWriter itself — the same group-commit
// path every session's `append`/`replace`/`delete` takes through
// Database::JournalStmt — so commits/sec here is statement
// commits/sec with execution cost stripped away.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "wal/wal_format.h"
#include "wal/wal_writer.h"

namespace exodus::wal {
namespace {

constexpr int kCommitsPerThreadPerIter = 64;

// A payload the size of a typical journaled statement.
const std::string& Payload() {
  static const std::string payload =
      "append to Employees (name = \"worker\", age = 30, salary = 50.0)";
  return payload;
}

std::string BenchWalPath() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") +
         "/exodus_bench_durability.log";
}

void RemoveWal(const std::string& base) {
  auto segments = ListSegments(base);
  if (segments.ok()) {
    for (const std::string& p : *segments) std::remove(p.c_str());
  }
  std::remove(base.c_str());
}

/// `writers` threads each commit kCommitsPerThreadPerIter records per
/// iteration with the given durability; one fresh WAL per benchmark
/// run. Reports commits/sec and fsyncs-per-commit from the writer's
/// own counters.
void RunCommitBench(benchmark::State& state, Durability durability) {
  const int writers = static_cast<int>(state.range(0));
  const std::string base = BenchWalPath();
  RemoveWal(base);
  auto writer = WalWriter::Open(base, 1);
  if (!writer.ok()) {
    state.SkipWithError(writer.status().ToString().c_str());
    return;
  }
  WalWriter* w = writer->get();

  std::atomic<int> errors{0};
  int64_t commits = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (int t = 0; t < writers; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kCommitsPerThreadPerIter; ++i) {
          auto lsn = w->Append(RecordType::kStatement, Payload(), durability);
          if (!lsn.ok()) ++errors;
        }
      });
    }
    for (auto& t : threads) t.join();
    commits += writers * kCommitsPerThreadPerIter;
  }
  if (errors.load() > 0) state.SkipWithError("append failures");

  // Async commits are not durable yet — flush outside the timed region
  // so the counters cover a fully durable log either way.
  auto st = w->Flush();
  if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  const WalWriter::Counters c = w->counters();
  state.SetItemsProcessed(commits);
  state.counters["writers"] = writers;
  state.counters["commits_per_sec"] = benchmark::Counter(
      static_cast<double>(commits), benchmark::Counter::kIsRate);
  state.counters["fsyncs_per_commit"] =
      commits > 0 ? static_cast<double>(c.fsyncs) / static_cast<double>(commits)
                  : 0.0;
  state.counters["records_per_batch"] =
      c.flush_batches > 0 ? static_cast<double>(c.batch_records) /
                                static_cast<double>(c.flush_batches)
                          : 0.0;
  writer->reset();
  RemoveWal(base);
}

void BM_CommitSync(benchmark::State& state) {
  RunCommitBench(state, Durability::kSync);
}
BENCHMARK(BM_CommitSync)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_CommitGroup(benchmark::State& state) {
  RunCommitBench(state, Durability::kGroup);
}
BENCHMARK(BM_CommitGroup)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_CommitAsync(benchmark::State& state) {
  RunCommitBench(state, Durability::kAsync);
}
BENCHMARK(BM_CommitAsync)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace exodus::wal

BENCHMARK_MAIN();
