// Embedded multi-threaded use of one Database: concurrent sessions
// issuing mixed reads with occasional DDL and mutations. Read-only
// retrieves run under the shared database lock, everything else
// exclusively; this test asserts no torn results, monotonic counts
// under a single writer, and plan-cache invalidation on schema
// changes. Run under TSan in CI (EXODUS_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "excess/database.h"
#include "excess/session.h"
#include "object/value.h"

namespace exodus {
namespace {

using object::Value;

/// Pins EXODUS_ISOLATION=snapshot for one test. The MVCC-specific
/// tests below assert snapshot-write-path counters, so the
/// locked-oracle env override used for differential suite runs must
/// not leak into them. Restores the prior value on destruction.
class ScopedSnapshotIsolation {
 public:
  ScopedSnapshotIsolation() {
    const char* old = std::getenv("EXODUS_ISOLATION");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    ::setenv("EXODUS_ISOLATION", "snapshot", 1);
  }
  ~ScopedSnapshotIsolation() {
    if (had_) {
      ::setenv("EXODUS_ISOLATION", saved_.c_str(), 1);
    } else {
      ::unsetenv("EXODUS_ISOLATION");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = db_.Execute(R"(
      define type Employee (name: char[25], age: int4, salary: float8)
      create Employees : {Employee}
      append to Employees (name = "ann", age = 25, salary = 10.0)
      append to Employees (name = "bob", age = 35, salary = 20.0)
      append to Employees (name = "cindy", age = 45, salary = 30.0)
    )");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  Database db_;
};

TEST_F(ConcurrencyTest, ParallelReadersSeeConsistentResults) {
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto session = db_.CreateSession();
      if (!session.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kIters; ++i) {
        auto r = (*session)->ExecuteAll(
            "retrieve (E.name, E.salary) from E in Employees "
            "where E.age > 30");
        if (!r.ok() || r->size() != 1 || (*r)[0].rows.size() != 2) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// One writer appends; seven readers watch the count. Under the
// database reader/writer lock each count must be a value the writer
// actually produced (3..3+kAppends) and monotonically non-decreasing
// per reader — a torn read would break both. Readers run a bounded
// number of paced iterations: an unbounded busy-loop of shared-lock
// acquisitions can starve the writer on reader-preferring rwlocks
// (glibc's default), which under TSan turns into minutes of stall.
TEST_F(ConcurrencyTest, SingleWriterMonotonicCounts) {
  constexpr int kReaders = 7;
  constexpr int kReads = 40;
  constexpr int kAppends = 150;
  std::atomic<int> failures{0};
  std::atomic<bool> writer_done{false};

  std::thread writer([&] {
    auto session = db_.CreateSession();
    if (!session.ok()) {
      ++failures;
      writer_done = true;
      return;
    }
    for (int i = 0; i < kAppends; ++i) {
      auto r = (*session)->ExecuteAll(
          "append to Employees (name = \"w" + std::to_string(i) +
          "\", age = 30, salary = 1.0)");
      if (!r.ok()) ++failures;
    }
    writer_done = true;
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      auto session = db_.CreateSession();
      if (!session.ok()) {
        ++failures;
        return;
      }
      long long last = 0;
      for (int i = 0; i < kReads && !writer_done.load(); ++i) {
        auto r = (*session)->ExecuteAll("retrieve (count(Employees))");
        if (!r.ok() || (*r)[0].rows.empty()) {
          ++failures;
          continue;
        }
        long long n = std::atoll(
            db_.FormatValue((*r)[0].rows[0][0]).c_str());
        if (n < last || n < 3 || n > 3 + kAppends) ++failures;
        last = n;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto final_count = db_.Execute("retrieve (count(Employees))");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(db_.FormatValue(final_count->rows[0][0]),
            std::to_string(3 + kAppends));
}

// Eight threads, mixed workload: prepared reads, ad-hoc reads, and
// occasional DDL (new types and sets appearing mid-flight). Nothing
// may crash or return a malformed result, and the DDL must invalidate
// cached plans (observable in CacheStats).
TEST_F(ConcurrencyTest, MixedReadsWithOccasionalDdl) {
  constexpr int kThreads = 8;
  constexpr int kIters = 120;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session_or = db_.CreateSession();
      if (!session_or.ok()) {
        ++failures;
        return;
      }
      auto& session = *session_or;
      auto stmt = session->Prepare(
          "retrieve (E.name) from E in Employees where E.age > $1");
      if (!stmt.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kIters; ++i) {
        if (t == 0 && i % 20 == 10) {
          // The DDL thread: each definition bumps the schema
          // generation and invalidates every cached plan.
          std::string n = std::to_string(i);
          auto r = session->ExecuteAll(
              "define type Gadget" + n + " (id: int4)\n" +
              "create Gadgets" + n + " : {Gadget" + n + "}");
          if (!r.ok()) ++failures;
          continue;
        }
        if (i % 3 == 0) {
          auto st = (*stmt)->Bind(1, Value::Int(20 + (i % 30)));
          if (!st.ok()) {
            ++failures;
            continue;
          }
          auto r = (*stmt)->Execute();
          if (!r.ok()) ++failures;
        } else {
          auto r = session->ExecuteAll(
              "retrieve (E.name, E.age) from E in Employees");
          if (!r.ok() || (*r)[0].rows.size() != 3) ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto stats = db_.CacheStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.invalidations, 0u) << "DDL must invalidate cached plans";

  // The DDL actually landed and the new sets are queryable.
  auto r = db_.Execute("retrieve (count(Gadgets10))");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

// Re-prepared statements stay correct across a schema change made by
// another session (stale plan detected via the generation stamp).
TEST_F(ConcurrencyTest, PreparedStatementsSurviveConcurrentDdl) {
  auto session_or = db_.CreateSession();
  ASSERT_TRUE(session_or.ok());
  auto stmt = (*session_or)->Prepare(
      "retrieve (E.name) from E in Employees where E.age > $1");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE((*stmt)->Bind(1, Value::Int(30)).ok());
  auto before = (*stmt)->Execute();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows.size(), 2u);

  std::thread ddl([&] {
    auto s = db_.CreateSession();
    ASSERT_TRUE(s.ok());
    auto r = (*s)->ExecuteAll(
        "define type Widget (id: int4)\ncreate Widgets : {Widget}");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  ddl.join();

  auto after = (*stmt)->Execute();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows.size(), 2u);
  EXPECT_GT(db_.CacheStats().invalidations, 0u);
}

// A writer mutates every row of the extent in single statements while
// readers continuously scan it. Each multi-object update commits
// atomically at one epoch, so a snapshot reader must see all rows at
// the same generation — a mix of old and new salaries in one result is
// a torn read. The writer takes only the Employees extent latch, never
// the exclusive lock, so readers are lock-free the whole time:
// snapshot_writes must account for every mutation and locked_writes
// must stay zero.
TEST_F(ConcurrencyTest, ReaderUnderSustainedWriterSeesConsistentSnapshots) {
  ScopedSnapshotIsolation iso;
  constexpr int kReaders = 4;
  constexpr int kRounds = 120;
  std::atomic<int> failures{0};
  std::atomic<bool> writer_done{false};

  // The fixture seeds three different salaries; equalize them first so
  // a reader that runs before the writer's first replace commits also
  // sees one generation, and every-row-equal stays a strict check.
  auto seed = db_.Execute("replace E (salary = 0.0) from E in Employees");
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();

  const uint64_t snap_before =
      db_.concurrency()->snapshot_writes.load(std::memory_order_relaxed);
  const uint64_t locked_before =
      db_.concurrency()->locked_writes.load(std::memory_order_relaxed);

  std::thread writer([&] {
    auto session = db_.CreateSession();
    if (!session.ok()) {
      ++failures;
      writer_done = true;
      return;
    }
    for (int i = 1; i <= kRounds; ++i) {
      // One statement rewrites all rows: a torn snapshot would show a
      // mix of generations.
      auto r = (*session)->ExecuteAll(
          "replace E (salary = " + std::to_string(i) +
          ".0) from E in Employees");
      if (!r.ok()) ++failures;
    }
    writer_done = true;
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      auto session = db_.CreateSession();
      if (!session.ok()) {
        ++failures;
        return;
      }
      while (!writer_done.load()) {
        auto r = (*session)->ExecuteAll(
            "retrieve (E.salary) from E in Employees");
        if (!r.ok() || (*r)[0].rows.size() != 3) {
          ++failures;
          continue;
        }
        std::string first = db_.FormatValue((*r)[0].rows[0][0]);
        for (const auto& row : (*r)[0].rows) {
          if (db_.FormatValue(row[0]) != first) ++failures;
        }
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Every replace went down the latched snapshot-write path.
  EXPECT_GE(db_.concurrency()->snapshot_writes.load(std::memory_order_relaxed),
            snap_before + kRounds);
  EXPECT_EQ(db_.concurrency()->locked_writes.load(std::memory_order_relaxed),
            locked_before);

  auto final_r = db_.Execute("retrieve (E.salary) from E in Employees");
  ASSERT_TRUE(final_r.ok());
  for (const auto& row : final_r->rows) {
    EXPECT_EQ(db_.FormatValue(row[0]), std::to_string(kRounds) + ".0");
  }
}

// Version GC: a pinned snapshot holds superseded versions alive;
// releasing the pin lets the sweep reclaim them. The background sweep
// is disabled (EXODUS_MVCC_GC_MS=0) so the test drives RunGcOnce
// deterministically.
TEST(MvccGcTest, SnapshotsPinVersionsAndReleaseThem) {
  ScopedSnapshotIsolation iso;
  ::setenv("EXODUS_MVCC_GC_MS", "0", 1);
  {
    Database db;
    auto r = db.Execute(R"(
      define type Employee (name: char[25], age: int4, salary: float8)
      create Employees : {Employee}
      append to Employees (name = "ann", age = 25, salary = 10.0)
      append to Employees (name = "bob", age = 35, salary = 20.0)
    )");
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    excess::ConcurrencyController* cc = db.concurrency();
    const size_t baseline = db.heap()->version_count();

    // Pin a snapshot, then supersede every row several times.
    const uint64_t pinned = cc->Pin();
    for (int i = 0; i < 5; ++i) {
      auto w = db.Execute("replace E (salary = " + std::to_string(100 + i) +
                          ".0) from E in Employees");
      ASSERT_TRUE(w.ok()) << w.status().ToString();
    }
    const size_t with_history = db.heap()->version_count();
    EXPECT_GT(with_history, baseline);

    // The pin holds the pre-update versions: GC may trim history newer
    // than the pin but must keep each row's version visible at `pinned`.
    cc->RunGcOnce();
    EXPECT_GT(db.heap()->version_count(), baseline);

    // Released, the whole tail is reclaimable.
    cc->Unpin(pinned);
    const uint64_t reclaimed_before = cc->gc_reclaimed_total();
    cc->RunGcOnce();
    EXPECT_GT(cc->gc_reclaimed_total(), reclaimed_before);
    EXPECT_EQ(db.heap()->version_count(), baseline);

    // History trimming never disturbs the live state.
    auto after = db.Execute(
        "retrieve (E.salary) from E in Employees where E.name = \"ann\"");
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after->rows.size(), 1u);
    EXPECT_EQ(db.FormatValue(after->rows[0][0]), "104.0");
  }
  ::unsetenv("EXODUS_MVCC_GC_MS");
}

}  // namespace
}  // namespace exodus
