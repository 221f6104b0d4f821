// Differential tests for morsel-driven intra-query parallelism: every
// query runs at exec_threads = 1 (the serial batch path — the oracle)
// and at 2 and 4 workers across boundary-straddling batch sizes;
// rendered rows must agree exactly, including row order for unsorted
// streams (morsel columns concatenate in morsel order). The serial
// result is also checked once per query against the naive reference
// evaluator (tests/reference_eval.h), which shares no pipeline code
// with either path — a bug both paths share cannot hide. Aggregate test
// data is FP-exact (multiples of 0.25 well inside double precision) so
// partial-aggregate merging cannot hide behind float tolerance. Also
// covers the `\explain analyze` parallel annotations, the
// exodus_exec_* registry series, EXODUS_EXEC_THREADS env seeding, plan
// cache fingerprinting, exec_threads validation — and a sanitizer-
// visible race test running parallel readers against concurrent DDL
// and MVCC writers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "excess/database.h"
#include "excess/session.h"
#include "excess/session_options.h"
#include "reference_eval.h"
#include "util/status.h"

namespace exodus {
namespace {

using excess::SessionOptions;
using util::StatusCode;

std::vector<std::string> Render(
    const std::vector<std::vector<object::Value>>& rows, bool sorted = true) {
  std::vector<std::string> out;
  for (const auto& row : rows) {
    std::string line;
    for (const auto& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  if (sorted) std::sort(out.begin(), out.end());
  return out;
}

class ParallelExecTest : public ::testing::Test {
 protected:
  static constexpr int kEmployees = 300;

  void SetUp() override {
    Must(R"(
      define type Department (id: int4, name: char[20], floor: int4)
      define type Employee (
        id: int4, name: char[25], salary: float8, dept_id: int4
      )
      create Departments : {Department}
      create Employees : {Employee}
      create Empty : {Employee}
    )");
    for (int d = 0; d < 7; ++d) {
      std::ostringstream q;
      q << "append to Departments (id = " << d << ", name = \"dept" << d
        << "\", floor = " << d % 3 << ")";
      Must(q.str());
    }
    std::mt19937 rng(20260809);
    const char* names[] = {"ann", "bob", "cho", "dee", "eli"};
    for (int i = 0; i < kEmployees; ++i) {
      std::ostringstream q;
      // Salaries are multiples of 0.25: double-exact sums, so serial and
      // merged parallel aggregation must agree bit for bit.
      q << "append to Employees (id = " << i << ", name = \"" << names[i % 5]
        << i << "\", salary = "
        << std::uniform_int_distribution<int>(0, 400)(rng) * 0.25
        << ", dept_id = " << std::uniform_int_distribution<int>(0, 7)(rng)
        << ")";
      Must(q.str());
    }
  }

  void Must(const std::string& q) {
    auto r = db_.Execute(q);
    ASSERT_TRUE(r.ok()) << q << "\n -> " << r.status().ToString();
  }

  // Runs `q` in a fresh session at the given worker count / batch size.
  std::vector<std::string> Rows(const std::string& q, int threads,
                                int batch_size, bool sorted = true) {
    auto session = db_.CreateSession();
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    (*session)->mutable_options()->batch_size = batch_size;
    (*session)->mutable_options()->exec_threads = threads;
    auto r = (*session)->Execute(q);
    EXPECT_TRUE(r.ok()) << q << "\n -> " << r.status().ToString();
    if (!r.ok()) return {};
    return Render(r->rows, sorted);
  }

  // The reference evaluator's rendered rows for `q`.
  std::vector<std::string> Oracle(const std::string& q, bool sorted = true) {
    reference::ReferenceEvaluator ref(&db_);
    auto rows = ref.Retrieve(q);
    EXPECT_TRUE(rows.ok()) << q << "\n -> " << rows.status().ToString();
    if (!rows.ok()) return {};
    return Render(*rows, sorted);
  }

  // Asserts 2- and 4-worker execution matches the serial (threads=1)
  // oracle at batch sizes that straddle, hit and exceed the extent:
  // 300 rows -> {7: ragged tail, 64: many morsels, 100: exact multiple,
  // 300: one morsel (serial fallback), 4096: one morsel}.
  void ExpectParity(const std::string& q, bool sorted = true) {
    EXPECT_EQ(Rows(q, 1, 64, sorted), Oracle(q, sorted))
        << q << "\n serial vs reference evaluator";
    for (int bs : {7, 64, 100, 300, 4096}) {
      std::vector<std::string> oracle = Rows(q, 1, bs, sorted);
      for (int threads : {2, 4}) {
        EXPECT_EQ(Rows(q, threads, bs, sorted), oracle)
            << q << "\n at threads=" << threads << " batch_size=" << bs;
      }
    }
  }

  Database db_;
};

TEST_F(ParallelExecTest, ScanFilterProjectParity) {
  ExpectParity("retrieve (E.id, E.name, E.salary) from E in Employees");
  ExpectParity(
      "retrieve (E.id, E.salary * 2.0) from E in Employees "
      "where E.salary >= 50.0 and E.id < 200");
  ExpectParity("retrieve (E.id) from E in Empty");
}

TEST_F(ParallelExecTest, UnsortedStreamKeepsSerialRowOrder) {
  // No sort clause: the parallel stream must still produce rows in the
  // serial scan order (order-stable morsel concatenation), so compare
  // WITHOUT sorting the rendering.
  ExpectParity("retrieve (E.id, E.name) from E in Employees",
               /*sorted=*/false);
  ExpectParity(
      "retrieve (E.id) from E in Employees where E.dept_id = 3",
      /*sorted=*/false);
}

TEST_F(ParallelExecTest, JoinParity) {
  ExpectParity(
      "retrieve (E.name, D.name) from E in Employees, D in Departments "
      "where D.id = E.dept_id",
      /*sorted=*/false);
  ExpectParity(
      "retrieve (E.name, D.floor) from E in Employees, D in Departments "
      "where D.id = E.dept_id and D.floor > 0 and E.salary < 60.0");
  // A 300-element build side under a many-morsel driving scan: at batch
  // sizes up to 150 the table is hashed in chunks on several workers
  // and merged; its chains must still enumerate in build order.
  ExpectParity(
      "retrieve (A.id, B.id) from A in Employees, B in Employees "
      "where B.dept_id = A.id",
      /*sorted=*/false);
}

TEST_F(ParallelExecTest, AggregateParity) {
  ExpectParity("retrieve (count(E), sum(E.salary)) from E in Employees");
  ExpectParity(
      "retrieve unique (E.dept_id, count(E over E.dept_id), "
      "sum(E.salary over E.dept_id), avg(E.salary over E.dept_id)) "
      "from E in Employees");
  ExpectParity(
      "retrieve unique (E.dept_id, min(E.salary over E.dept_id), "
      "max(E.salary over E.dept_id)) from E in Employees");
  // unique-qualified aggregates: merge must re-accumulate first-seen
  // values in serial row order.
  ExpectParity(
      "retrieve (count(unique E.dept_id), sum(unique E.salary)) "
      "from E in Employees");
}

TEST_F(ParallelExecTest, SortAndUniqueParity) {
  ExpectParity(
      "retrieve (E.salary, E.name) from E in Employees "
      "sort by E.salary, E.name",
      /*sorted=*/false);
  ExpectParity("retrieve unique (E.dept_id) from E in Employees");
}

TEST_F(ParallelExecTest, RandomQueryParity) {
  // 25 random queries over joins, grouped/ungrouped aggregates and
  // unique, each checked at threads {1,2,4} x boundary batch sizes.
  std::mt19937 rng(1988);
  auto num = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 25; ++trial) {
    std::ostringstream q;
    const int shape = num(0, 3);
    const char* ops[] = {"<", "<=", ">", ">=", "="};
    std::string pred;
    {
      std::ostringstream p;
      const int nclauses = num(1, 3);
      for (int c = 0; c < nclauses; ++c) {
        if (c > 0) p << (num(0, 1) ? " and " : " or ");
        const int col = num(0, 2);
        p << (col == 0 ? "E.id" : col == 1 ? "E.dept_id" : "E.salary") << " "
          << ops[num(0, 4)] << " " << num(0, 250);
      }
      pred = p.str();
    }
    switch (shape) {
      case 0:  // scan + filter
        q << "retrieve (E.id, E.name) from E in Employees where " << pred;
        break;
      case 1:  // join + filter
        q << "retrieve (E.id, D.name) from E in Employees, "
          << "D in Departments where D.id = E.dept_id and (" << pred << ")";
        break;
      case 2:  // grouped aggregates
        q << "retrieve unique (E.dept_id, count(E over E.dept_id), "
          << "sum(E.salary over E.dept_id)) from E in Employees where "
          << pred;
        break;
      default:  // ungrouped aggregates / unique
        q << "retrieve (count(E), sum(unique E.salary), min(E.id)) "
          << "from E in Employees where " << pred;
        break;
    }
    ExpectParity(q.str());
  }
}

TEST_F(ParallelExecTest, ExplainAnalyzeParallelAnnotations) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  (*session)->mutable_options()->batch_size = 32;
  (*session)->mutable_options()->exec_threads = 4;
  auto text = (*session)->Explain(
      "retrieve (E.name, D.name) from E in Employees, D in Departments "
      "where D.id = E.dept_id",
      /*analyze=*/true);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // 300 rows at 32/batch = 10 morsels; 1..4 workers claimed them.
  EXPECT_NE(text->find("(parallel: morsels=10 workers="), std::string::npos)
      << *text;
  EXPECT_NE(text->find(" workers="), std::string::npos) << *text;

  // The serial oracle's explain output carries no parallel annotations.
  auto serial_session = db_.CreateSession();
  ASSERT_TRUE(serial_session.ok());
  (*serial_session)->mutable_options()->batch_size = 32;
  (*serial_session)->mutable_options()->exec_threads = 1;
  auto serial = (*serial_session)->Explain(
      "retrieve (E.name, D.name) from E in Employees, D in Departments "
      "where D.id = E.dept_id",
      /*analyze=*/true);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->find("parallel:"), std::string::npos) << *serial;
  EXPECT_EQ(serial->find("workers="), std::string::npos) << *serial;
}

TEST_F(ParallelExecTest, ExplainAnalyzeAnnotatesBatchSizeClamp) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  (*session)->mutable_options()->batch_size = 1 << 20;
  auto text = (*session)->Explain("retrieve (E.id) from E in Employees",
                                  /*analyze=*/true);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Note: batch_size 1048576 clamped to 4096"),
            std::string::npos)
      << *text;

  // In-range batch sizes carry no clamp note.
  auto clean_session = db_.CreateSession();
  ASSERT_TRUE(clean_session.ok());
  (*clean_session)->mutable_options()->batch_size = 64;
  auto clean = (*clean_session)->Explain("retrieve (E.id) from E in Employees",
                                         /*analyze=*/true);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->find("clamped"), std::string::npos) << *clean;
}

TEST_F(ParallelExecTest, MorselMetricsCounters) {
  obs::Counter* morsels = db_.metrics()->GetCounter("exodus_exec_morsels_total");
  obs::Counter* queries =
      db_.metrics()->GetCounter("exodus_exec_parallel_queries_total");
  obs::Counter* clamped =
      db_.metrics()->GetCounter("exodus_exec_batch_size_clamped_total");

  const uint64_t m0 = morsels->value();
  const uint64_t q0 = queries->value();
  // Serial execution must not move the parallel series.
  Rows("retrieve (E.id) from E in Employees", 1, 32);
  EXPECT_EQ(morsels->value(), m0);
  EXPECT_EQ(queries->value(), q0);
  // One parallel execution: 300 rows / 32 = 10 morsels, one query.
  Rows("retrieve (E.id) from E in Employees", 4, 32);
  EXPECT_EQ(morsels->value(), m0 + 10);
  EXPECT_EQ(queries->value(), q0 + 1);

  const uint64_t c0 = clamped->value();
  Rows("retrieve (E.id) from E in Employees", 1, 1 << 20);
  EXPECT_EQ(clamped->value(), c0 + 1);
}

TEST_F(ParallelExecTest, ExecThreadsFromEnvAndFingerprint) {
  setenv("EXODUS_EXEC_THREADS", "3", 1);
  EXPECT_EQ(SessionOptions::FromEnv().exec_threads, 3);
  setenv("EXODUS_EXEC_THREADS", "not-a-number", 1);
  EXPECT_EQ(SessionOptions::FromEnv().exec_threads, 0);
  unsetenv("EXODUS_EXEC_THREADS");
  EXPECT_EQ(SessionOptions::FromEnv().exec_threads, 0);

  // exec_threads joins the plan-cache key: different settings must not
  // share cached prepared state.
  SessionOptions a;
  SessionOptions b;
  a.exec_threads = 1;
  b.exec_threads = 4;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST_F(ParallelExecTest, NegativeExecThreadsIsRejected) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  (*session)->mutable_options()->exec_threads = -2;
  auto r = (*session)->Execute("retrieve (E.id) from E in Employees");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(r.status().message().find("exec_threads"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ParallelExecTest, ParallelReadersRaceDdlAndWriters) {
  // Sanitizer-visible concurrency: parallel readers (4 workers each,
  // small batches so every statement schedules many morsels) race MVCC
  // snapshot writers and DDL (index create/drop takes the exclusive
  // lock). Readers run under a pinned snapshot, so every statement must
  // succeed and see a consistent extent — intermediate sizes vary, but
  // never torn rows.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&] {
      auto session = db_.CreateSession();
      if (!session.ok()) {
        ++failures;
        return;
      }
      (*session)->mutable_options()->exec_threads = 4;
      (*session)->mutable_options()->batch_size = 16;
      for (int i = 0; i < 40 && !stop.load(); ++i) {
        auto r = (*session)->Execute(
            "retrieve (E.name, D.name, count(F over F.dept_id)) "
            "from E in Employees, D in Departments, F in Employees "
            "where D.id = E.dept_id and F.id = E.id");
        if (!r.ok()) {
          ++failures;
          break;
        }
      }
    });
  }
  threads.emplace_back([&] {
    // MVCC writer: grow and shrink the extent the readers scan.
    auto session = db_.CreateSession();
    if (!session.ok()) {
      ++failures;
      return;
    }
    for (int i = 0; i < 25; ++i) {
      std::ostringstream q;
      q << "append to Employees (id = " << 1000 + i
        << ", name = \"tmp" << i << "\", salary = 1.0, dept_id = 1)";
      auto a = (*session)->Execute(q.str());
      auto d = (*session)->Execute(
          "delete E from E in Employees where E.id = " +
          std::to_string(1000 + i));
      if (!a.ok() || !d.ok()) {
        ++failures;
        break;
      }
    }
  });
  threads.emplace_back([&] {
    // DDL under the exclusive lock, serialized against every reader.
    auto session = db_.CreateSession();
    if (!session.ok()) {
      ++failures;
      return;
    }
    for (int i = 0; i < 8; ++i) {
      auto c = (*session)->Execute(
          "create index ParSalIdx on Employees (salary) using btree");
      auto d = (*session)->Execute("drop index ParSalIdx");
      if (!c.ok() || !d.ok()) {
        ++failures;
        break;
      }
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true);
  EXPECT_EQ(failures.load(), 0);

  // The extent is back to its original size and parallel results still
  // match the serial oracle.
  EXPECT_EQ(Rows("retrieve (count(E)) from E in Employees", 4, 16),
            Rows("retrieve (count(E)) from E in Employees", 1, 16));
}

}  // namespace
}  // namespace exodus
