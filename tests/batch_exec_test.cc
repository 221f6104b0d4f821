// Differential tests for the execution engine: every query runs
// through the naive reference evaluator (tests/reference_eval.h, the
// oracle: nested loops over the bound range variables, no plan) and
// through the batch pipeline at batch sizes {1, 2, 1024, 4096} plus
// sizes chosen to land exactly on and one past a batch boundary;
// rendered result rows must agree exactly. Also covers SessionOptions
// env seeding, batch_size validation, and plan-cache separation between
// executor option settings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
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

// Renders result rows and sorts them (row order is unspecified unless
// the query imposes one, so callers pass sorted = false for `sort by`
// queries).
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

class BatchExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Must(R"(
      define type Department (id: int4, name: char[20], floor: int4)
      define type Kid (name: char[20], allowance: float8)
      define type Employee (
        id: int4, name: char[25], salary: float8, dept_id: int4,
        dept: ref Department, kids: {own ref Kid}, scores: [4] int4
      )
      create Departments : {Department}
      create Employees : {Employee}
      create Empty : {Employee}
      create Slots : [60] int4
    )");
    for (int d = 0; d < 5; ++d) {
      std::ostringstream q;
      q << "append to Departments (id = " << d << ", name = \"dept" << d
        << "\", floor = " << d % 3 << ")";
      Must(q.str());
    }
    std::mt19937 rng(4242);
    const char* names[] = {"ann", "bob", "cho", "dee", "eli"};
    for (int i = 0; i < 50; ++i) {
      std::ostringstream q;
      int dept = std::uniform_int_distribution<int>(0, 5)(rng);  // 5: none
      dept_of_.push_back(dept);
      q << "append to Employees (id = " << i << ", name = \""
        << names[i % 5] << i << "\", salary = "
        << std::uniform_int_distribution<int>(0, 40)(rng) * 2.5
        << ", dept_id = " << dept;
      if (i % 7 != 0) {
        q << ", kids = {";
        int nkids = 1 + i % 3;
        for (int k = 0; k < nkids; ++k) {
          if (k > 0) q << ", ";
          q << "(name = \"k" << i << "_" << k << "\", allowance = "
            << (k + 1) * 0.5 << ")";
        }
        q << "}";
      }
      if (i % 4 != 0) {
        // Fixed arrays are null-filled: the holes must bind nothing.
        q << ", scores = [" << i << ", null, " << i % 9 << ", null]";
      }
      if (dept < 5) {
        q << ", dept = D) from D in Departments where D.id = " << dept;
      } else {
        q << ")";
      }
      Must(q.str());
    }
    // Every third slot set; the rest are array holes.
    for (int i = 1; i <= 60; i += 3) {
      Must("assign Slots[" + std::to_string(i) + "] = " +
           std::to_string(i % 7));
    }
    CheckFixture();
  }

  // The appends above run through the engine under test (`from D in
  // Departments` is planned), so a pipeline bug could corrupt the data
  // both sides read. Check the fixture without running a plan: extents
  // via Session::EvalExpression, members straight from the heap.
  void CheckFixture() {
    auto session = db_.CreateSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto eval = [&](const std::string& e) {
      auto v = (*session)->EvalExpression(e);
      EXPECT_TRUE(v.ok()) << e << "\n -> " << v.status().ToString();
      return v.ok() ? *v : object::Value::Null();
    };
    ASSERT_EQ(eval("count(Departments)").ToString(), "5");
    ASSERT_EQ(eval("count(Employees)").ToString(), "50");
    ASSERT_EQ(eval("count(Empty)").ToString(), "0");
    const object::Value emps = eval("Employees");
    ASSERT_EQ(emps.kind(), object::ValueKind::kSet);
    auto field = [](const object::HeapObject* obj, const std::string& attr) {
      return obj->fields[static_cast<size_t>(
          obj->type->AttributeIndex(attr))];
    };
    std::vector<bool> seen(dept_of_.size(), false);
    for (const object::Value& ref : emps.set().elems) {
      const object::HeapObject* e = db_.heap()->Get(ref.AsRef());
      ASSERT_NE(e, nullptr);
      const int64_t id = field(e, "id").AsInt();
      ASSERT_TRUE(id >= 0 && id < static_cast<int64_t>(seen.size()) &&
                  !seen[static_cast<size_t>(id)])
          << "unexpected or duplicate employee id " << id;
      seen[static_cast<size_t>(id)] = true;
      const int dept = dept_of_[static_cast<size_t>(id)];
      const object::Value dref = field(e, "dept");
      if (dept == 5) {
        EXPECT_TRUE(dref.is_null()) << "employee " << id;
        continue;
      }
      ASSERT_EQ(dref.kind(), object::ValueKind::kRef) << "employee " << id;
      const object::HeapObject* d = db_.heap()->Get(dref.AsRef());
      ASSERT_NE(d, nullptr) << "employee " << id;
      EXPECT_EQ(field(d, "id").AsInt(), dept) << "employee " << id;
    }
  }

  void Must(const std::string& q) {
    auto r = db_.Execute(q);
    ASSERT_TRUE(r.ok()) << q << "\n -> " << r.status().ToString();
  }

  // Runs `q` in a fresh session at the given batch size and returns
  // the rendered rows.
  std::vector<std::string> Rows(const std::string& q, int batch_size,
                                bool sorted = true) {
    auto session = db_.CreateSession();
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    (*session)->mutable_options()->batch_size = batch_size;
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

  // Asserts batch execution at sizes {1, 2, 49, 50, 51, 1024, 4096}
  // matches the reference evaluator. 50 rows in Employees makes 50 an
  // exactly-one-batch size and 49 a boundary-straddling one.
  void ExpectParity(const std::string& q, bool sorted = true) {
    std::vector<std::string> oracle = Oracle(q, sorted);
    for (int bs : {1, 2, 49, 50, 51, 1024, 4096}) {
      EXPECT_EQ(Rows(q, bs, sorted), oracle)
          << q << "\n at batch_size=" << bs;
    }
  }

  Database db_;
  std::vector<int> dept_of_;  // [employee id] -> dept_id (5: no dept)
};

TEST_F(BatchExecTest, ScanFilterProjectParity) {
  ExpectParity("retrieve (E.id, E.name, E.salary) from E in Employees");
  ExpectParity(
      "retrieve (E.id, E.salary * 2.0) from E in Employees "
      "where E.salary >= 50.0 and E.id < 40");
  ExpectParity(
      "retrieve (E.id) from E in Employees "
      "where E.name = \"ann0\" or E.salary < 10.0");
  ExpectParity(
      "retrieve (E.id, - E.salary) from E in Employees where not (E.id < 25)");
}

TEST_F(BatchExecTest, EmptyInputParity) {
  ExpectParity("retrieve (E.id, E.name) from E in Empty");
  ExpectParity("retrieve (E.id) from E in Employees where E.id < 0");
  ExpectParity("retrieve (count(E)) from E in Empty");
}

TEST_F(BatchExecTest, JoinParity) {
  ExpectParity(
      "retrieve (E.name, D.name) from E in Employees, D in Departments "
      "where D.id = E.dept_id");
  ExpectParity(
      "retrieve (E.name, D.floor) from E in Employees, D in Departments "
      "where D.id = E.dept_id and D.floor > 0 and E.salary < 60.0");
  // Self join over a non-key: many-to-many match counts must agree.
  ExpectParity(
      "retrieve (A.id, B.id) from A in Departments, B in Departments "
      "where A.floor = B.floor");
}

TEST_F(BatchExecTest, UnnestParity) {
  ExpectParity(
      "retrieve (E.name, K.name, K.allowance) from E in Employees, "
      "K in E.kids");
  ExpectParity(
      "retrieve (E.id, K.allowance) from E in Employees, K in E.kids "
      "where K.allowance > 0.5 and E.id > 10");
}

TEST_F(BatchExecTest, ArrayHolesParity) {
  // Unnest over a fixed array attribute and a scan of a named array
  // extent: null slots bind no variable.
  ExpectParity(
      "retrieve (E.id, V) from E in Employees, V in E.scores");
  ExpectParity(
      "retrieve (E.id, V) from E in Employees, V in E.scores where V > 3");
  ExpectParity("retrieve (V) from V in Slots");
  ExpectParity(
      "retrieve (V, D.name) from V in Slots, D in Departments "
      "where D.id = V");
  ExpectParity("retrieve (count(V), sum(V)) from V in Slots");
}

TEST_F(BatchExecTest, IndexScanParity) {
  Must("create index DeptIdIdx on Employees (dept_id) using btree");
  const std::string eq =
      "retrieve (E.id, E.name) from E in Employees where E.dept_id = 3";
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  auto plan = (*session)->Explain(eq, /*analyze=*/false);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  ExpectParity(eq);
  ExpectParity(
      "retrieve (E.id, E.salary) from E in Employees where E.dept_id < 2");
  ExpectParity(
      "retrieve (E.name, D.name) from D in Departments, E in Employees "
      "where E.dept_id = D.id and D.floor = 1");
}

TEST_F(BatchExecTest, RefDereferenceParity) {
  ExpectParity(
      "retrieve (E.name, E.dept.name) from E in Employees "
      "where E.dept.floor = 2");
}

TEST_F(BatchExecTest, AggregateParity) {
  ExpectParity("retrieve (count(E), sum(E.salary)) from E in Employees");
  ExpectParity(
      "retrieve unique (E.dept_id, count(E over E.dept_id), "
      "avg(E.salary over E.dept_id)) from E in Employees");
  ExpectParity(
      "retrieve (E.name, count(K from K in E.kids)) from E in Employees");
  ExpectParity(
      "retrieve unique (E.dept_id, min(E.salary over E.dept_id), "
      "max(E.name over E.dept_id)) from E in Employees");
  ExpectParity(
      "retrieve (count(unique E.dept_id), max(E.salary), min(E.id)) "
      "from E in Employees where E.salary > 20.0");
}

TEST_F(BatchExecTest, SortAndUniqueParity) {
  // Sorted output is order-sensitive: compare without re-sorting.
  ExpectParity(
      "retrieve (E.salary, E.name) from E in Employees sort by E.salary, "
      "E.name",
      /*sorted=*/false);
  ExpectParity("retrieve unique (E.dept_id) from E in Employees");
}

TEST_F(BatchExecTest, RandomPredicateParity) {
  std::mt19937 rng(97);
  const char* cols[] = {"E.id", "E.dept_id", "E.salary"};
  const char* ops[] = {"<", "<=", ">", ">=", "="};
  for (int trial = 0; trial < 25; ++trial) {
    std::ostringstream q;
    q << "retrieve (E.id, E.name) from E in Employees where ";
    int nclauses = 1 + std::uniform_int_distribution<int>(0, 2)(rng);
    for (int c = 0; c < nclauses; ++c) {
      if (c > 0) {
        q << (std::uniform_int_distribution<int>(0, 1)(rng) ? " and "
                                                            : " or ");
      }
      q << cols[std::uniform_int_distribution<int>(0, 2)(rng)] << " "
        << ops[std::uniform_int_distribution<int>(0, 4)(rng)] << " "
        << std::uniform_int_distribution<int>(0, 60)(rng);
    }
    ExpectParity(q.str());
  }
}

TEST_F(BatchExecTest, BatchSizeBelowOneIsRejected) {
  for (int bad : {0, -1, -1024}) {
    auto session = db_.CreateSession();
    ASSERT_TRUE(session.ok());
    (*session)->mutable_options()->batch_size = bad;
    auto r = (*session)->Execute("retrieve (E.id) from E in Employees");
    ASSERT_FALSE(r.ok()) << "batch_size=" << bad << " was accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
    EXPECT_NE(r.status().message().find("batch_size"), std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(BatchExecTest, OversizeBatchSizeIsClamped) {
  // Values above kMaxBatchSize execute (clamped), and match the oracle.
  EXPECT_EQ(Rows("retrieve (E.id) from E in Employees", 1 << 20),
            Oracle("retrieve (E.id) from E in Employees"));
}

TEST_F(BatchExecTest, SessionOptionsFromEnv) {
  setenv("EXODUS_BATCH_SIZE", "77", 1);
  SessionOptions o = SessionOptions::FromEnv();
  EXPECT_EQ(o.batch_size, 77);

  setenv("EXODUS_BATCH_SIZE", "not-a-number", 1);
  o = SessionOptions::FromEnv();
  EXPECT_EQ(o.batch_size, SessionOptions::kDefaultBatchSize);

  // Invalid numeric values survive FromEnv verbatim so execution can
  // reject them loudly instead of silently correcting.
  setenv("EXODUS_BATCH_SIZE", "0", 1);
  EXPECT_EQ(SessionOptions::FromEnv().batch_size, 0);

  unsetenv("EXODUS_BATCH_SIZE");
  o = SessionOptions::FromEnv();
  EXPECT_EQ(o.batch_size, SessionOptions::kDefaultBatchSize);

  // A fresh session picks its options up from the environment.
  setenv("EXODUS_BATCH_SIZE", "33", 1);
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->mutable_options()->batch_size, 33);
  unsetenv("EXODUS_BATCH_SIZE");
}

TEST_F(BatchExecTest, BatchSizesSeparatePlanCacheEntries) {
  // The same statement executed under different executor options must
  // not share cached state: run interleaved and expect each setting to
  // keep producing correct results (a shared entry would surface as a
  // batch_size<1 error leaking into the fixed session, or stale state).
  const std::string q = "retrieve (E.id) from E in Employees where E.id < 5";
  auto a = db_.CreateSession();
  auto b = db_.CreateSession();
  ASSERT_TRUE(a.ok() && b.ok());
  (*a)->mutable_options()->batch_size = 2;
  (*b)->mutable_options()->batch_size = 4096;
  const std::vector<std::string> want = Oracle(q);
  ASSERT_EQ(want.size(), 5u);
  for (int round = 0; round < 3; ++round) {
    auto ra = (*a)->Execute(q);
    auto rb = (*b)->Execute(q);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(Render(ra->rows), want);
    EXPECT_EQ(Render(rb->rows), want);
  }
  // Within one session, retuning batch_size mid-stream stays correct
  // (each setting maps to its own cache key).
  for (int bs : {1, 3, 4096, 1}) {
    (*a)->mutable_options()->batch_size = bs;
    auto r = (*a)->Execute(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(Render(r->rows), want) << "batch_size=" << bs;
  }
}

}  // namespace
}  // namespace exodus
