// Hash-based execution: kHashJoin correctness against the nested-loop
// path (same rows, '='-semantics keys — NULLs never join, int/float
// compare numerically, enum<->string by label), per-session ablation
// through SessionOptions::hash_join, and hash aggregation including
// `unique`-qualified aggregates over many groups.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "excess/database.h"
#include "excess/session.h"

namespace exodus {
namespace {

using excess::QueryResult;

class HashJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = db_.Execute(R"(
      define enum Grade (junior, senior, staff)
      define type Dept (id: int4, city: char[12], quota: float8)
      define type Emp (name: char[12], dept_id: int4, level: int4,
                       rank: char[12], grade: Grade)
      create Depts : {Dept}
      create Emps : {Emp}
      append to Depts (id = 1, city = "austin", quota = 2.0)
      append to Depts (id = 2, city = "boston", quota = 3.0)
      append to Depts (id = 2, city = "b-annex", quota = 3.0)
      append to Depts (city = "limbo")
      append to Emps (name = "ann", dept_id = 1, level = 2,
                      rank = "junior", grade = junior)
      append to Emps (name = "bob", dept_id = 2, level = 3,
                      rank = "senior", grade = senior)
      append to Emps (name = "cat", dept_id = 2, level = 9,
                      rank = "staff", grade = staff)
      append to Emps (name = "drift", level = 1)
    )");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  // Executes `q` in a fresh session with hash joins on or off and
  // returns the result rows rendered and sorted (joins are unordered).
  std::vector<std::string> Rows(const std::string& q, bool hash_join) {
    auto session = db_.CreateSession();
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    (*session)->mutable_options()->hash_join = hash_join;
    auto r = (*session)->Execute(q);
    EXPECT_TRUE(r.ok()) << q << "\n -> " << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    for (const auto& row : r->rows) {
      std::string line;
      for (const auto& v : row) line += v.ToString() + "|";
      out.push_back(std::move(line));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // The plan text a fresh session prepares for `q`.
  std::string PlanText(const std::string& q, bool hash_join) {
    auto session = db_.CreateSession();
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    (*session)->mutable_options()->hash_join = hash_join;
    auto stmt = (*session)->Prepare(q);
    EXPECT_TRUE(stmt.ok()) << q << "\n -> " << stmt.status().ToString();
    return stmt.ok() ? (*stmt)->plan_text() : "";
  }

  Database db_;
};

constexpr const char* kJoin =
    "retrieve (E.name, D.city) from E in Emps, D in Depts "
    "where D.id = E.dept_id";

TEST_F(HashJoinTest, PlanUsesHashJoinAndSwitchDisablesIt) {
  EXPECT_NE(PlanText(kJoin, true).find("HashJoin Depts as D"),
            std::string::npos);
  EXPECT_EQ(PlanText(kJoin, false).find("HashJoin"), std::string::npos);
}

TEST_F(HashJoinTest, SameRowsAsNestedLoop) {
  std::vector<std::string> hashed = Rows(kJoin, true);
  std::vector<std::string> nested = Rows(kJoin, false);
  EXPECT_EQ(hashed, nested);
  // ann->austin; bob and cat each match both id=2 departments.
  EXPECT_EQ(hashed.size(), 5u);
}

TEST_F(HashJoinTest, NullKeysNeverJoin) {
  // "drift" has a NULL dept_id and "limbo" a NULL id; neither appears,
  // including against each other (NULL = NULL is not a match).
  for (bool hash : {true, false}) {
    std::vector<std::string> rows = Rows(kJoin, hash);
    for (const std::string& row : rows) {
      EXPECT_EQ(row.find("drift"), std::string::npos);
      EXPECT_EQ(row.find("limbo"), std::string::npos);
    }
  }
}

TEST_F(HashJoinTest, IntAndFloatKeysCompareNumerically) {
  // quota is float8, level int4: 2.0 = 2 and 3.0 = 3 must match in the
  // hash path exactly as under '=' (the int/float equal-hash rule).
  const std::string q =
      "retrieve (E.name, D.city) from E in Emps, D in Depts "
      "where D.quota = E.level";
  std::vector<std::string> hashed = Rows(q, true);
  EXPECT_EQ(hashed, Rows(q, false));
  EXPECT_EQ(hashed.size(), 3u);  // ann->austin, bob->boston + b-annex
  EXPECT_NE(PlanText(q, true).find("HashJoin"), std::string::npos);
}

TEST_F(HashJoinTest, EnumAndStringKeysCompareByLabel) {
  // grade is an enum, rank a string holding the same labels: '='
  // coerces enum<->string, and the hash path must bucket them together.
  const std::string q =
      "retrieve (E.name, F.name) from E in Emps, F in Emps "
      "where F.rank = E.grade";
  std::vector<std::string> hashed = Rows(q, true);
  EXPECT_EQ(hashed, Rows(q, false));
  EXPECT_EQ(hashed.size(), 3u);  // each graded emp matches its own rank
  EXPECT_NE(PlanText(q, true).find("HashJoin"), std::string::npos);
}

TEST_F(HashJoinTest, CompositeKeys) {
  const std::string q =
      "retrieve (E.name, D.city) from E in Emps, D in Depts "
      "where D.id = E.dept_id and D.quota = E.level";
  std::vector<std::string> hashed = Rows(q, true);
  EXPECT_EQ(hashed, Rows(q, false));
  EXPECT_EQ(hashed.size(), 3u);  // cat (level 9) drops out
}

TEST_F(HashJoinTest, ExtraFiltersStillApplyOnProbeHits) {
  const std::string q =
      "retrieve (E.name, D.city) from E in Emps, D in Depts "
      "where D.id = E.dept_id and D.city != \"b-annex\"";
  std::vector<std::string> hashed = Rows(q, true);
  EXPECT_EQ(hashed, Rows(q, false));
  EXPECT_EQ(hashed.size(), 3u);
}

TEST_F(HashJoinTest, EmptyOuterSideSkipsBuild) {
  // With no probing row the join table is never built; the query is
  // still correct (and cheap).
  const std::string q =
      "retrieve (E.name, D.city) from E in Emps, D in Depts "
      "where D.id = E.dept_id and E.name = \"nobody\"";
  EXPECT_TRUE(Rows(q, true).empty());
}

TEST_F(HashJoinTest, ThreeWayJoinMixesHashSteps) {
  const std::string q =
      "retrieve (E.name, F.name) from E in Emps, D in Depts, F in Emps "
      "where D.id = E.dept_id and F.dept_id = D.id";
  std::vector<std::string> hashed = Rows(q, true);
  EXPECT_EQ(hashed, Rows(q, false));
  EXPECT_FALSE(hashed.empty());
}

TEST_F(HashJoinTest, HashAggregationGroupsManyKeys) {
  // 40 groups, two members each; hash grouping must keep them apart and
  // `unique` must dedupe within a group.
  Database db;
  ASSERT_TRUE(db.Execute(R"(
      define type Point (bucket: int4, v: int4)
      create Points : {Point}
    )")
                  .ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.Execute("append to Points (bucket = " + std::to_string(i) +
                           ", v = " + std::to_string(i % 7) + ")")
                    .ok());
    ASSERT_TRUE(db.Execute("append to Points (bucket = " + std::to_string(i) +
                           ", v = " + std::to_string(i % 7) + ")")
                    .ok());
  }
  auto r = db.Execute(
      "retrieve unique (P.bucket, n = count(P.v over P.bucket), "
      "u = count(unique P.v over P.bucket)) from P in Points");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 40u);
  for (const auto& row : r->rows) {
    EXPECT_EQ(row[1].AsInt(), 2);  // two members per bucket
    EXPECT_EQ(row[2].AsInt(), 1);  // one distinct v per bucket
  }
}

}  // namespace
}  // namespace exodus
