// Database facade surface: ExecuteAll, EvalExpression, Format /
// FormatValue rendering, last_plan, optimizer option plumbing, and
// QueryResult::ToString.

#include "excess/database.h"

#include <gtest/gtest.h>

namespace exodus {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = db_.Execute(R"(
      define type Department (name: char[20], floor: int4)
      define type Employee (name: char[25], salary: float8,
                            dept: ref Department)
      create Departments : {Department}
      create Employees : {Employee}
      append to Departments (name = "Toys", floor = 2)
      append to Employees (name = "ann", salary = 10.5, dept = D)
        from D in Departments
    )");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  Database db_;
};

TEST_F(DatabaseTest, ExecuteAllReturnsPerStatementResults) {
  auto r = db_.ExecuteAll(R"(
    retrieve (count(E)) from E in Employees;
    append to Employees (name = "bob");
    retrieve (count(E)) from E in Employees
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ((*r)[0].rows[0][0].AsInt(), 1);
  EXPECT_EQ((*r)[1].affected, 1u);
  EXPECT_EQ((*r)[2].rows[0][0].AsInt(), 2);
}

TEST_F(DatabaseTest, ExecuteReturnsLastResult) {
  auto r = db_.Execute("retrieve (1); retrieve (2)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 2);
  // Empty program: empty result.
  auto empty = db_.Execute("   -- just a comment\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->columns.empty());
}

TEST_F(DatabaseTest, EvalExpression) {
  auto v = db_.EvalExpression("1 + 2 * 3");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 7);
  // Named objects resolve.
  v = db_.EvalExpression("count(Departments)");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 1);
}

TEST_F(DatabaseTest, FormatResolvesReferences) {
  auto r = db_.Execute("retrieve (E) from E in Employees");
  ASSERT_TRUE(r.ok());
  // Raw ToString keeps the reference opaque...
  EXPECT_NE(r->ToString().find("ref(#"), std::string::npos);
  // ...while Format resolves it through the heap, recursively up to the
  // depth limit.
  std::string deep = db_.Format(*r, /*depth=*/2);
  EXPECT_NE(deep.find("ann"), std::string::npos);
  EXPECT_NE(deep.find("Toys"), std::string::npos);
  std::string shallow = db_.Format(*r, /*depth=*/1);
  EXPECT_NE(shallow.find("ann"), std::string::npos);
  EXPECT_EQ(shallow.find("Toys"), std::string::npos);  // depth-limited
  EXPECT_NE(shallow.find("<Department #"), std::string::npos);
}

TEST_F(DatabaseTest, FormatValueHandlesDanglingRefs) {
  auto r = db_.Execute("retrieve (E.dept) from E in Employees");
  ASSERT_TRUE(r.ok());
  object::Value ref = r->rows[0][0];
  ASSERT_TRUE(db_.Execute("delete D from D in Departments").ok());
  EXPECT_EQ(db_.FormatValue(ref), "null");
}

TEST_F(DatabaseTest, QueryResultToString) {
  auto r = db_.Execute(
      "retrieve (who = E.name, pay = E.salary) from E in Employees");
  ASSERT_TRUE(r.ok());
  std::string text = r->ToString();
  EXPECT_NE(text.find("who | pay"), std::string::npos);
  EXPECT_NE(text.find("\"ann\" | 10.5"), std::string::npos);
}

TEST_F(DatabaseTest, LastPlanReflectsMostRecentStatement) {
  ASSERT_TRUE(db_.Execute("retrieve (E.name) from E in Employees").ok());
  EXPECT_NE(db_.last_plan().find("Scan Employees as E"), std::string::npos);
  ASSERT_TRUE(
      db_.Execute("retrieve (D.name) from D in Departments").ok());
  EXPECT_NE(db_.last_plan().find("Scan Departments as D"),
            std::string::npos);
}

TEST_F(DatabaseTest, OptimizerSwitchesTakeEffect) {
  ASSERT_TRUE(
      db_.Execute("create index SalIdx on Employees (salary) using btree")
          .ok());
  ASSERT_TRUE(
      db_.Execute("retrieve (E.name) from E in Employees "
                  "where E.salary = 10.5")
          .ok());
  EXPECT_NE(db_.last_plan().find("IndexScan"), std::string::npos);

  db_.mutable_options()->use_indexes = false;
  ASSERT_TRUE(
      db_.Execute("retrieve (E.name) from E in Employees "
                  "where E.salary = 10.5")
          .ok());
  EXPECT_EQ(db_.last_plan().find("IndexScan"), std::string::npos);
  db_.mutable_options()->use_indexes = true;
}

TEST_F(DatabaseTest, CurrentUserTracksSetUser) {
  EXPECT_EQ(db_.current_user(), "dba");
  ASSERT_TRUE(db_.Execute("create user guest; set user guest").ok());
  EXPECT_EQ(db_.current_user(), "guest");
}

}  // namespace
}  // namespace exodus
