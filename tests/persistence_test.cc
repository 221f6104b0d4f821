// Database save / load through checkpoint images: schema replay, heap
// restore with identical oids, named-object values, index rebuild,
// functions/procedures, and authorization state.

#include <gtest/gtest.h>

#include <cstdio>

#include "excess/database.h"

namespace exodus {
namespace {

using excess::QueryResult;

class PersistenceTest : public ::testing::Test {
 protected:
  std::string Path() {
    return ::testing::TempDir() + "/exodus_persistence_test.db";
  }

  void TearDown() override { std::remove(Path().c_str()); }

  QueryResult Must(Database* db, const std::string& q) {
    auto r = db->Execute(q);
    EXPECT_TRUE(r.ok()) << q << "\n -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  std::unique_ptr<Database> SaveAndLoad(Database* db) {
    auto st = db->Save(Path());
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto loaded = Database::Load(Path());
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? std::move(*loaded) : nullptr;
  }
};

TEST_F(PersistenceTest, SchemaAndDataSurvive) {
  Database db;
  Must(&db, R"(
    define enum Color (red, green, blue)
    define type Department (name: char[20], floor: int4)
    define type Employee (
      name: char[25], salary: float8, hue: Color,
      hired: Date, dept: ref Department,
      kids: {own ref Employee}
    )
    create Departments : {Department}
    create Employees : {Employee}
    append to Departments (name = "Toys", floor = 2)
    append to Employees (name = "ann", salary = 100.0, hue = red,
      hired = Date("3/1/1985"), dept = D,
      kids = {(name = "junior")})
      from D in Departments
  )");

  auto loaded = SaveAndLoad(&db);
  ASSERT_NE(loaded, nullptr);

  QueryResult r = Must(loaded.get(), R"(
    retrieve (E.name, E.salary, E.hue, E.hired, E.dept.name)
    from E in Employees
  )");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "ann");
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsFloat(), 100.0);
  EXPECT_EQ(r.rows[0][2].ToString(), "red");
  EXPECT_EQ(r.rows[0][3].ToString(), "3/1/1985");
  EXPECT_EQ(r.rows[0][4].AsString(), "Toys");

  r = Must(loaded.get(),
           "retrieve (K.name) from E in Employees, K in E.kids");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "junior");

  // Ownership semantics survive: cascade delete still works.
  EXPECT_EQ(loaded->heap()->live_count(), 3u);
  Must(loaded.get(), R"(delete E from E in Employees)");
  EXPECT_EQ(loaded->heap()->live_count(), 1u);  // only the department
}

TEST_F(PersistenceTest, NamedScalarsRefsAndArrays) {
  Database db;
  Must(&db, R"(
    define type Employee (name: char[25], salary: float8)
    create Employees : {Employee}
    append to Employees (name = "star", salary = 7.0)
    create Today : Date = Date("7/6/1988")
    create Star : ref Employee
    create Board : [3] ref Employee
    assign Star = E from E in Employees
    assign Board[2] = E from E in Employees
  )");

  auto loaded = SaveAndLoad(&db);
  ASSERT_NE(loaded, nullptr);

  QueryResult r = Must(loaded.get(),
                       "retrieve (Today, Star.name, Board[2].salary)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].ToString(), "7/6/1988");
  EXPECT_EQ(r.rows[0][1].AsString(), "star");
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsFloat(), 7.0);
  r = Must(loaded.get(), "retrieve (isnull(Board[1]))");
  EXPECT_TRUE(r.rows[0][0].AsBool());
}

TEST_F(PersistenceTest, IndexesRebuiltAndUsed) {
  Database db;
  Must(&db, R"(
    define type Employee (name: char[25], salary: float8)
    create Employees : {Employee}
  )");
  for (int i = 0; i < 30; ++i) {
    Must(&db, "append to Employees (name = \"e" + std::to_string(i) +
                  "\", salary = " + std::to_string(i) + ".0)");
  }
  Must(&db, "create index SalIdx on Employees (salary) using btree");

  auto loaded = SaveAndLoad(&db);
  ASSERT_NE(loaded, nullptr);

  QueryResult r = Must(loaded.get(),
                       "retrieve (E.name) from E in Employees "
                       "where E.salary = 17.0");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "e17");
  EXPECT_NE(loaded->last_plan().find("IndexScan"), std::string::npos)
      << loaded->last_plan();
}

TEST_F(PersistenceTest, FunctionsProceduresAndInheritanceSurvive) {
  Database db;
  Must(&db, R"(
    define type Person (name: char[25])
    define type Employee inherits Person (salary: float8)
    create Employees : {Employee}
    append to Employees (name = "a", salary = 10.0)
    define function Pay (E: Employee) returns float8 as
      retrieve (E.salary * 2.0)
    define procedure Bump (E: Employee) as
      replace E (salary = E.salary + 1.0)
  )");

  auto loaded = SaveAndLoad(&db);
  ASSERT_NE(loaded, nullptr);

  QueryResult r = Must(loaded.get(), "retrieve (E.Pay) from E in Employees");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 20.0);
  Must(loaded.get(), "execute Bump(E) from E in Employees");
  r = Must(loaded.get(), "retrieve (E.salary) from E in Employees");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 11.0);
}

TEST_F(PersistenceTest, AuthorizationStateSurvives) {
  Database db;
  Must(&db, R"(
    define type Secret (code: int4)
    create Secrets : {Secret}
    append to Secrets (code = 42)
    create user intern
    create group staff
    add user intern to group staff
  )");

  auto loaded = SaveAndLoad(&db);
  ASSERT_NE(loaded, nullptr);
  Must(loaded.get(), "set user intern");
  auto denied = loaded->Execute("retrieve (S.code) from S in Secrets");
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), util::StatusCode::kPermissionDenied);
  Must(loaded.get(), "set user dba");
  Must(loaded.get(), "grant retrieve on Secrets to staff");
  Must(loaded.get(), "set user intern");
  Must(loaded.get(), "retrieve (S.code) from S in Secrets");
}

TEST_F(PersistenceTest, SecondGenerationSaveLoad) {
  Database db;
  Must(&db, R"(
    define type T (x: int4)
    create S : {T}
    append to S (x = 1)
  )");
  auto gen2 = SaveAndLoad(&db);
  ASSERT_NE(gen2, nullptr);
  Must(gen2.get(), "append to S (x = 2)");
  auto st = gen2->Save(Path());
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto gen3 = Database::Load(Path());
  ASSERT_TRUE(gen3.ok()) << gen3.status().ToString();
  QueryResult r = Must(gen3->get(), "retrieve (sum(V.x)) from V in S");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
}

TEST_F(PersistenceTest, LoadOfMissingFileFails) {
  auto r = Database::Load(::testing::TempDir() + "/definitely_missing.db");
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace exodus
