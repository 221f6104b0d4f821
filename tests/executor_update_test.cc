// Update semantics: append / delete / replace / assign with own, ref and
// own-ref attribute semantics, ownership transfer, cascade behaviour.

#include <gtest/gtest.h>

#include "excess/database.h"

namespace exodus {
namespace {

using excess::QueryResult;
using object::Value;
using object::ValueKind;

class UpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Forward references to undefined types are rejected.
    Must(R"(define type Person (address: Address))",
         /*expect_error=*/true);
    Must(R"(
      define type Address (street: text, city: text)
      define type Department (name: char[20], floor: int4)
      define type Person (name: char[25], age: int4,
                          kids: {own ref Person},
                          address: Address)
      define type Employee inherits Person (
        salary: float8, dept: ref Department, tags: {text},
        history: [*] text)
      create Departments : {Department}
      create Employees : {Employee}
    )");
  }

  QueryResult Must(const std::string& q, bool expect_error = false) {
    auto r = db_.Execute(q);
    if (expect_error) {
      EXPECT_FALSE(r.ok()) << q;
      return QueryResult{};
    }
    EXPECT_TRUE(r.ok()) << q << "\n -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  int64_t Count(const std::string& set) {
    auto r = db_.Execute("retrieve (count(X)) from X in " + set);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows[0][0].AsInt() : -1;
  }

  Database db_;
};

TEST_F(UpdateTest, AppendConstructsObjectsWithDefaults) {
  QueryResult r = Must(R"(append to Employees (name = "a"))");
  EXPECT_EQ(r.affected, 1u);
  r = Must(R"(retrieve (E.salary, E.tags, E.history, E.age)
              from E in Employees)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_EQ(r.rows[0][1].kind(), ValueKind::kSet);   // empty set default
  EXPECT_EQ(r.rows[0][2].kind(), ValueKind::kArray);  // empty array
  EXPECT_TRUE(r.rows[0][3].is_null());
}

TEST_F(UpdateTest, AppendUnknownAttributeFails) {
  Must(R"(append to Employees (nosuch = 1))", /*expect_error=*/true);
}

TEST_F(UpdateTest, AppendCoercesAndChecksTypes) {
  Must(R"(append to Employees (name = "a", age = 3.0, salary = 5))");
  QueryResult r = Must("retrieve (E.age, E.salary) from E in Employees");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);          // integral float -> int
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsFloat(), 5.0);  // int -> float
  Must(R"(append to Employees (age = "x"))", /*expect_error=*/true);
  Must(R"(append to Employees (name = 5))", /*expect_error=*/true);
}

TEST_F(UpdateTest, CharLengthEnforced) {
  Must(R"(append to Employees
          (name = "0123456789012345678901234567890"))",
       /*expect_error=*/true);  // > char[25]
}

TEST_F(UpdateTest, AppendEmbeddedTupleAttribute) {
  Must(R"(append to Employees (name = "a",
          address = (street = "Main", city = "Madison")))");
  QueryResult r = Must("retrieve (E.address.city) from E in Employees");
  EXPECT_EQ(r.rows[0][0].AsString(), "Madison");
}

TEST_F(UpdateTest, AppendScalarsToNestedSet) {
  Must(R"(append to Employees (name = "a"))");
  Must(R"(append to E.tags ("red") from E in Employees)");
  Must(R"(append to E.tags ("blue") from E in Employees)");
  Must(R"(append to E.tags ("red") from E in Employees)");  // dup: no-op
  QueryResult r = Must("retrieve (count(E.tags)) from E in Employees");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(UpdateTest, AppendToVarArrayAllowsDuplicates) {
  Must(R"(append to Employees (name = "a"))");
  Must(R"(append to E.history ("x") from E in Employees)");
  Must(R"(append to E.history ("x") from E in Employees)");
  QueryResult r = Must("retrieve (count(E.history)) from E in Employees");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(UpdateTest, SetSemanticsInExtendSuppressValueDuplicates) {
  // Two structurally identical appends create two distinct OBJECTS
  // (identity, not value, distinguishes extent members).
  Must(R"(append to Employees (name = "twin"))");
  Must(R"(append to Employees (name = "twin"))");
  EXPECT_EQ(Count("Employees"), 2);
}

TEST_F(UpdateTest, DeleteCascadesToOwnedComponents) {
  Must(R"(append to Employees (name = "p", kids = {
          (name = "k1", kids = {(name = "g1")}), (name = "k2")}))");
  EXPECT_EQ(db_.heap()->live_count(), 4u);
  Must(R"(delete E from E in Employees where E.name = "p")");
  EXPECT_EQ(db_.heap()->live_count(), 0u);
  EXPECT_EQ(Count("Employees"), 0);
}

TEST_F(UpdateTest, DeleteFromNestedOwnRefSet) {
  Must(R"(append to Employees (name = "p", kids = {
          (name = "k1"), (name = "k2")}))");
  Must(R"(delete K from E in Employees, K in E.kids
          where K.name = "k1")");
  QueryResult r = Must(R"(retrieve (K.name) from E in Employees,
                          K in E.kids)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "k2");
  EXPECT_EQ(db_.heap()->live_count(), 2u);  // p and k2
}

TEST_F(UpdateTest, DeletingReferencedObjectNullifiesRefs) {
  Must(R"(append to Departments (name = "Toys", floor = 2))");
  Must(R"(append to Employees (name = "a", dept = D)
          from D in Departments)");
  Must(R"(delete D from D in Departments)");
  // GEM semantics: the dangling dept reference reads as null.
  QueryResult r = Must(
      "retrieve (E.name) from E in Employees where isnull(E.dept)");
  ASSERT_EQ(r.rows.size(), 1u);
  r = Must("retrieve (E.dept.floor) from E in Employees");
  EXPECT_TRUE(r.rows[0][0].is_null());
}

TEST_F(UpdateTest, ReplaceScalarsAndRefs) {
  Must(R"(append to Departments (name = "Toys", floor = 2))");
  Must(R"(append to Departments (name = "Shoes", floor = 1))");
  Must(R"(append to Employees (name = "a", salary = 100.0, dept = D)
          from D in Departments where D.name = "Toys")");
  Must(R"(replace E (salary = E.salary * 1.5, dept = D)
          from E in Employees, D in Departments
          where D.name = "Shoes")");
  QueryResult r = Must(
      "retrieve (E.salary, E.dept.name) from E in Employees");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 150.0);
  EXPECT_EQ(r.rows[0][1].AsString(), "Shoes");
}

TEST_F(UpdateTest, ReplaceEmbeddedTuple) {
  Must(R"(append to Employees (name = "a",
          address = (street = "Main", city = "Madison")))");
  Must(R"(replace E (address = (street = "State", city = "Chicago"))
          from E in Employees)");
  QueryResult r = Must("retrieve (E.address.street) from E in Employees");
  EXPECT_EQ(r.rows[0][0].AsString(), "State");
}

TEST_F(UpdateTest, OwnershipUniquenessEnforcedOnAppend) {
  Must(R"(append to Employees (name = "p1", kids = {(name = "k")}))");
  Must(R"(append to Employees (name = "p2"))");
  // Moving k into p2's kids while p1 still owns it must fail (ORION
  // composite-object rule, paper §2.2).
  auto r = db_.Execute(R"(
    append to P2.kids (K)
    from P2 in Employees, P1 in Employees, K in P1.kids
    where P2.name = "p2" and P1.name = "p1"
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kConstraintViolation);
}

TEST_F(UpdateTest, AssignNamedScalar) {
  Must(R"(create Motto : text = "hello")");
  QueryResult r = Must("retrieve (Motto)");
  EXPECT_EQ(r.rows[0][0].AsString(), "hello");
  Must(R"(assign Motto = "goodbye")");
  r = Must("retrieve (Motto)");
  EXPECT_EQ(r.rows[0][0].AsString(), "goodbye");
}

TEST_F(UpdateTest, FalseConstantWhereUpdatesNothing) {
  // A statement without range variables has one binding, and only when
  // its variable-free where-clause holds.
  Must(R"(create Motto : text = "hello")");
  QueryResult r = Must(R"(assign Motto = "goodbye" where 1 = 2)");
  EXPECT_EQ(r.affected, 0u);
  r = Must("retrieve (Motto)");
  EXPECT_EQ(r.rows[0][0].AsString(), "hello");
  r = Must(R"(append to Employees (name = "a") where 1 = 2)");
  EXPECT_EQ(r.affected, 0u);
  EXPECT_EQ(Count("Employees"), 0);
  r = Must(R"(assign Motto = "goodbye" where 1 = 1)");
  EXPECT_EQ(r.affected, 1u);
}

TEST_F(UpdateTest, AssignNamedRefAndArraySlots) {
  Must(R"(append to Employees (name = "a"))");
  Must(R"(append to Employees (name = "b"))");
  Must("create Star : ref Employee");
  Must("create Board : [2] ref Employee");
  Must(R"(assign Star = E from E in Employees where E.name = "b")");
  Must(R"(assign Board[1] = E from E in Employees where E.name = "a")");
  Must(R"(assign Board[2] = E from E in Employees where E.name = "b")");
  QueryResult r = Must("retrieve (Star.name, Board[1].name, Board[2].name)");
  EXPECT_EQ(r.rows[0][0].AsString(), "b");
  EXPECT_EQ(r.rows[0][1].AsString(), "a");
  EXPECT_EQ(r.rows[0][2].AsString(), "b");

  // Out-of-range assignment is an error (unlike reads).
  Must(R"(assign Board[3] = E from E in Employees)", /*expect_error=*/true);
}

TEST_F(UpdateTest, AssignIntoObjectPath) {
  Must(R"(append to Employees (name = "a",
          address = (street = "Main", city = "Madison")))");
  Must("create Star : ref Employee");
  Must("assign Star = E from E in Employees");
  Must(R"(assign Star.address.city = "Tokyo")");
  QueryResult r = Must("retrieve (E.address.city) from E in Employees");
  EXPECT_EQ(r.rows[0][0].AsString(), "Tokyo");
}

TEST_F(UpdateTest, NamedSingleObjectExistsAtCreation) {
  Must("create HQ : Department");
  QueryResult r = Must("retrieve (HQ.name, HQ.floor)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
  Must(R"(assign HQ.name = "Central")");
  Must("assign HQ.floor = 9");
  r = Must("retrieve (HQ.name, HQ.floor)");
  EXPECT_EQ(r.rows[0][0].AsString(), "Central");
  EXPECT_EQ(r.rows[0][1].AsInt(), 9);
}

TEST_F(UpdateTest, DropDestroysOwnedMembers) {
  Must(R"(append to Employees (name = "a", kids = {(name = "k")}))");
  EXPECT_EQ(db_.heap()->live_count(), 2u);
  Must("drop Employees");
  EXPECT_EQ(db_.heap()->live_count(), 0u);
  Must("retrieve (count(E)) from E in Employees", /*expect_error=*/true);
}

TEST_F(UpdateTest, UpdatesAreSetOriented) {
  Must(R"(append to Employees (name = "a", salary = 1.0))");
  Must(R"(append to Employees (name = "b", salary = 2.0))");
  Must(R"(append to Employees (name = "c", salary = 3.0))");
  QueryResult r = Must(
      "replace E (salary = E.salary + 10.0) from E in Employees "
      "where E.salary >= 2.0");
  EXPECT_EQ(r.affected, 2u);
  r = Must("retrieve (sum(E.salary)) from E in Employees");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 26.0);

  r = Must("delete E from E in Employees where E.salary > 11.0");
  EXPECT_EQ(r.affected, 2u);
  EXPECT_EQ(Count("Employees"), 1);
}

TEST_F(UpdateTest, AppendRefValueForm) {
  Must(R"(append to Departments (name = "Toys", floor = 1))");
  Must(R"(create Favorites : {ref Department})");
  Must(R"(append to Favorites (D) from D in Departments)");
  EXPECT_EQ(Count("Favorites"), 1);
  // Duplicate reference append is suppressed (set of refs).
  Must(R"(append to Favorites (D) from D in Departments)");
  EXPECT_EQ(Count("Favorites"), 1);
  // Deleting from a plain-ref set removes the reference, not the object.
  Must(R"(delete F from F in Favorites)");
  EXPECT_EQ(Count("Favorites"), 0);
  EXPECT_EQ(Count("Departments"), 1);
}

}  // namespace
}  // namespace exodus
