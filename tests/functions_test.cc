// EXCESS functions and procedures (paper §4.2): derived attributes,
// set-valued results, lattice inheritance with late binding, early
// binding, definer rights, recursion guard, procedures over bindings.

#include <gtest/gtest.h>

#include "excess/database.h"

namespace exodus {
namespace {

using excess::QueryResult;

class FunctionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Must(R"(
      define type Kid (name: char[20], allowance: float8)
      define type Person (name: char[25], kids: {own ref Kid})
      define type Employee inherits Person (salary: float8)
      define type Manager inherits Employee (bonus: float8)
      create People : {Person}
      create Employees : {Employee}
      append to Employees (name = "e1", salary = 100.0,
        kids = {(name = "k", allowance = 5.0)})
    )");
  }

  QueryResult Must(const std::string& q) {
    auto r = db_.Execute(q);
    EXPECT_TRUE(r.ok()) << q << "\n -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  Database db_;
};

TEST_F(FunctionTest, DerivedAttributeSyntax) {
  // Wealth: the paper's motivating derived-data function.
  Must(R"(define function Wealth (E: Employee) returns float8 as
          retrieve (E.salary + sum(K.allowance from K in E.kids)))");
  // Attribute-style invocation (no parentheses)...
  QueryResult r = Must("retrieve (E.Wealth) from E in Employees");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 105.0);
  // ...method style...
  r = Must("retrieve (E.Wealth()) from E in Employees");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 105.0);
  // ...and symmetric call style.
  r = Must("retrieve (Wealth(E)) from E in Employees");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 105.0);
}

TEST_F(FunctionTest, FunctionsUsableInPredicates) {
  Must(R"(append to Employees (name = "e2", salary = 1.0))");
  Must(R"(define function Rich (E: Employee) returns bool as
          retrieve (E.salary > 50.0))");
  QueryResult r = Must(
      "retrieve (E.name) from E in Employees where E.Rich");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "e1");
}

TEST_F(FunctionTest, SetValuedFunction) {
  Must(R"(append to Employees (name = "e2", salary = 500.0))");
  Must(R"(define function RicherThan (E: Employee) returns {char[25]} as
          retrieve (F.name) from F in Employees
          where F.salary > E.salary)");
  QueryResult r = Must(R"(retrieve (E.RicherThan) from E in Employees
                          where E.name = "e1")");
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0][0].kind(), object::ValueKind::kSet);
  ASSERT_EQ(r.rows[0][0].set().elems.size(), 1u);
  EXPECT_EQ(r.rows[0][0].set().elems[0].AsString(), "e2");
}

TEST_F(FunctionTest, MultiArgumentFunctions) {
  Must(R"(define function Scaled (E: Employee, f: float8) returns float8 as
          retrieve (E.salary * f))");
  QueryResult r = Must("retrieve (E.Scaled(2.0), Scaled(E, 3.0)) "
                       "from E in Employees");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 200.0);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsFloat(), 300.0);
}

TEST_F(FunctionTest, LateBindingDispatchesOnRuntimeType) {
  Must(R"(define function Pay (E: Employee) returns float8 as
          retrieve (E.salary))");
  Must(R"(define function Pay (M: Manager) returns float8 as
          retrieve (M.salary + M.bonus))");
  Must(R"(append to Employees (name = "m", salary = 10.0))");
  // Managers can live in the Employees extent (substitutability). Build
  // one through a Managers extent and move a reference... simpler: a
  // separate extent, queried through a Person-typed range.
  Must("create Managers : {Manager}");
  Must(R"(append to Managers (name = "boss", salary = 10.0, bonus = 90.0))");
  QueryResult r = Must("retrieve (M.Pay) from M in Managers");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 100.0);  // Manager override
  r = Must(R"(retrieve (E.Pay) from E in Employees where E.name = "m")");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 10.0);   // base version
}

TEST_F(FunctionTest, InheritedFunctionsThroughLattice) {
  Must(R"(define function KidCount (P: Person) returns int4 as
          retrieve (count(P.kids)))");
  // Employee inherits KidCount from Person.
  QueryResult r = Must(R"(retrieve (E.KidCount) from E in Employees
                          where E.name = "e1")");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST_F(FunctionTest, EarlyBindingUsesStaticType) {
  Must(R"(define early function Label (P: Person) returns text as
          retrieve ("person"))");
  Must(R"(define function Label (M: Manager) returns text as
          retrieve ("manager"))");
  Must("create Managers : {Manager}");
  Must(R"(append to Managers (name = "boss", salary = 1.0, bonus = 1.0))");
  // Through a Person-typed named ref, the early-bound Person version is
  // chosen even though the runtime type is Manager (C++ non-virtual
  // analogy, paper §4.2.2).
  Must("create Someone : ref Person");
  Must("assign Someone = M from M in Managers");
  QueryResult r = Must("retrieve (Someone.Label)");
  EXPECT_EQ(r.rows[0][0].AsString(), "person");
  // Through a Manager-typed range, the Manager version applies.
  r = Must("retrieve (M.Label) from M in Managers");
  EXPECT_EQ(r.rows[0][0].AsString(), "manager");
}

TEST_F(FunctionTest, RedefinitionForSameReceiverRejected) {
  Must(R"(define function F (E: Employee) returns int4 as retrieve (1))");
  auto r = db_.Execute(
      "define function F (E: Employee) returns int4 as retrieve (2)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kAlreadyExists);
}

TEST_F(FunctionTest, RecursionGuard) {
  Must(R"(define function Loop (E: Employee) returns float8 as
          retrieve (E.Loop))");
  auto r = db_.Execute("retrieve (E.Loop) from E in Employees");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kOutOfRange);
}

TEST_F(FunctionTest, ProceduresExecuteForAllBindings) {
  Must(R"(append to Employees (name = "e2", salary = 10.0))");
  Must(R"(append to Employees (name = "e3", salary = 20.0))");
  Must(R"(define procedure GiveRaise (E: Employee, amount: float8) as
          replace E (salary = E.salary + amount))");
  QueryResult r = Must(R"(execute GiveRaise(E, 5.0) from E in Employees
                          where E.salary < 50.0)");
  EXPECT_EQ(r.affected, 2u);
  r = Must("retrieve (sum(E.salary)) from E in Employees");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 100.0 + 15.0 + 25.0);
}

TEST_F(FunctionTest, ParameterOnlyWhereGuardsProcedureUpdates) {
  // `E.salary > 50.0` names no range variable, so it is a constant
  // filter of the body's replace: when it fails, nothing is replaced.
  Must(R"(append to Employees (name = "e2", salary = 10.0))");
  Must(R"(define procedure Cap (E: Employee) as
          replace E (salary = 50.0) where E.salary > 50.0)");
  QueryResult r = Must("execute Cap(E) from E in Employees");
  EXPECT_EQ(r.affected, 1u);
  r = Must(R"(retrieve (E.name, E.salary) from E in Employees
              sort by E.name)");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsFloat(), 50.0);  // e1 was 100.0
  EXPECT_DOUBLE_EQ(r.rows[1][1].AsFloat(), 10.0);  // e2 untouched
}

TEST_F(FunctionTest, ProcedureWithConstantArgsRunsOnce) {
  Must(R"(define procedure Hire (n: char[25], s: float8) as
          append to Employees (name = n, salary = s))");
  Must(R"(execute Hire("newbie", 42.0))");
  QueryResult r = Must(R"(retrieve (E.salary) from E in Employees
                          where E.name = "newbie")");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 42.0);
}

TEST_F(FunctionTest, MultiStatementProcedure) {
  Must("create Audit : {text}");
  Must(R"(define procedure Fire (E: Employee) as begin
            append to Audit ("fired");
            delete X from X in Employees where X is E
          end)");
  Must(R"(execute Fire(E) from E in Employees where E.name = "e1")");
  QueryResult r = Must("retrieve (count(E)) from E in Employees");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  r = Must("retrieve (count(A)) from A in Audit");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

TEST_F(FunctionTest, WrongArityRejected) {
  Must(R"(define function One (E: Employee) returns int4 as retrieve (1))");
  auto r = db_.Execute("retrieve (One(E, 5)) from E in Employees");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kTypeError);
}

TEST_F(FunctionTest, FunctionsComposeTransitively) {
  Must(R"(define function Net (E: Employee) returns float8 as
          retrieve (E.salary * 0.7))");
  Must(R"(define function NetTwice (E: Employee) returns float8 as
          retrieve (E.Net * 2.0))");
  QueryResult r = Must("retrieve (E.NetTwice) from E in Employees");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsFloat(), 140.0);
}

TEST_F(FunctionTest, ScalarFunctionOnEmptyResultIsNull) {
  Must(R"(define function Best (E: Employee) returns char[25] as
          retrieve (F.name) from F in Employees
          where F.salary > 1000.0)");
  QueryResult r = Must("retrieve (isnull(E.Best)) from E in Employees");
  EXPECT_TRUE(r.rows[0][0].AsBool());
}

}  // namespace
}  // namespace exodus
