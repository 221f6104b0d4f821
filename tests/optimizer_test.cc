// Optimizer: plan shapes — predicate pushdown to the right loop level,
// greedy join ordering by index availability and cardinality, index
// access-path selection including range predicates.

#include "excess/optimizer.h"

#include <gtest/gtest.h>

#include "excess/database.h"
#include "excess/parser.h"

namespace exodus::excess {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = db_.Execute(R"(
      define type Department (name: char[20], floor: int4)
      define type Person (name: char[25], kids: {own ref Person})
      define type Employee inherits Person (
        salary: float8, dept: ref Department)
      create Departments : {Department}
      create Employees : {Employee}
    )");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Make Employees much bigger than Departments.
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db_.Execute("append to Employees (name = \"e" +
                              std::to_string(i) + "\", salary = " +
                              std::to_string(i) + ".0)")
                      .ok());
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(db_.Execute("append to Departments (name = \"d" +
                              std::to_string(i) + "\", floor = " +
                              std::to_string(i) + ")")
                      .ok());
    }
  }

  Plan MustPlan(const std::string& text) {
    Parser parser(text, db_.adts());
    auto stmt = parser.ParseSingleStatement();
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    stmt_ = std::move(*stmt);
    session_.clear();
    Binder binder(db_.catalog(), db_.functions(), db_.adts(), &session_);
    auto q = binder.Bind(*stmt_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    query_ = std::move(*q);
    Optimizer opt(db_.catalog(), db_.indexes(), &binder);
    auto plan = opt.Optimize(query_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? std::move(*plan) : Plan{};
  }

  Database db_;
  StmtPtr stmt_;
  BoundQuery query_;
  std::map<std::string, ExprPtr> session_;
};

TEST_F(OptimizerTest, SingleVarPredicatesPushToScan) {
  Plan p = MustPlan(
      "retrieve (E.name) from E in Employees where E.salary > 1.0");
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].kind, PlanStep::Kind::kScan);
  ASSERT_EQ(p.steps[0].filters.size(), 1u);
}

TEST_F(OptimizerTest, ConstantConjunctsHoistedOutOfLoops) {
  Plan p = MustPlan(
      "retrieve (E.name) from E in Employees where 1 = 2 and E.salary > 0.0");
  EXPECT_EQ(p.constant_filters.size(), 1u);
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].filters.size(), 1u);
}

TEST_F(OptimizerTest, SmallerExtentBecomesOuterLoop) {
  Plan p = MustPlan(
      "retrieve (E.name, D.name) from E in Employees, D in Departments "
      "where E.dept is D");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].named_collection, "Departments");  // 2 rows
  EXPECT_EQ(p.steps[1].named_collection, "Employees");    // 20 rows
  // The join predicate runs at the inner level.
  EXPECT_TRUE(p.steps[0].filters.empty());
  EXPECT_EQ(p.steps[1].filters.size(), 1u);
}

TEST_F(OptimizerTest, DependentUnnestsFollowTheirParents) {
  Plan p = MustPlan(
      "retrieve (K.name) from E in Employees, K in E.kids "
      "where K.name = \"x\"");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].var_name, "E");
  EXPECT_EQ(p.steps[1].kind, PlanStep::Kind::kUnnest);
  EXPECT_EQ(p.steps[1].var_name, "K");
  EXPECT_EQ(p.steps[1].filters.size(), 1u);
}

TEST_F(OptimizerTest, EqualityIndexScanSelected) {
  ASSERT_TRUE(
      db_.Execute("create index SalIdx on Employees (salary) using btree")
          .ok());
  Plan p = MustPlan(
      "retrieve (E.name) from E in Employees where E.salary = 5.0");
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].kind, PlanStep::Kind::kIndexScan);
  EXPECT_EQ(p.steps[0].index_name, "SalIdx");
  EXPECT_EQ(p.steps[0].key_op, "=");
  // The consumed conjunct is not re-checked as a filter.
  EXPECT_TRUE(p.steps[0].filters.empty());
}

TEST_F(OptimizerTest, ReversedComparisonFlipsOperator) {
  ASSERT_TRUE(
      db_.Execute("create index SalIdx on Employees (salary) using btree")
          .ok());
  Plan p = MustPlan(
      "retrieve (E.name) from E in Employees where 5.0 > E.salary");
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].kind, PlanStep::Kind::kIndexScan);
  EXPECT_EQ(p.steps[0].key_op, "<");
}

TEST_F(OptimizerTest, IndexDrivenJoinOrder) {
  ASSERT_TRUE(
      db_.Execute("create index FloorIdx on Departments (floor) using btree")
          .ok());
  // Departments has an index-equality access given E: E scans first,
  // then Departments probes by key E.dept.floor... but that predicate
  // references D.floor = E.dept.floor.
  Plan p = MustPlan(
      "retrieve (E.name) from E in Employees, D in Departments "
      "where D.floor = E.dept.floor");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].var_name, "E");
  EXPECT_EQ(p.steps[1].kind, PlanStep::Kind::kIndexScan);
  EXPECT_EQ(p.steps[1].index_name, "FloorIdx");
}

TEST_F(OptimizerTest, HashIndexNotUsedForRanges) {
  ASSERT_TRUE(
      db_.Execute("create index NameIdx on Employees (name) using hash")
          .ok());
  Plan eq = MustPlan(
      "retrieve (E.salary) from E in Employees where E.name = \"e1\"");
  EXPECT_EQ(eq.steps[0].kind, PlanStep::Kind::kIndexScan);
  Plan rng = MustPlan(
      "retrieve (E.salary) from E in Employees where E.name > \"e1\"");
  EXPECT_EQ(rng.steps[0].kind, PlanStep::Kind::kScan);
}

TEST_F(OptimizerTest, EqualityPreferredOverRangeAccess) {
  ASSERT_TRUE(
      db_.Execute("create index SalIdx on Employees (salary) using btree")
          .ok());
  Plan p = MustPlan(
      "retrieve (E.name) from E in Employees "
      "where E.salary > 1.0 and E.salary = 5.0");
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].key_op, "=");
  EXPECT_EQ(p.steps[0].filters.size(), 1u);  // the range check remains
}

TEST_F(OptimizerTest, AblationPushdownOff) {
  ASSERT_TRUE(
      db_.Execute("create index SalIdx on Employees (salary) using btree")
          .ok());
  Parser parser(
      "retrieve (K.name) from E in Employees, K in E.kids "
      "where E.salary > 3.0",
      db_.adts());
  auto stmt = parser.ParseSingleStatement();
  ASSERT_TRUE(stmt.ok());
  session_.clear();
  Binder binder(db_.catalog(), db_.functions(), db_.adts(), &session_);
  auto q = binder.Bind(**stmt);
  ASSERT_TRUE(q.ok());

  SessionOptions off;
  off.predicate_pushdown = false;
  off.use_indexes = false;
  Optimizer opt(db_.catalog(), db_.indexes(), &binder, off);
  auto plan = opt.Optimize(*q);
  ASSERT_TRUE(plan.ok());
  // All conjuncts sit on the innermost step; no index scans anywhere.
  ASSERT_EQ(plan->steps.size(), 2u);
  EXPECT_TRUE(plan->steps[0].filters.empty());
  EXPECT_EQ(plan->steps[1].filters.size(), 1u);
  for (const PlanStep& s : plan->steps) {
    EXPECT_NE(s.kind, PlanStep::Kind::kIndexScan);
  }
}

TEST_F(OptimizerTest, AblationReorderingOff) {
  Parser parser(
      "retrieve (E.name) from E in Employees, D in Departments "
      "where E.dept is D",
      db_.adts());
  auto stmt = parser.ParseSingleStatement();
  ASSERT_TRUE(stmt.ok());
  session_.clear();
  Binder binder(db_.catalog(), db_.functions(), db_.adts(), &session_);
  auto q = binder.Bind(**stmt);
  ASSERT_TRUE(q.ok());

  SessionOptions off;
  off.join_reordering = false;
  Optimizer opt(db_.catalog(), db_.indexes(), &binder, off);
  auto plan = opt.Optimize(*q);
  ASSERT_TRUE(plan.ok());
  // Binder order: E first (even though Departments is smaller).
  ASSERT_EQ(plan->steps.size(), 2u);
  EXPECT_EQ(plan->steps[0].var_name, "E");
}

TEST_F(OptimizerTest, HashJoinSelectedForUnindexedEquiJoin) {
  Plan p = MustPlan(
      "retrieve (E.name) from E in Employees, D in Departments "
      "where D.floor = E.dept.floor");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].var_name, "E");
  EXPECT_EQ(p.steps[0].kind, PlanStep::Kind::kScan);
  EXPECT_EQ(p.steps[1].kind, PlanStep::Kind::kHashJoin);
  EXPECT_EQ(p.steps[1].named_collection, "Departments");
  ASSERT_EQ(p.steps[1].build_keys.size(), 1u);
  EXPECT_EQ(p.steps[1].build_keys[0]->ToString(), "D.floor");
  EXPECT_EQ(p.steps[1].probe_keys[0]->ToString(), "E.dept.floor");
  // The consumed join conjunct is not re-checked as a filter.
  EXPECT_TRUE(p.steps[1].filters.empty());
  EXPECT_NE(p.Explain().find("HashJoin Departments as D"),
            std::string::npos);
}

TEST_F(OptimizerTest, HashJoinOffRestoresNestedLoop) {
  Parser parser(
      "retrieve (E.name) from E in Employees, D in Departments "
      "where D.floor = E.dept.floor",
      db_.adts());
  auto stmt = parser.ParseSingleStatement();
  ASSERT_TRUE(stmt.ok());
  session_.clear();
  Binder binder(db_.catalog(), db_.functions(), db_.adts(), &session_);
  auto q = binder.Bind(**stmt);
  ASSERT_TRUE(q.ok());

  SessionOptions off;
  off.hash_join = false;
  Optimizer opt(db_.catalog(), db_.indexes(), &binder, off);
  auto plan = opt.Optimize(*q);
  ASSERT_TRUE(plan.ok());
  // The pre-hash-join plan: scan both extents, join predicate as an
  // inner filter, smaller extent outermost.
  ASSERT_EQ(plan->steps.size(), 2u);
  EXPECT_EQ(plan->steps[0].kind, PlanStep::Kind::kScan);
  EXPECT_EQ(plan->steps[0].named_collection, "Departments");
  EXPECT_EQ(plan->steps[1].kind, PlanStep::Kind::kScan);
  EXPECT_EQ(plan->steps[1].filters.size(), 1u);
}

TEST_F(OptimizerTest, IndexPreferredOverHashJoin) {
  ASSERT_TRUE(
      db_.Execute("create index FloorIdx on Departments (floor) using btree")
          .ok());
  Plan p = MustPlan(
      "retrieve (E.name) from E in Employees, D in Departments "
      "where D.floor = E.dept.floor");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[1].kind, PlanStep::Kind::kIndexScan);
  EXPECT_EQ(p.steps[1].index_name, "FloorIdx");
}

TEST_F(OptimizerTest, CompositeHashJoinKeysAllConsumed) {
  Plan p = MustPlan(
      "retrieve (E.name) from E in Employees, D in Departments "
      "where D.floor = E.dept.floor and D.name = E.name");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[1].kind, PlanStep::Kind::kHashJoin);
  EXPECT_EQ(p.steps[1].build_keys.size(), 2u);
  EXPECT_TRUE(p.steps[1].filters.empty());
}

TEST_F(OptimizerTest, LocalEqualitySelectionIsNotAHashJoin) {
  // A constant equality on a single extent is a selection, not a join:
  // building a hash table would cost a full pass for nothing.
  Plan p = MustPlan(
      "retrieve (E.name) from E in Employees where E.salary = 5.0");
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].kind, PlanStep::Kind::kScan);
  EXPECT_EQ(p.steps[0].filters.size(), 1u);
}

TEST_F(OptimizerTest, NonEqualityJoinIsNotHashed) {
  Plan p = MustPlan(
      "retrieve (E.name) from E in Employees, D in Departments "
      "where D.floor < E.dept.floor");
  for (const PlanStep& s : p.steps) {
    EXPECT_NE(s.kind, PlanStep::Kind::kHashJoin);
  }
}

TEST_F(OptimizerTest, RefEqualityJoinIsNotHashed) {
  // '=' on references is a TypeError the binder raises before any plan
  // exists, so a reference equality can never become a hash-join key.
  Parser parser(
      "retrieve (E.name) from E in Employees, D in Departments "
      "where E.dept = D",
      db_.adts());
  auto stmt = parser.ParseSingleStatement();
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  session_.clear();
  Binder binder(db_.catalog(), db_.functions(), db_.adts(), &session_);
  auto q = binder.Bind(**stmt);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), util::StatusCode::kTypeError);

  // The identity form ('is') binds fine but is not an equi-join: the
  // plan must stay a nested loop.
  Plan p = MustPlan(
      "retrieve (E.name) from E in Employees, D in Departments "
      "where E.dept is D");
  for (const PlanStep& s : p.steps) {
    EXPECT_NE(s.kind, PlanStep::Kind::kHashJoin);
  }
}

TEST_F(OptimizerTest, ExplainIsReadable) {
  Plan p = MustPlan(
      "retrieve (K.name) from E in Employees, K in E.kids "
      "where E.salary > 3.0");
  std::string text = p.Explain();
  EXPECT_NE(text.find("Scan Employees as E"), std::string::npos);
  EXPECT_NE(text.find("Unnest E.kids as K"), std::string::npos);
  EXPECT_NE(text.find("filter"), std::string::npos);
}

}  // namespace
}  // namespace exodus::excess
