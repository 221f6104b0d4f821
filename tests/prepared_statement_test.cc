// Session / PreparedStatement embedding API: Prepare/Bind/Execute
// lifecycle, bind-time type checking, the shared LRU plan cache (hits,
// misses, schema-generation invalidation, eviction), per-session
// `range of` isolation and `set user` scoping.

#include "excess/session.h"

#include <gtest/gtest.h>

#include "excess/database.h"
#include "object/value.h"

namespace exodus {
namespace {

using object::Value;

class PreparedStatementTest : public ::testing::Test {
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

TEST_F(PreparedStatementTest, PrepareBindExecute) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto stmt = (*session)->Prepare(
      "retrieve (E.name) from E in Employees where E.age > $1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->param_count(), 1);

  ASSERT_TRUE((*stmt)->Bind(1, 30).ok());
  auto r = (*stmt)->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);

  // Rebinding changes the result without re-preparing.
  ASSERT_TRUE((*stmt)->Bind(1, 40).ok());
  r = (*stmt)->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "cindy");
}

TEST_F(PreparedStatementTest, BindTypeMismatchIsAnError) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  auto stmt = (*session)->Prepare(
      "retrieve (E.name) from E in Employees where E.age > $1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  // $1 is inferred as int4 from the comparison with E.age.
  util::Status st = (*stmt)->Bind(1, "thirty");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("$1"), std::string::npos) << st.ToString();

  // A correct value still works afterwards.
  EXPECT_TRUE((*stmt)->Bind(1, 30).ok());
  EXPECT_TRUE((*stmt)->Execute().ok());
}

TEST_F(PreparedStatementTest, BindValidatesIndexAndExecuteRequiresBinding) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  auto stmt = (*session)->Prepare(
      "retrieve (E.name) from E in Employees where E.age > $1");
  ASSERT_TRUE(stmt.ok());

  EXPECT_FALSE((*stmt)->Bind(0, 1).ok());
  EXPECT_FALSE((*stmt)->Bind(2, 1).ok());

  // Executing with $1 unbound is an error, not a NULL comparison.
  EXPECT_FALSE((*stmt)->Execute().ok());
  ASSERT_TRUE((*stmt)->Bind(1, 30).ok());
  EXPECT_TRUE((*stmt)->Execute().ok());

  (*stmt)->ClearBindings();
  EXPECT_FALSE((*stmt)->Execute().ok());
}

TEST_F(PreparedStatementTest, RePrepareHitsThePlanCache) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  const std::string query =
      "retrieve (E.name) from E in Employees where E.age > $1";

  auto before = db_.CacheStats();
  auto s1 = (*session)->Prepare(query);
  ASSERT_TRUE(s1.ok());
  auto mid = db_.CacheStats();
  EXPECT_EQ(mid.misses, before.misses + 1);
  EXPECT_EQ(mid.hits, before.hits);

  // Same text (modulo whitespace and comments) — served from cache.
  auto s2 = (*session)->Prepare(
      "retrieve (E.name)  from E in Employees\n"
      "  where E.age > $1  -- reformatted");
  ASSERT_TRUE(s2.ok());
  auto after = db_.CacheStats();
  EXPECT_EQ(after.hits, mid.hits + 1);
  EXPECT_EQ(after.misses, mid.misses);
}

TEST_F(PreparedStatementTest, OptimizerSwitchesAreNotSharedThroughTheCache) {
  // The plan cache is shared across sessions; a session that disables
  // an optimizer rule must not be served a plan built with it on (or
  // vice versa). Regression: CacheKey once ignored the optimizer switches.
  const std::string query =
      "retrieve (E.name, F.name) from E in Employees, F in Employees "
      "where F.age = E.age";

  auto with_hash = db_.CreateSession();
  ASSERT_TRUE(with_hash.ok());
  auto s1 = (*with_hash)->Prepare(query);
  ASSERT_TRUE(s1.ok());
  EXPECT_NE((*s1)->plan_text().find("HashJoin"), std::string::npos);

  // Same options, same text: another session still shares the plan.
  auto with_hash2 = db_.CreateSession();
  ASSERT_TRUE(with_hash2.ok());
  auto before = db_.CacheStats();
  auto s2 = (*with_hash2)->Prepare(query);
  ASSERT_TRUE(s2.ok());
  auto after = db_.CacheStats();
  EXPECT_EQ(after.hits, before.hits + 1);

  auto without_hash = db_.CreateSession();
  ASSERT_TRUE(without_hash.ok());
  (*without_hash)->mutable_options()->hash_join = false;
  auto s3 = (*without_hash)->Prepare(query);
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ((*s3)->plan_text().find("HashJoin"), std::string::npos);

  auto no_indexes = db_.CreateSession();
  ASSERT_TRUE(no_indexes.ok());
  (*no_indexes)->mutable_options()->use_indexes = false;
  ASSERT_TRUE(db_.Execute("create index AgeIdx on Employees (age) using btree")
                  .ok());
  auto s4 = (*no_indexes)->Prepare(query);
  ASSERT_TRUE(s4.ok());
  EXPECT_EQ((*s4)->plan_text().find("IndexScan"), std::string::npos);
}

TEST_F(PreparedStatementTest, DdlBetweenExecutionsForcesReplan) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  auto stmt = (*session)->Prepare(
      "retrieve (E.name) from E in Employees where E.age > $1");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE((*stmt)->Bind(1, 30).ok());
  ASSERT_TRUE((*stmt)->Execute().ok());

  // DDL bumps the catalog's schema generation...
  ASSERT_TRUE(db_.Execute("define type Extra (x: int4)").ok());

  // ...so the next Execute must re-plan: the stale entry is dropped
  // (one invalidation) and rebuilt (one miss).
  auto before = db_.CacheStats();
  auto r = (*stmt)->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);
  auto after = db_.CacheStats();
  EXPECT_EQ(after.invalidations, before.invalidations + 1);
  EXPECT_EQ(after.misses, before.misses + 1);

  // Steady state again: further executions replan nothing.
  before = db_.CacheStats();
  ASSERT_TRUE((*stmt)->Execute().ok());
  after = db_.CacheStats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.invalidations, before.invalidations);
}

TEST_F(PreparedStatementTest, CreateIndexInvalidatesAndUpgradesThePlan) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  auto stmt = (*session)->Prepare(
      "retrieve (E.name) from E in Employees where E.age = $1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->plan_text().find("IndexScan"), std::string::npos)
      << (*stmt)->plan_text();
  ASSERT_TRUE((*stmt)->Bind(1, 35).ok());
  ASSERT_TRUE((*stmt)->Execute().ok());

  ASSERT_TRUE(
      db_.Execute("create index AgeIdx on Employees (age) using btree").ok());

  // The re-plan after `create index` picks up the new index.
  auto r = (*stmt)->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "bob");
  EXPECT_NE((*stmt)->plan_text().find("IndexScan"), std::string::npos)
      << (*stmt)->plan_text();

  // `drop index` invalidates again and falls back to a scan.
  ASSERT_TRUE(db_.Execute("drop index AgeIdx").ok());
  ASSERT_TRUE((*stmt)->Execute().ok());
  EXPECT_EQ((*stmt)->plan_text().find("IndexScan"), std::string::npos)
      << (*stmt)->plan_text();
}

TEST_F(PreparedStatementTest, DropInvalidatesPlansOfOtherStatements) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(db_.Execute("create Scratch : {Employee}").ok());
  auto stmt = (*session)->Prepare(
      "retrieve (E.name) from E in Employees where E.age > $1");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE((*stmt)->Bind(1, 30).ok());
  ASSERT_TRUE((*stmt)->Execute().ok());

  ASSERT_TRUE(db_.Execute("drop Scratch").ok());
  auto before = db_.CacheStats();
  ASSERT_TRUE((*stmt)->Execute().ok());
  auto after = db_.CacheStats();
  EXPECT_EQ(after.invalidations, before.invalidations + 1);
}

TEST_F(PreparedStatementTest, SessionsHaveIsolatedRanges) {
  auto s1 = db_.CreateSession();
  auto s2 = db_.CreateSession();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());

  // Same statement text, different `range of` declarations per session.
  ASSERT_TRUE(db_.Execute(R"(
    create Youngsters : {Employee}
    append to Youngsters (name = "zed", age = 7, salary = 0.0)
  )").ok());
  ASSERT_TRUE((*s1)->Execute("range of W is Employees").ok());
  ASSERT_TRUE((*s2)->Execute("range of W is Youngsters").ok());

  auto q1 = (*s1)->Prepare("retrieve (W.name) where W.age > $1");
  auto q2 = (*s2)->Prepare("retrieve (W.name) where W.age > $1");
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();

  ASSERT_TRUE((*q1)->Bind(1, 0).ok());
  ASSERT_TRUE((*q2)->Bind(1, 0).ok());
  auto r1 = (*q1)->Execute();
  auto r2 = (*q2)->Execute();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1->rows.size(), 3u);  // Employees
  ASSERT_EQ(r2->rows.size(), 1u);  // Youngsters
  EXPECT_EQ(r2->rows[0][0].AsString(), "zed");

  // The default session has no range W at all.
  EXPECT_FALSE(db_.Execute("retrieve (W.name) where W.age > 0").ok());
}

TEST_F(PreparedStatementTest, RangeRedeclarationRePreparesTransparently) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(db_.Execute(R"(
    create Youngsters : {Employee}
    append to Youngsters (name = "zed", age = 7, salary = 0.0)
  )").ok());

  ASSERT_TRUE((*session)->Execute("range of W is Employees").ok());
  auto stmt = (*session)->Prepare("retrieve (W.name) where W.age > $1");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE((*stmt)->Bind(1, 0).ok());
  auto r = (*stmt)->Execute();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);

  // Re-pointing W re-prepares the handle against the new range.
  ASSERT_TRUE((*session)->Execute("range of W is Youngsters").ok());
  r = (*stmt)->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "zed");
}

TEST_F(PreparedStatementTest, SessionsHaveIsolatedUsers) {
  ASSERT_TRUE(db_.Execute("create user carey").ok());
  auto mine = db_.CreateSession("carey");
  ASSERT_TRUE(mine.ok()) << mine.status().ToString();
  EXPECT_EQ((*mine)->user(), "carey");
  EXPECT_EQ(db_.current_user(), "dba");

  // No retrieve grant for carey on Employees yet.
  auto stmt = (*mine)->Prepare("retrieve (E.name) from E in Employees");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_FALSE((*stmt)->Execute().ok());

  // Privileges are re-checked per execution, so a grant takes effect
  // without re-preparing.
  ASSERT_TRUE(db_.Execute("grant retrieve on Employees to carey").ok());
  EXPECT_TRUE((*stmt)->Execute().ok());

  EXPECT_FALSE(db_.CreateSession("nobody").ok());
}

TEST_F(PreparedStatementTest, PreparedUpdatesExecuteAndJournalParameters) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  auto ins = (*session)->Prepare(
      "append to Employees (name = $1, age = $2, salary = $3)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ((*ins)->param_count(), 3);

  ASSERT_TRUE((*ins)->BindAll("dave", 52, 40.5).ok());
  auto r = (*ins)->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->affected, 1u);

  auto count = db_.Execute("retrieve (count(E)) from E in Employees");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 4);
}

TEST_F(PreparedStatementTest, DdlPreparesButTakesNoParameters) {
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());

  // DDL can be prepared (and re-executed from the AST)...
  auto ddl = (*session)->Prepare("define type Widget (w: int4)");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  EXPECT_EQ((*ddl)->param_count(), 0);
  ASSERT_TRUE((*ddl)->Execute().ok());
  EXPECT_FALSE((*ddl)->Execute().ok());  // already defined

  // ...but cannot carry $n parameters.
  EXPECT_FALSE((*session)->Prepare("create $1 : {Employee}").ok());
}

TEST_F(PreparedStatementTest, LruEvictionIsBoundedAndCounted) {
  db_.plan_cache()->Clear();
  auto session = db_.CreateSession();
  ASSERT_TRUE(session.ok());
  const size_t capacity = db_.plan_cache()->capacity();

  auto before = db_.CacheStats();
  for (size_t i = 0; i < capacity + 5; ++i) {
    auto stmt = (*session)->Prepare(
        "retrieve (E.name) from E in Employees where E.age > " +
        std::to_string(i));
    ASSERT_TRUE(stmt.ok());
  }
  auto after = db_.CacheStats();
  EXPECT_EQ(db_.plan_cache()->size(), capacity);
  EXPECT_EQ(after.evictions, before.evictions + 5);
}

}  // namespace
}  // namespace exodus
