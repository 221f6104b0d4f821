// Differential property test: random predicates and aggregates are
// evaluated both by the EXCESS engine and by a direct C++ model over
// the same data; results must agree exactly.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <sstream>

#include "excess/database.h"
#include "excess/session.h"

namespace exodus {
namespace {

struct Row {
  int id;
  int age;
  double salary;
  std::string name;
};

class QueryPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    ASSERT_TRUE(db_.Execute(R"(
      define type Employee (id: int4, age: int4, salary: float8,
                            name: char[10])
      create Employees : {Employee}
    )")
                    .ok());
    const char* names[] = {"ann", "bob", "cho", "dee", "eli"};
    for (int i = 0; i < 80; ++i) {
      Row row;
      row.id = i;
      row.age = std::uniform_int_distribution<int>(20, 70)(rng);
      row.salary =
          std::uniform_int_distribution<int>(0, 40)(rng) * 2.5;
      row.name = names[std::uniform_int_distribution<int>(0, 4)(rng)];
      rows_.push_back(row);
      std::ostringstream q;
      q << "append to Employees (id = " << row.id << ", age = " << row.age
        << ", salary = " << row.salary << ", name = \"" << row.name
        << "\")";
      ASSERT_TRUE(db_.Execute(q.str()).ok());
    }
    rng_.seed(static_cast<unsigned>(GetParam()) * 7919u + 13u);
  }

  // A random predicate as (EXCESS text, C++ evaluator).
  using Pred = std::function<bool(const Row&)>;
  std::pair<std::string, Pred> RandomPredicate(int depth) {
    int choice = std::uniform_int_distribution<int>(0, depth > 0 ? 5 : 2)(rng_);
    switch (choice) {
      case 0: {  // numeric comparison on age
        int k = std::uniform_int_distribution<int>(20, 70)(rng_);
        int op = std::uniform_int_distribution<int>(0, 4)(rng_);
        const char* ops[] = {"<", "<=", ">", ">=", "="};
        std::string text = "E.age " + std::string(ops[op]) + " " +
                           std::to_string(k);
        Pred fn = [k, op](const Row& r) {
          switch (op) {
            case 0: return r.age < k;
            case 1: return r.age <= k;
            case 2: return r.age > k;
            case 3: return r.age >= k;
            default: return r.age == k;
          }
        };
        return {text, fn};
      }
      case 1: {  // float comparison on salary (grid values: exact compares)
        double k = std::uniform_int_distribution<int>(0, 40)(rng_) * 2.5;
        bool lt = std::uniform_int_distribution<int>(0, 1)(rng_) == 0;
        std::ostringstream text;
        text << "E.salary " << (lt ? "<" : ">=") << " " << k;
        Pred fn = [k, lt](const Row& r) {
          return lt ? r.salary < k : r.salary >= k;
        };
        return {text.str(), fn};
      }
      case 2: {  // string equality / membership
        const char* names[] = {"ann", "bob", "cho", "dee", "eli", "zzz"};
        std::string n = names[std::uniform_int_distribution<int>(0, 5)(rng_)];
        if (std::uniform_int_distribution<int>(0, 1)(rng_) == 0) {
          Pred fn = [n](const Row& r) { return r.name == n; };
          return {"E.name = \"" + n + "\"", fn};
        }
        std::string n2 = names[std::uniform_int_distribution<int>(0, 5)(rng_)];
        Pred fn = [n, n2](const Row& r) {
          return r.name == n || r.name == n2;
        };
        return {"E.name in {\"" + n + "\", \"" + n2 + "\"}", fn};
      }
      case 3: {  // conjunction
        auto [t1, f1] = RandomPredicate(depth - 1);
        auto [t2, f2] = RandomPredicate(depth - 1);
        Pred fn = [f1, f2](const Row& r) { return f1(r) && f2(r); };
        return {"(" + t1 + " and " + t2 + ")", fn};
      }
      case 4: {  // disjunction
        auto [t1, f1] = RandomPredicate(depth - 1);
        auto [t2, f2] = RandomPredicate(depth - 1);
        Pred fn = [f1, f2](const Row& r) { return f1(r) || f2(r); };
        return {"(" + t1 + " or " + t2 + ")", fn};
      }
      default: {  // negation
        auto [t, f] = RandomPredicate(depth - 1);
        Pred fn = [f](const Row& r) { return !f(r); };
        return {"(not " + t + ")", fn};
      }
    }
  }

  Database db_;
  std::vector<Row> rows_;
  std::mt19937 rng_;
};

TEST_P(QueryPropertyTest, FiltersMatchModel) {
  for (int trial = 0; trial < 40; ++trial) {
    auto [text, fn] = RandomPredicate(2);
    auto r = db_.Execute("retrieve (E.id) from E in Employees where " +
                         text);
    ASSERT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    std::multiset<int> got;
    for (const auto& row : r->rows) {
      got.insert(static_cast<int>(row[0].AsInt()));
    }
    std::multiset<int> expect;
    for (const Row& row : rows_) {
      if (fn(row)) expect.insert(row.id);
    }
    EXPECT_EQ(got, expect) << text;
  }
}

TEST_P(QueryPropertyTest, AggregatesMatchModel) {
  for (int trial = 0; trial < 25; ++trial) {
    auto [text, fn] = RandomPredicate(1);
    auto r = db_.Execute(
        "retrieve (count(E), sum(E.salary), min(E.age), max(E.age)) "
        "from E in Employees where " +
        text);
    ASSERT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    int64_t count = 0;
    double sum = 0;
    int min_age = 1 << 30;
    int max_age = -(1 << 30);
    for (const Row& row : rows_) {
      if (!fn(row)) continue;
      ++count;
      sum += row.salary;
      min_age = std::min(min_age, row.age);
      max_age = std::max(max_age, row.age);
    }
    const auto& out = r->rows[0];
    EXPECT_EQ(out[0].AsInt(), count) << text;
    if (count == 0) {
      EXPECT_TRUE(out[1].is_null());
      EXPECT_TRUE(out[2].is_null());
    } else {
      EXPECT_DOUBLE_EQ(out[1].AsFloat(), sum) << text;
      EXPECT_EQ(out[2].AsInt(), min_age) << text;
      EXPECT_EQ(out[3].AsInt(), max_age) << text;
    }
  }
}

TEST_P(QueryPropertyTest, IndexAndScanAgree) {
  ASSERT_TRUE(
      db_.Execute("create index AgeIdx on Employees (age) using btree").ok());
  for (int trial = 0; trial < 25; ++trial) {
    int k = std::uniform_int_distribution<int>(20, 70)(rng_);
    const char* ops[] = {"<", "<=", ">", ">=", "="};
    std::string op = ops[std::uniform_int_distribution<int>(0, 4)(rng_)];
    // Indexed predicate on age plus residual on salary: the optimizer
    // uses AgeIdx; results must equal the model regardless.
    std::string text = "E.age " + op + " " + std::to_string(k) +
                       " and E.salary >= 10.0";
    auto r =
        db_.Execute("retrieve (E.id) from E in Employees where " + text);
    ASSERT_TRUE(r.ok()) << text;
    std::multiset<int> got;
    for (const auto& row : r->rows) {
      got.insert(static_cast<int>(row[0].AsInt()));
    }
    std::multiset<int> expect;
    for (const Row& row : rows_) {
      bool age_ok = op == "<"    ? row.age < k
                    : op == "<=" ? row.age <= k
                    : op == ">"  ? row.age > k
                    : op == ">=" ? row.age >= k
                                 : row.age == k;
      if (age_ok && row.salary >= 10.0) expect.insert(row.id);
    }
    EXPECT_EQ(got, expect) << text;
  }
}

TEST_P(QueryPropertyTest, SortOrderMatchesModel) {
  auto r = db_.Execute(
      "retrieve (E.id) from E in Employees sort by E.age, E.id");
  ASSERT_TRUE(r.ok());
  std::vector<Row> sorted = rows_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Row& a, const Row& b) {
                     if (a.age != b.age) return a.age < b.age;
                     return a.id < b.id;
                   });
  ASSERT_EQ(r->rows.size(), sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(r->rows[i][0].AsInt(), sorted[i].id) << i;
  }
}

TEST_P(QueryPropertyTest, HashJoinAndNestedLoopAgree) {
  // Random self equi-joins with random residual predicates, executed
  // twice — hash joins on and off — must produce identical row
  // multisets (plans differ; results must not).
  auto with_hash = db_.CreateSession();
  ASSERT_TRUE(with_hash.ok());
  auto without_hash = db_.CreateSession();
  ASSERT_TRUE(without_hash.ok());
  (*without_hash)->mutable_options()->hash_join = false;

  const char* join_attrs[] = {"age", "name", "salary"};
  for (int trial = 0; trial < 15; ++trial) {
    std::string attr =
        join_attrs[std::uniform_int_distribution<int>(0, 2)(rng_)];
    auto [pred, fn] = RandomPredicate(1);
    std::string q = "retrieve (E.id, F.id) from E in Employees, "
                    "F in Employees where F." +
                    attr + " = E." + attr + " and " + pred;

    auto render = [](const excess::QueryResult& r) {
      std::multiset<std::pair<int64_t, int64_t>> out;
      for (const auto& row : r.rows) {
        out.insert({row[0].AsInt(), row[1].AsInt()});
      }
      return out;
    };
    auto hashed = (*with_hash)->Execute(q);
    ASSERT_TRUE(hashed.ok()) << q << " -> " << hashed.status().ToString();
    auto nested = (*without_hash)->Execute(q);
    ASSERT_TRUE(nested.ok()) << q << " -> " << nested.status().ToString();
    EXPECT_EQ(render(*hashed), render(*nested)) << q;

    // Cross-check against the model: F joins E on exact attr equality,
    // with the residual predicate applied to E.
    std::multiset<std::pair<int64_t, int64_t>> expect;
    for (const Row& e : rows_) {
      if (!fn(e)) continue;
      for (const Row& f : rows_) {
        bool eq = attr == "age"    ? f.age == e.age
                  : attr == "name" ? f.name == e.name
                                   : f.salary == e.salary;
        if (eq) expect.insert({e.id, f.id});
      }
    }
    EXPECT_EQ(render(*hashed), expect) << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace exodus
