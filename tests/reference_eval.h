#ifndef EXODUS_TESTS_REFERENCE_EVAL_H_
#define EXODUS_TESTS_REFERENCE_EVAL_H_

// A deliberately naive evaluator for EXCESS retrieves, used as the
// oracle the execution engine is checked against. It gives a retrieve
// the meaning paper §3 assigns it, the comprehension of the nested
// relational calculus: nested loops over the bound range variables in
// dependency order, the where-clause tested on every full binding, and
// the projections evaluated per surviving binding. Query-level
// aggregates are computed per output row by scanning every binding for
// the ones in the same `over` partition; `sort by` and `unique` run on
// plain vectors. Ranges, conjuncts and projections are evaluated by
// Executor::EvalStandalone with the outer variables passed in as
// parameters, so no plan step, batch, hash table, index or morsel code
// takes part.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "excess/binder.h"
#include "excess/database.h"
#include "excess/executor.h"
#include "excess/parser.h"
#include "object/value.h"
#include "util/result.h"
#include "util/status.h"

namespace exodus::reference {

class ReferenceEvaluator {
 public:
  using Row = std::vector<object::Value>;

  explicit ReferenceEvaluator(Database* db)
      : db_(db),
        binder_(db->catalog(), db->functions(), db->adts(), &no_ranges_) {
    ctx_.catalog = db->catalog();
    ctx_.heap = db->heap();
    ctx_.adts = db->adts();
    ctx_.functions = db->functions();
    ctx_.auth = db->auth();
    ctx_.indexes = db->indexes();
    ctx_.session_ranges = &no_ranges_;
  }

  /// Evaluates one retrieve statement and returns its result rows.
  util::Result<std::vector<Row>> Retrieve(const std::string& text) {
    excess::Parser parser(text, db_->adts());
    EXODUS_ASSIGN_OR_RETURN(excess::StmtPtr stmt,
                            parser.ParseSingleStatement());
    if (stmt->kind != excess::StmtKind::kRetrieve) {
      return util::Status::InvalidArgument("not a retrieve: " + text);
    }
    EXODUS_ASSIGN_OR_RETURN(query_, binder_.Bind(*stmt));

    std::vector<Params> bindings;
    Params outer;
    EXODUS_RETURN_IF_ERROR(Loop(0, &outer, &bindings));

    // One output row per binding, unless every projection is built from
    // unpartitioned query-level aggregates alone: then the bindings
    // collapse into a single row (which exists even with no bindings).
    bool any_aggregate = false;
    bool single_row = !stmt->projections.empty();
    for (const excess::Projection& p : stmt->projections) {
      excess::ExprPtr e = p.expr->Clone();
      bool partitioned = false;
      Substitute(&e, [&](const excess::Expr& agg) {
        any_aggregate = true;
        partitioned = partitioned || !agg.over.empty();
        return object::Value::Null();
      });
      std::set<std::string> locals;
      std::vector<std::string> free;
      excess::Binder::FreeVars(*e, &locals, &free, db_->catalog());
      for (const std::string& name : free) {
        if (query_.var_ids.count(name) > 0) single_row = false;
      }
      if (partitioned) single_row = false;
    }
    single_row = single_row && any_aggregate;

    std::vector<Row> rows;
    std::vector<Row> sort_keys;
    const std::vector<Params> single = {Params{}};
    for (const Params& b : single_row ? single : bindings) {
      Row row;
      for (const excess::Projection& p : stmt->projections) {
        EXODUS_ASSIGN_OR_RETURN(object::Value v,
                                EvalOutput(*p.expr, b, bindings));
        row.push_back(std::move(v));
      }
      Row key;
      for (const excess::ExprPtr& s : stmt->sort_by) {
        EXODUS_ASSIGN_OR_RETURN(object::Value v, EvalOutput(*s, b, bindings));
        key.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
      sort_keys.push_back(std::move(key));
    }

    if (!stmt->sort_by.empty() && !single_row) {
      // Stable, ascending, nulls first.
      std::vector<size_t> order(rows.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      util::Status error = util::Status::OK();
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < stmt->sort_by.size(); ++k) {
          const object::Value& va = sort_keys[a][k];
          const object::Value& vb = sort_keys[b][k];
          if (va.is_null() || vb.is_null()) {
            if (va.is_null() != vb.is_null()) return va.is_null();
            continue;
          }
          util::Result<int> c = object::ValueCompare(va, vb);
          if (!c.ok()) {
            error = c.status();
            return false;
          }
          if (*c != 0) return *c < 0;
        }
        return false;
      });
      EXODUS_RETURN_IF_ERROR(error);
      std::vector<Row> sorted;
      for (size_t i : order) sorted.push_back(std::move(rows[i]));
      rows = std::move(sorted);
    }

    if (stmt->unique) {
      std::vector<Row> kept;
      for (Row& row : rows) {
        bool seen = false;
        for (const Row& k : kept) seen = seen || RowEquals(k, row);
        if (!seen) kept.push_back(std::move(row));
      }
      rows = std::move(kept);
    }
    return rows;
  }

 private:
  /// One binding of the query's range variables, as named parameters.
  using Params = excess::Executor::ParamEnv;

  util::Result<object::Value> Eval(const excess::Expr& e, const Params& b) {
    excess::Executor ex(&ctx_);
    return ex.EvalStandalone(e, b);
  }

  /// Binds vars[i..] in nested loops below the bindings in `outer`,
  /// appending every full binding that satisfies the where-clause.
  util::Status Loop(size_t i, Params* outer, std::vector<Params>* out) {
    if (i == query_.vars.size()) {
      for (const excess::ExprPtr& c : query_.conjuncts) {
        EXODUS_ASSIGN_OR_RETURN(object::Value v, Eval(*c, *outer));
        if (v.is_null()) return util::Status::OK();
        if (v.kind() != object::ValueKind::kBool) {
          return util::Status::TypeError("non-boolean conjunct " +
                                         c->ToString());
        }
        if (!v.AsBool()) return util::Status::OK();
      }
      out->push_back(*outer);
      return util::Status::OK();
    }
    const excess::BoundVar& var = query_.vars[i];
    EXODUS_ASSIGN_OR_RETURN(object::Value coll, Eval(*var.range, *outer));
    std::vector<object::Value> elems;
    if (coll.kind() == object::ValueKind::kSet) {
      elems = coll.set().elems;
    } else if (coll.kind() == object::ValueKind::kArray) {
      elems = coll.array().elems;
    } else if (!coll.is_null()) {
      return util::Status::TypeError("range of " + var.name +
                                     " is not a collection");
    }
    for (const object::Value& e : elems) {
      if (e.is_null()) continue;  // array holes bind nothing
      outer->values[var.name] = e;
      EXODUS_RETURN_IF_ERROR(Loop(i + 1, outer, out));
    }
    outer->values.erase(var.name);
    return util::Status::OK();
  }

  /// True for an aggregate over the query's own bindings: no local
  /// `from` range, and an argument (if any) that is not a collection.
  bool IsQueryLevel(const excess::Expr& agg) const {
    if (!agg.bindings.empty()) return false;
    if (agg.args.empty()) return true;
    auto t = binder_.InferType(*agg.args[0], query_);
    return !(t.ok() && *t != nullptr && (*t)->is_collection());
  }

  /// Replaces every query-level aggregate in `*e` by a literal holding
  /// value(aggregate). Other aggregates evaluate per row, so their
  /// subtrees are left alone.
  void Substitute(excess::ExprPtr* e,
                  const std::function<object::Value(const excess::Expr&)>&
                      value) const {
    excess::Expr& x = **e;
    if (x.kind == excess::ExprKind::kAggregate) {
      if (IsQueryLevel(x)) *e = excess::MakeLiteral(value(x));
      return;
    }
    if (x.base) Substitute(&x.base, value);
    for (excess::ExprPtr& a : x.args) Substitute(&a, value);
    for (auto& [name, f] : x.fields) Substitute(&f, value);
  }

  /// Evaluates an output expression for binding `b`, with query-level
  /// aggregates computed over `all` bindings.
  util::Result<object::Value> EvalOutput(const excess::Expr& expr,
                                         const Params& b,
                                         const std::vector<Params>& all) {
    excess::ExprPtr e = expr.Clone();
    util::Status error = util::Status::OK();
    Substitute(&e, [&](const excess::Expr& agg) {
      util::Result<object::Value> v = Aggregate(agg, b, all);
      if (!v.ok()) {
        error = v.status();
        return object::Value::Null();
      }
      return *v;
    });
    EXODUS_RETURN_IF_ERROR(error);
    EXODUS_ASSIGN_OR_RETURN(object::Value v, Eval(*e, b));
    return v.DeepCopy();
  }

  /// The aggregate's value for binding `b`: its argument over every
  /// binding in b's `over` partition (all bindings when unpartitioned).
  util::Result<object::Value> Aggregate(const excess::Expr& agg,
                                        const Params& b,
                                        const std::vector<Params>& all) {
    std::vector<object::Value> part;
    for (const excess::ExprPtr& o : agg.over) {
      EXODUS_ASSIGN_OR_RETURN(object::Value v, Eval(*o, b));
      part.push_back(std::move(v));
    }
    std::vector<object::Value> vals;
    for (const Params& other : all) {
      bool same = true;
      for (size_t k = 0; k < agg.over.size() && same; ++k) {
        EXODUS_ASSIGN_OR_RETURN(object::Value v, Eval(*agg.over[k], other));
        same = object::ValueEquals(v, part[k]);
      }
      if (!same) continue;
      object::Value v = object::Value::Int(1);  // count() counts bindings
      if (!agg.args.empty()) {
        EXODUS_ASSIGN_OR_RETURN(v, Eval(*agg.args[0], other));
      }
      if (v.is_null()) continue;
      if (agg.unique) {
        bool seen = false;
        for (const object::Value& w : vals) {
          seen = seen || object::ValueEquals(w, v);
        }
        if (seen) continue;
      }
      vals.push_back(std::move(v));
    }

    if (agg.name == "count") {
      return object::Value::Int(static_cast<int64_t>(vals.size()));
    }
    if (vals.empty()) return object::Value::Null();
    if (agg.name == "sum" || agg.name == "avg") {
      double sum = 0;
      bool any_float = false;
      for (const object::Value& v : vals) {
        if (v.kind() == object::ValueKind::kFloat) {
          sum += v.AsFloat();
          any_float = true;
        } else if (v.kind() == object::ValueKind::kInt) {
          sum += static_cast<double>(v.AsInt());
        } else {
          return util::Status::TypeError(agg.name + " of a non-number");
        }
      }
      if (agg.name == "avg") {
        return object::Value::Float(sum / static_cast<double>(vals.size()));
      }
      return any_float ? object::Value::Float(sum)
                       : object::Value::Int(static_cast<int64_t>(sum));
    }
    if (agg.name == "min" || agg.name == "max") {
      object::Value best = vals[0];
      for (const object::Value& v : vals) {
        EXODUS_ASSIGN_OR_RETURN(int c, object::ValueCompare(v, best));
        if (agg.name == "min" ? c < 0 : c > 0) best = v;
      }
      return best;
    }
    return util::Status::NotImplemented("reference evaluator has no '" +
                                       agg.name + "' aggregate");
  }

  static bool RowEquals(const Row& a, const Row& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!object::ValueEquals(a[i], b[i])) return false;
    }
    return true;
  }

  Database* db_;
  const std::map<std::string, excess::ExprPtr> no_ranges_;
  excess::Binder binder_;
  excess::ExecContext ctx_;
  /// The statement being evaluated.
  excess::BoundQuery query_;
};

}  // namespace exodus::reference

#endif  // EXODUS_TESTS_REFERENCE_EVAL_H_
