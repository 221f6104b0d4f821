#include "excess/optimizer.h"

#include <algorithm>
#include <set>

namespace exodus::excess {

using util::Result;
using util::Status;

namespace {

/// Collects the ids of bound vars referenced by `e`.
std::set<int> VarIdsOf(const Expr& e, const BoundQuery& query) {
  std::set<std::string> locals;
  std::vector<std::string> names;
  Binder::FreeVars(e, &locals, &names);
  std::set<int> out;
  for (const std::string& n : names) {
    auto it = query.var_ids.find(n);
    if (it != query.var_ids.end()) out.insert(it->second);
  }
  return out;
}

const char* FlipOp(const std::string& op) {
  if (op == "<") return ">";
  if (op == "<=") return ">=";
  if (op == ">") return "<";
  if (op == ">=") return "<=";
  return "=";
}

bool IsIndexableOp(const std::string& op) {
  return op == "=" || op == "<" || op == "<=" || op == ">" || op == ">=";
}

/// True if `e` is exactly `Var(name).attr`.
bool IsVarAttr(const Expr& e, const std::string& var_name, std::string* attr) {
  if (e.kind != ExprKind::kAttr || e.base == nullptr) return false;
  if (e.base->kind != ExprKind::kVar || e.base->name != var_name) return false;
  *attr = e.name;
  return true;
}

}  // namespace

Optimizer::Optimizer(extra::Catalog* catalog, index::IndexManager* indexes,
                     const Binder* binder, SessionOptions options)
    : catalog_(catalog), indexes_(indexes), binder_(binder),
      options_(options) {}

double Optimizer::EstimateCardinality(const BoundVar& var) const {
  if (var.is_root) {
    const extra::NamedObject* named =
        catalog_->FindNamed(var.named_collection);
    if (named != nullptr) {
      // Planning reads the newest committed value: cardinality is only
      // an estimate, so snapshot precision buys nothing here.
      const object::Value& nv = named->value();
      if (nv.kind() == object::ValueKind::kSet) {
        return static_cast<double>(nv.set().elems.size());
      }
      if (nv.kind() == object::ValueKind::kArray) {
        return static_cast<double>(nv.array().elems.size());
      }
    }
    return 1000.0;
  }
  return 10.0;  // nested collections are assumed small
}

bool Optimizer::MatchIndexablePredicate(const Expr& conjunct,
                                        const BoundQuery& query, int var_id,
                                        std::string* attr, std::string* op,
                                        const Expr** key) const {
  if (conjunct.kind != ExprKind::kBinary || !IsIndexableOp(conjunct.name)) {
    return false;
  }
  const std::string& var_name = query.vars[static_cast<size_t>(var_id)].name;
  const Expr& lhs = *conjunct.args[0];
  const Expr& rhs = *conjunct.args[1];

  auto side_free_of_var = [&](const Expr& e) {
    return VarIdsOf(e, query).count(var_id) == 0;
  };

  if (IsVarAttr(lhs, var_name, attr) && side_free_of_var(rhs)) {
    *op = conjunct.name;
    *key = &rhs;
    return true;
  }
  if (IsVarAttr(rhs, var_name, attr) && side_free_of_var(lhs)) {
    *op = FlipOp(conjunct.name);
    *key = &lhs;
    return true;
  }
  return false;
}

Result<Plan> Optimizer::Optimize(const BoundQuery& query) const {
  Plan plan;
  size_t n = query.vars.size();

  // Remaining conjuncts with their variable sets.
  struct PendingConjunct {
    const Expr* expr;
    std::set<int> vars;
    bool consumed = false;
  };
  std::vector<PendingConjunct> pending;
  for (const ExprPtr& c : query.conjuncts) {
    PendingConjunct pc;
    pc.expr = c.get();
    pc.vars = VarIdsOf(*c, query);
    if (pc.vars.empty()) {
      plan.constant_filters.push_back(c->Clone());
      continue;
    }
    pending.push_back(std::move(pc));
  }

  std::set<int> placed;
  std::vector<bool> done(n, false);

  // True if `var` may serve as a hash-join build side: its collection
  // can be enumerated once, independent of outer bindings — a named
  // collection, or a range expression referencing no statement vars.
  auto hashable_build_side = [&](const BoundVar& var) -> bool {
    if (!options_.hash_join) return false;
    return var.is_root || var.depends_on.empty();
  };

  // True if the var-side attribute of a candidate hash key is statically
  // a reference: '=' rejects references at runtime, so the nested-loop
  // path must be kept to preserve that error (and `is`-joins are not
  // hash joins).
  auto attr_is_ref = [&](const BoundVar& var, const std::string& attr) {
    if (var.elem_type == nullptr) return false;
    int idx = var.elem_type->AttributeIndex(attr);
    if (idx < 0) return false;
    const extra::Attribute& a =
        var.elem_type->attributes()[static_cast<size_t>(idx)];
    return a.type != nullptr && a.type->is_ref();
  };

  // Collects every pending equality conjunct of the shape
  // `var.attr = key` (or reversed) whose key side is computable from
  // already-placed vars. A hash join is only worthwhile when at least
  // one key actually references another variable (a join, not a
  // selection), signalled through `is_join`.
  struct HashKey {
    const Expr* build;  // the var side
    const Expr* probe;  // the key side
    size_t conjunct_idx;
  };
  auto find_hash_access = [&](const BoundVar& var, std::vector<HashKey>* keys,
                              bool* is_join) -> bool {
    keys->clear();
    *is_join = false;
    if (!hashable_build_side(var)) return false;
    for (size_t ci = 0; ci < pending.size(); ++ci) {
      PendingConjunct& pc = pending[ci];
      if (pc.consumed || !pc.vars.count(var.id)) continue;
      bool ready = true;
      for (int v : pc.vars) {
        if (v != var.id && !placed.count(v)) ready = false;
      }
      if (!ready) continue;
      std::string a, o;
      const Expr* k = nullptr;
      if (!MatchIndexablePredicate(*pc.expr, query, var.id, &a, &o, &k) ||
          o != "=" || attr_is_ref(var, a)) {
        continue;
      }
      const Expr& lhs = *pc.expr->args[0];
      const Expr* build = (k == &lhs) ? pc.expr->args[1].get() : &lhs;
      keys->push_back({build, k, ci});
      if (pc.vars.size() > 1) *is_join = true;
    }
    return *is_join && !keys->empty();
  };

  // True if an equality conjunct could drive a hash join for `var` once
  // further vars are placed (mirrors has_future_index: schedule the
  // build side later so the probe keys become available).
  auto has_future_hash = [&](const BoundVar& var) -> bool {
    if (!hashable_build_side(var)) return false;
    for (const PendingConjunct& pc : pending) {
      if (pc.consumed || !pc.vars.count(var.id) || pc.vars.size() < 2) {
        continue;
      }
      bool other_unplaced = false;
      for (int v : pc.vars) {
        if (v != var.id && !placed.count(v)) other_unplaced = true;
      }
      if (!other_unplaced) continue;
      std::string a, o;
      const Expr* k = nullptr;
      if (MatchIndexablePredicate(*pc.expr, query, var.id, &a, &o, &k) &&
          o == "=" && !attr_is_ref(var, a)) {
        return true;
      }
    }
    return false;
  };

  auto find_index_access =
      [&](const BoundVar& var, std::string* attr, std::string* op,
          const Expr** key, std::string* index_name,
          size_t* conjunct_idx) -> bool {
    if (!options_.use_indexes || !var.is_root) return false;
    bool found_range = false;
    for (size_t ci = 0; ci < pending.size(); ++ci) {
      PendingConjunct& pc = pending[ci];
      if (pc.consumed) continue;
      // Every other var of the conjunct must already be placed.
      bool ready = true;
      for (int v : pc.vars) {
        if (v != var.id && !placed.count(v)) ready = false;
      }
      if (!ready || !pc.vars.count(var.id)) continue;
      std::string a, o;
      const Expr* k = nullptr;
      if (!MatchIndexablePredicate(*pc.expr, query, var.id, &a, &o, &k)) {
        continue;
      }
      index::IndexInfo* idx =
          indexes_->FindUsable(var.named_collection, a, o != "=");
      if (idx == nullptr) continue;
      // Prefer equality over range accesses.
      if (o == "=") {
        *attr = a;
        *op = o;
        *key = k;
        *index_name = idx->name;
        *conjunct_idx = ci;
        return true;
      }
      if (!found_range) {
        *attr = a;
        *op = o;
        *key = k;
        *index_name = idx->name;
        *conjunct_idx = ci;
        found_range = true;
      }
    }
    return found_range;
  };

  // A root whose indexable predicate still waits on other vars should be
  // scheduled later, so the index access becomes usable.
  auto has_future_index = [&](const BoundVar& var) -> bool {
    if (!options_.use_indexes || !var.is_root) return false;
    for (const PendingConjunct& pc : pending) {
      if (pc.consumed || !pc.vars.count(var.id)) continue;
      bool other_unplaced = false;
      for (int v : pc.vars) {
        if (v != var.id && !placed.count(v)) other_unplaced = true;
      }
      if (!other_unplaced) continue;
      std::string a, o;
      const Expr* k = nullptr;
      if (!MatchIndexablePredicate(*pc.expr, query, var.id, &a, &o, &k)) {
        continue;
      }
      if (indexes_->FindUsable(var.named_collection, a, o != "=") != nullptr) {
        return true;
      }
    }
    return false;
  };

  while (placed.size() < n) {
    // Candidates: vars with all dependencies placed. Access quality
    // (ascending score): index equality, dependent unnest / non-root
    // hash, index range, root hash join, full scan, deferred (an index
    // or hash access would open up once other vars are placed).
    int best = -1;
    int best_score = 1 << 30;
    double best_card = 0;
    std::string best_attr, best_op, best_index;
    const Expr* best_key = nullptr;
    size_t best_conjunct = 0;
    bool best_hash = false;
    std::vector<HashKey> best_hash_keys;

    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      const BoundVar& var = query.vars[i];
      bool ready = true;
      for (int dep : var.depends_on) {
        if (!placed.count(dep)) ready = false;
      }
      if (!ready) continue;

      std::string attr, op, index_name;
      const Expr* key = nullptr;
      size_t cidx = 0;
      std::vector<HashKey> hash_keys;
      bool use_hash = false;
      int score;
      double card = EstimateCardinality(var);
      if (find_index_access(var, &attr, &op, &key, &index_name, &cidx)) {
        score = op == "=" ? 0 : 2;
      } else {
        bool is_join = false;
        bool hash_now = find_hash_access(var, &hash_keys, &is_join);
        bool future_index = has_future_index(var);
        if (future_index || has_future_hash(var)) {
          // Wait until the index / probe key becomes available; if this
          // var is still forced first, the best access available now
          // (hash join or scan) is used.
          score = 6;
          use_hash = hash_now;
          // For a hash-only deferral the var left for later becomes the
          // hash-join build side, so the LARGER extent should go first:
          // invert the cardinality tiebreak (index deferrals keep the
          // smaller-outer nested-loop order).
          if (!future_index) card = -card;
        } else if (hash_now) {
          score = var.is_root ? 3 : 1;
          use_hash = true;
        } else if (!var.is_root) {
          score = 1;
        } else {
          score = 4;
        }
      }
      if (!options_.join_reordering) {
        // Binder order: first ready var wins (dependencies still hold);
        // index and hash access paths remain usable when they happen to
        // be ready.
        if (best >= 0) continue;
        card = 0;
      }
      if (best < 0 || score < best_score ||
          (score == best_score && card < best_card)) {
        best = static_cast<int>(i);
        best_score = score;
        best_card = card;
        best_attr = attr;
        best_op = op;
        best_index = index_name;
        best_key = key;
        best_conjunct = cidx;
        best_hash = use_hash;
        best_hash_keys = std::move(hash_keys);
      }
    }
    if (best < 0) {
      return Status::Internal(
          "no schedulable range variable; dependency cycle escaped the "
          "binder");
    }

    const BoundVar& var = query.vars[static_cast<size_t>(best)];
    PlanStep step;
    step.var_id = var.id;
    step.var_name = var.name;
    if (best_score == 0 || best_score == 2) {
      step.kind = PlanStep::Kind::kIndexScan;
      step.named_collection = var.named_collection;
      step.index_name = best_index;
      step.key_op = best_op;
      step.key = best_key->Clone();
      pending[best_conjunct].consumed = true;
    } else if (best_hash) {
      step.kind = PlanStep::Kind::kHashJoin;
      if (var.is_root) {
        step.named_collection = var.named_collection;
      } else {
        step.range = var.range->Clone();
      }
      for (const HashKey& hk : best_hash_keys) {
        step.build_keys.push_back(hk.build->Clone());
        step.probe_keys.push_back(hk.probe->Clone());
        pending[hk.conjunct_idx].consumed = true;
      }
    } else if (var.is_root) {
      step.kind = PlanStep::Kind::kScan;
      step.named_collection = var.named_collection;
    } else {
      step.kind = PlanStep::Kind::kUnnest;
      step.range = var.range->Clone();
    }

    placed.insert(var.id);
    done[static_cast<size_t>(best)] = true;

    // Attach every now-checkable conjunct to this step (with pushdown
    // disabled, everything waits for the innermost level).
    bool innermost = placed.size() == n;
    for (PendingConjunct& pc : pending) {
      if (pc.consumed) continue;
      if (!options_.predicate_pushdown && !innermost) continue;
      bool all_placed = true;
      for (int v : pc.vars) {
        if (!placed.count(v)) all_placed = false;
      }
      if (all_placed) {
        step.filters.push_back(pc.expr->Clone());
        pc.consumed = true;
      }
    }
    plan.steps.push_back(std::move(step));
  }

  // Conjuncts referencing only prebound parameters (no statement vars
  // at all) were already routed to constant_filters; anything left
  // unconsumed would be a bug.
  for (const PendingConjunct& pc : pending) {
    if (!pc.consumed) {
      return Status::Internal("conjunct not attached to any plan step: " +
                              pc.expr->ToString());
    }
  }
  // Map query variables to the steps binding them, so the batch executor
  // can transpose batch columns into BoundQuery::vars order directly.
  plan.var_step.assign(query.vars.size(), -1);
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const int vid = plan.steps[s].var_id;
    if (vid >= 0 && static_cast<size_t>(vid) < plan.var_step.size()) {
      plan.var_step[static_cast<size_t>(vid)] = static_cast<int>(s);
    }
  }
  return plan;
}

}  // namespace exodus::excess
