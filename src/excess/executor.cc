#include "excess/executor.h"

#include <algorithm>

#include "excess/concurrency.h"
#include "excess/executor_internal.h"
#include "excess/optimizer.h"
#include "util/string_util.h"

namespace exodus::excess {

using extra::Type;
using extra::TypeKind;
using object::Oid;
using object::Value;
using object::ValueKind;
using util::Result;
using util::Status;

namespace {

/// Keeps rows `order[0..]` of `b`, in that order (a sort permutation or
/// the survivors of duplicate elimination).
void SelectRows(const std::vector<size_t>& order, RowBatch* b) {
  for (std::vector<Value>& col : b->cols) {
    std::vector<Value> picked;
    picked.reserve(order.size());
    for (size_t r : order) picked.push_back(std::move(col[r]));
    col = std::move(picked);
  }
  b->rows = order.size();
}

}  // namespace

// ---------------------------------------------------------------------------
// MVCC access helpers
// ---------------------------------------------------------------------------

const object::HeapObject* Executor::ReadObject(Oid oid) const {
  return ctx_->heap->GetVisible(oid, ctx_->snapshot_epoch,
                                ctx_->txn != nullptr ? &ctx_->txn->heap
                                                     : nullptr);
}

const Value& Executor::NamedValue(const extra::NamedObject* named) const {
  if (ctx_->txn != nullptr) {
    auto it = ctx_->txn->staged_cells.find(
        const_cast<extra::NamedObject*>(named));
    if (it != ctx_->txn->staged_cells.end()) return it->second;
  }
  return named->ValueAt(ctx_->snapshot_epoch);
}

Value* Executor::MutableNamedValue(extra::NamedObject* named) {
  if (ctx_->txn != nullptr) return ctx_->txn->StageCell(named);
  return named->mutable_value();
}

void Executor::IndexInsert(const std::string& set_name, const std::string& attr,
                           const Value& key, Oid oid) {
  if (ctx_->txn != nullptr) {
    auto& deferred = ctx_->txn->deferred_erases;
    for (auto it = deferred.begin(); it != deferred.end(); ++it) {
      if (it->oid == oid && it->attr == attr && it->set_name == set_name &&
          object::ValueEquals(it->key, key)) {
        // Replace keeping the key: the existing entry stays accurate, so
        // cancel the pending erase instead of double-entering.
        deferred.erase(it);
        return;
      }
    }
    ctx_->indexes->OnInsert(set_name, attr, key, oid);
    ctx_->txn->inserted.push_back({set_name, attr, key, oid, 0});
    return;
  }
  ctx_->indexes->OnInsert(set_name, attr, key, oid);
}

void Executor::IndexErase(const std::string& set_name, const std::string& attr,
                          const Value& key, Oid oid) {
  if (ctx_->txn != nullptr) {
    ctx_->txn->deferred_erases.push_back({set_name, attr, key, oid, 0});
    return;
  }
  ctx_->indexes->OnErase(set_name, attr, key, oid);
}

std::string QueryResult::ToString() const {
  std::string out;
  if (!columns.empty()) {
    out += util::Join(columns, " | ");
    out += "\n";
    for (const auto& row : rows) {
      std::vector<std::string> cells;
      cells.reserve(row.size());
      for (const Value& v : row) cells.push_back(v.ToString());
      out += util::Join(cells, " | ");
      out += "\n";
    }
  }
  if (!message.empty()) {
    out += message;
    out += "\n";
  }
  return out;
}

const char* OperatorMetrics::KindLabel(PlanStep::Kind kind) {
  switch (kind) {
    case PlanStep::Kind::kScan:
      return "scan";
    case PlanStep::Kind::kIndexScan:
      return "index_scan";
    case PlanStep::Kind::kUnnest:
      return "unnest";
    case PlanStep::Kind::kHashJoin:
      return "hash_join";
  }
  return "unknown";
}

void OperatorMetrics::Register(obs::MetricsRegistry* registry) {
  static constexpr PlanStep::Kind kKinds[kNumKinds] = {
      PlanStep::Kind::kScan, PlanStep::Kind::kIndexScan,
      PlanStep::Kind::kUnnest, PlanStep::Kind::kHashJoin};
  for (PlanStep::Kind k : kKinds) {
    const std::string labels =
        std::string("{op=\"") + KindLabel(k) + "\"}";
    PerKind& pk = kinds[static_cast<size_t>(k)];
    pk.invocations =
        registry->GetCounter("exodus_operator_invocations_total" + labels);
    pk.rows = registry->GetCounter("exodus_operator_rows_total" + labels);
    pk.time_ns =
        registry->GetCounter("exodus_operator_time_ns_total" + labels);
    pk.batches =
        registry->GetCounter("exodus_operator_batches_total" + labels);
  }
  morsels_total = registry->GetCounter("exodus_exec_morsels_total");
  parallel_ns = registry->GetCounter("exodus_exec_parallel_ns");
  parallel_queries =
      registry->GetCounter("exodus_exec_parallel_queries_total");
  batch_clamped =
      registry->GetCounter("exodus_exec_batch_size_clamped_total");
}

Executor::Executor(ExecContext* ctx)
    : ctx_(ctx),
      binder_(ctx->catalog, ctx->functions, ctx->adts, ctx->session_ranges) {
  static const BoundQuery kEmptyQuery;
  current_query_ = &kEmptyQuery;
}

Result<QueryResult> Executor::Execute(const Stmt& stmt) {
  return Execute(stmt, ParamEnv{});
}

Result<QueryResult> Executor::Execute(const Stmt& stmt,
                                      const ParamEnv& params) {
  Env env;
  env.params = &params;
  param_types_ = params.types;
  Plan plan;
  EXODUS_ASSIGN_OR_RETURN(BoundQuery query, BindAndPlan(stmt, env, &plan));
  return TimedDispatch(stmt, query, plan, &env);
}

Result<QueryResult> Executor::ExecutePrepared(const Stmt& stmt,
                                              const BoundQuery& query,
                                              const Plan& plan,
                                              const ParamEnv& params) {
  Env env;
  env.params = &params;
  param_types_ = params.types;
  EXODUS_RETURN_IF_ERROR(CheckPlanPrivileges(plan));
  return TimedDispatch(stmt, query, plan, &env);
}

Result<QueryResult> Executor::TimedDispatch(const Stmt& stmt,
                                            const BoundQuery& query,
                                            const Plan& plan, Env* env) {
  obs::StmtTrace* trace = ctx_->trace;
  // Nested executions (function/procedure bodies) run on their own
  // Executor but share the context; their time is part of the enclosing
  // statement's execute phase, so only the top level writes the trace.
  if (trace == nullptr || ctx_->call_depth > 0) {
    return DispatchBound(stmt, query, plan, env);
  }
  if (ctx_->activity != nullptr) {
    ctx_->activity->SetPhase(obs::StmtPhase::kExecute);
  }
  const uint64_t t0 = obs::MonotonicNowNs();
  Result<QueryResult> result = DispatchBound(stmt, query, plan, env);
  trace->execute_ns += obs::MonotonicNowNs() - t0;
  if (result.ok()) {
    trace->rows =
        result->rows.empty() ? result->affected : result->rows.size();
  }
  if (trace->capture_plan ||
      trace->execute_ns >= trace->plan_capture_threshold_ns) {
    trace->annotated_plan = plan.Explain(&run_stats_);
  }
  return result;
}

Result<QueryResult> Executor::DispatchBound(const Stmt& stmt,
                                            const BoundQuery& query,
                                            const Plan& plan, Env* env) {
  switch (stmt.kind) {
    case StmtKind::kRetrieve:
      return ExecRetrieve(stmt, query, plan, env);
    case StmtKind::kAppend:
      return ExecAppend(stmt, query, plan, env);
    case StmtKind::kDelete:
      return ExecDelete(stmt, query, plan, env);
    case StmtKind::kReplace:
      return ExecReplace(stmt, query, plan, env);
    case StmtKind::kAssign:
      return ExecAssign(stmt, query, plan, env);
    case StmtKind::kExecuteProcedure:
      return ExecProcedureCall(stmt, query, plan, env);
    default:
      return Status::Internal(
          "Executor::Execute received a DDL statement; Database handles DDL");
  }
}

Result<Value> Executor::EvalStandalone(const Expr& expr,
                                       const ParamEnv& params) {
  Env env;
  env.params = &params;
  param_types_ = params.types;
  return Eval(expr, &env);
}

// ---------------------------------------------------------------------------
// Binding, planning, plan execution
// ---------------------------------------------------------------------------

Status Executor::PlanStatement(const Stmt& stmt,
                               const std::set<std::string>& prebound,
                               BoundQuery* query, Plan* plan) {
  obs::StmtTrace* trace = ctx_->call_depth == 0 ? ctx_->trace : nullptr;
  obs::ActivitySlot* activity =
      ctx_->call_depth == 0 ? ctx_->activity : nullptr;
  if (activity != nullptr) activity->SetPhase(obs::StmtPhase::kBind);
  const uint64_t t0 = trace != nullptr ? obs::MonotonicNowNs() : 0;
  EXODUS_ASSIGN_OR_RETURN(*query, binder_.Bind(stmt, prebound));
  const uint64_t t1 = trace != nullptr ? obs::MonotonicNowNs() : 0;
  if (trace != nullptr) trace->bind_ns += t1 - t0;
  if (activity != nullptr) activity->SetPhase(obs::StmtPhase::kOptimize);
  Optimizer optimizer(ctx_->catalog, ctx_->indexes, &binder_, ctx_->options);
  EXODUS_ASSIGN_OR_RETURN(*plan, optimizer.Optimize(*query));
  if (trace != nullptr) trace->optimize_ns += obs::MonotonicNowNs() - t1;
  return Status::OK();
}

Status Executor::CheckPlanPrivileges(const Plan& plan) const {
  for (const PlanStep& step : plan.steps) {
    // Hash joins over a variable-free range expression have no named
    // collection here; Eval checks named objects inside the range.
    if (step.kind != PlanStep::Kind::kUnnest &&
        !step.named_collection.empty()) {
      EXODUS_RETURN_IF_ERROR(CheckNamedPrivilege(step.named_collection,
                                                 auth::Privilege::kRetrieve));
    }
  }
  return Status::OK();
}

Result<BoundQuery> Executor::BindAndPlan(const Stmt& stmt, const Env& env,
                                         Plan* plan) {
  std::set<std::string> prebound;
  if (env.params != nullptr) {
    for (const auto& [name, v] : env.params->values) prebound.insert(name);
  }
  BoundQuery query;
  EXODUS_RETURN_IF_ERROR(PlanStatement(stmt, prebound, &query, plan));
  last_plan_ = plan->Explain();
  EXODUS_RETURN_IF_ERROR(CheckPlanPrivileges(*plan));
  return query;
}

void Executor::FlushOperatorMetrics(const Plan& plan) const {
  if (ctx_->op_metrics == nullptr) return;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const StepRuntime& srt = run_stats_.steps[i];
    const size_t k = static_cast<size_t>(plan.steps[i].kind);
    if (k >= OperatorMetrics::kNumKinds) continue;
    const OperatorMetrics::PerKind& pk = ctx_->op_metrics->kinds[k];
    if (pk.invocations != nullptr) pk.invocations->Add(srt.invocations);
    if (pk.rows != nullptr) pk.rows->Add(srt.rows_produced);
    if (pk.time_ns != nullptr) pk.time_ns->Add(srt.EstimatedTimeNs());
    if (pk.batches != nullptr) pk.batches->Add(srt.batches);
  }
}

Result<std::optional<size_t>> Executor::JoinRowHash(
    const std::vector<const std::vector<Value>*>& keys, size_t r) {
  size_t h = HashDirectory::kBasis;
  for (const std::vector<Value>* col : keys) {
    const Value& v = (*col)[r];
    if (v.is_null()) return std::optional<size_t>();  // NULL never joins
    if (v.kind() == ValueKind::kRef) {
      return Status::TypeError(
          "references cannot be compared with '='; use 'is' / 'isnot' "
          "(object identity)");
    }
    size_t vh = object::ValueHash(v);
    if (v.kind() == ValueKind::kEnum) {
      // Enums compare equal to their label string under '='; hash the
      // label so both key forms land in the same bucket.
      const int ord = v.enum_ordinal();
      const auto& labels = v.enum_type()->enum_labels();
      if (ord >= 0 && static_cast<size_t>(ord) < labels.size()) {
        vh = std::hash<std::string>()(labels[static_cast<size_t>(ord)]);
      }
    }
    h = HashDirectory::Combine(h, vh);
  }
  return std::optional<size_t>(h);
}

Result<bool> Executor::JoinKeyEquals(const Value& a, const Value& b) const {
  if ((a.kind() == ValueKind::kEnum && b.kind() == ValueKind::kString) ||
      (a.kind() == ValueKind::kString && b.kind() == ValueKind::kEnum)) {
    EXODUS_ASSIGN_OR_RETURN(int c, Compare(a, b));
    return c == 0;
  }
  return object::ValueEquals(a, b);
}

// ---------------------------------------------------------------------------
// Retrieve
// ---------------------------------------------------------------------------

void Executor::CollectAggregates(const Expr& expr,
                                 std::vector<const Expr*>* out) {
  if (expr.kind == ExprKind::kAggregate) {
    out->push_back(&expr);
    return;  // nested aggregates inside an aggregate evaluate locally
  }
  if (expr.base) CollectAggregates(*expr.base, out);
  for (const ExprPtr& a : expr.args) CollectAggregates(*a, out);
  for (const ExprPtr& o : expr.over) CollectAggregates(*o, out);
  if (expr.where) CollectAggregates(*expr.where, out);
  for (const auto& [n, e] : expr.fields) CollectAggregates(*e, out);
  for (const FromBinding& b : expr.bindings) {
    CollectAggregates(*b.range, out);
  }
}

bool Executor::IsQueryLevelAggregate(const Expr& agg) const {
  if (!agg.bindings.empty()) return false;  // correlated subquery aggregate
  if (agg.args.empty()) return true;        // count() over the bindings
  auto t = binder_.InferType(*agg.args[0], *current_query_, param_types_);
  if (t.ok() && *t != nullptr && (*t)->is_collection()) {
    return false;  // collection aggregate, evaluated per row
  }
  return true;
}

/// True if the expression references range variables only inside the
/// given aggregate nodes (the "all-aggregate projection" test).
bool Executor::VarsOnlyInsideAggs(const Expr& expr,
                                  const std::vector<const Expr*>& aggs) {
  if (std::find(aggs.begin(), aggs.end(), &expr) != aggs.end()) return true;
  if (expr.kind == ExprKind::kVar) return false;
  if (expr.kind == ExprKind::kAttr || expr.kind == ExprKind::kIndex ||
      expr.kind == ExprKind::kUnary) {
    if (expr.base && !VarsOnlyInsideAggs(*expr.base, aggs)) return false;
  }
  if (expr.kind == ExprKind::kCall && expr.base &&
      !VarsOnlyInsideAggs(*expr.base, aggs)) {
    return false;
  }
  for (const ExprPtr& a : expr.args) {
    if (!VarsOnlyInsideAggs(*a, aggs)) return false;
  }
  for (const auto& [n, e] : expr.fields) {
    if (!VarsOnlyInsideAggs(*e, aggs)) return false;
  }
  return true;
}

Result<QueryResult> Executor::ExecRetrieve(const Stmt& stmt,
                                           const BoundQuery& query,
                                           const Plan& plan, Env* env) {
  internal::ScopedValue<const BoundQuery*> scope(&current_query_, &query);

  QueryResult result;
  for (size_t i = 0; i < stmt.projections.size(); ++i) {
    const Projection& p = stmt.projections[i];
    result.columns.push_back(!p.label.empty() ? p.label
                                              : p.expr->ToString());
  }

  // Find query-level aggregates in projections and sort keys.
  std::vector<const Expr*> aggs;
  for (const Projection& p : stmt.projections) {
    CollectAggregates(*p.expr, &aggs);
  }
  for (const ExprPtr& s : stmt.sort_by) CollectAggregates(*s, &aggs);
  std::vector<const Expr*> qlevel;
  for (const Expr* a : aggs) {
    if (IsQueryLevelAggregate(*a)) qlevel.push_back(a);
  }
  // Query-level aggregates in the where-clause would be circular; the
  // paper's `over`/nested-range forms are supported instead.
  for (const ExprPtr& c : query.conjuncts) {
    std::vector<const Expr*> in_where;
    CollectAggregates(*c, &in_where);
    for (const Expr* a : in_where) {
      if (IsQueryLevelAggregate(*a)) {
        return Status::TypeError(
            "aggregates over the query's own bindings are not allowed in "
            "where; give the aggregate its own range (from V in ...)");
      }
    }
  }

  // Output columns, one per projection, turned into rows once at the end.
  RowBatch out;
  out.cols.resize(stmt.projections.size());
  const bool has_tail =
      !qlevel.empty() || stmt.unique || !stmt.sort_by.empty();
  uint64_t tail_t0 = 0;
  if (!has_tail) {
    // Streaming retrieve: projections evaluate once per batch over
    // columnar bindings. Morsel workers project into their own columns,
    // concatenated in morsel order (same rows, same order as serial).
    std::vector<std::string> names;
    names.reserve(plan.steps.size());
    for (const PlanStep& s : plan.steps) names.push_back(s.var_name);
    EXODUS_RETURN_IF_ERROR(RunPlanBatched(
        plan, query, env,
        [&names, &stmt](Executor* ex, Env* e, RowBatch& b,
                        RowBatch* cols) -> Status {
          return ex->ProjectBatch(stmt, names, b, e, cols);
        },
        &out));
  } else {
    EXODUS_ASSIGN_OR_RETURN(RowBatch frame, MaterializeRows(plan, query, env));
    tail_t0 = obs::MonotonicNowNs();
    std::vector<std::string> names;
    names.reserve(query.vars.size());
    for (const BoundVar& v : query.vars) names.push_back(v.name);

    // The "all aggregates, no partitions" case collapses to a single row.
    bool single_row = !qlevel.empty() && !stmt.projections.empty();
    for (const Expr* a : qlevel) {
      if (!a->over.empty()) single_row = false;
    }
    for (const Projection& p : stmt.projections) {
      if (!VarsOnlyInsideAggs(*p.expr, qlevel)) single_row = false;
    }
    AggColumns agg_cols;
    agg_cols.nodes = &qlevel;
    if (!qlevel.empty()) {
      EXODUS_ASSIGN_OR_RETURN(agg_cols.cols,
                              AccumulateAggregatesBatched(
                                  qlevel, names, frame, single_row, env));
    }
    if (single_row) {
      // Projections see the bindings only through their aggregates:
      // evaluate them over one empty binding.
      frame = RowBatch{};
      frame.rows = 1;
      names.clear();
    }
    internal::ScopedValue<AggColumns*> agg_scope(&agg_cols_, &agg_cols);
    EXODUS_RETURN_IF_ERROR(ProjectBatch(stmt, names, frame, env, &out));

    // sort by: a stable permutation over the key columns, nulls first.
    if (!stmt.sort_by.empty() && !single_row) {
      const size_t nkeys = stmt.sort_by.size();
      std::vector<std::vector<Value>> kscratch(nkeys);
      std::vector<const std::vector<Value>*> keys(nkeys);
      for (size_t k = 0; k < nkeys; ++k) {
        EXODUS_ASSIGN_OR_RETURN(
            keys[k],
            EvalBatchCol(*stmt.sort_by[k], names, frame, env, &kscratch[k]));
      }
      std::vector<size_t> order(out.rows);
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      Status sort_error = Status::OK();
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        for (const std::vector<Value>* key : keys) {
          const Value& va = (*key)[a];
          const Value& vb = (*key)[b];
          if (va.is_null() && vb.is_null()) continue;
          if (va.is_null()) return true;
          if (vb.is_null()) return false;
          auto c = Compare(va, vb);
          if (!c.ok()) {
            sort_error = c.status();
            return false;
          }
          if (*c != 0) return *c < 0;
        }
        return false;
      });
      EXODUS_RETURN_IF_ERROR(sort_error);
      SelectRows(order, &out);
    }

    // unique: keep the first occurrence of every output row.
    if (stmt.unique) {
      HashDirectory seen;
      std::vector<size_t> keep;
      for (size_t r = 0; r < out.rows; ++r) {
        size_t h = HashDirectory::kBasis;
        for (const std::vector<Value>& col : out.cols) {
          h = HashDirectory::Combine(h, object::ValueHash(col[r]));
        }
        const bool fresh =
            seen.FindOrInsert(h, [&](int32_t e) {
                  const size_t k = keep[static_cast<size_t>(e)];
                  for (const std::vector<Value>& col : out.cols) {
                    if (!object::ValueEquals(col[k], col[r])) return false;
                  }
                  return true;
                }).second;
        if (fresh) keep.push_back(r);
      }
      SelectRows(keep, &out);
    }
  }

  result.rows.resize(out.rows);
  for (size_t r = 0; r < out.rows; ++r) {
    std::vector<Value>& row = result.rows[r];
    row.reserve(out.cols.size());
    for (std::vector<Value>& col : out.cols) row.push_back(std::move(col[r]));
  }
  if (has_tail) {
    run_stats_.has_finish = true;
    run_stats_.finish_ns = obs::MonotonicNowNs() - tail_t0;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Authorization
// ---------------------------------------------------------------------------

std::vector<Value> Executor::KeyValuesOf(
    const std::string& extent, const extra::Type* type,
    const std::vector<Value>& fields) const {
  const extra::NamedObject* named = ctx_->catalog->FindNamed(extent);
  std::vector<Value> out;
  if (named == nullptr || named->key_attrs.empty() || type == nullptr) {
    return out;
  }
  for (const std::string& attr : named->key_attrs) {
    int idx = type->AttributeIndex(attr);
    if (idx < 0 || static_cast<size_t>(idx) >= fields.size()) {
      out.push_back(Value::Null());
    } else {
      out.push_back(fields[static_cast<size_t>(idx)]);
    }
  }
  return out;
}

Status Executor::CheckKeyUnique(const std::string& extent,
                                const std::vector<Value>& key_values,
                                Oid exclude) const {
  const extra::NamedObject* named = ctx_->catalog->FindNamed(extent);
  if (named == nullptr || named->key_attrs.empty() || key_values.empty()) {
    return Status::OK();
  }
  for (const Value& v : key_values) {
    if (v.is_null()) return Status::OK();  // null key parts are exempt
  }
  const Value& nv = NamedValue(named);
  if (nv.kind() != ValueKind::kSet) return Status::OK();
  for (const Value& member : nv.set().elems) {
    if (member.kind() != ValueKind::kRef) continue;
    if (member.AsRef() == exclude) continue;
    const object::HeapObject* obj = ReadObject(member.AsRef());
    if (obj == nullptr) continue;
    bool all_equal = true;
    for (size_t i = 0; i < named->key_attrs.size(); ++i) {
      int idx = obj->type->AttributeIndex(named->key_attrs[i]);
      if (idx < 0 || static_cast<size_t>(idx) >= obj->fields.size() ||
          !object::ValueEquals(obj->fields[static_cast<size_t>(idx)],
                               key_values[i])) {
        all_equal = false;
        break;
      }
    }
    if (all_equal) {
      std::string key_text;
      for (size_t i = 0; i < named->key_attrs.size(); ++i) {
        if (i > 0) key_text += ", ";
        key_text += named->key_attrs[i] + " = " + key_values[i].ToString();
      }
      return Status::ConstraintViolation("key violation on '" + extent +
                                         "': a member with (" + key_text +
                                         ") already exists");
    }
  }
  return Status::OK();
}

Status Executor::CheckNamedPrivilege(const std::string& object,
                                     auth::Privilege priv) const {
  const extra::NamedObject* named = ctx_->catalog->FindNamed(object);
  std::string creator = named != nullptr ? named->creator : "";
  if (!ctx_->auth->Check(ctx_->current_user, object, priv, creator)) {
    return Status::PermissionDenied(
        std::string("user '") + ctx_->current_user + "' lacks " +
        auth::PrivilegeName(priv) + " privilege on '" + object + "'");
  }
  return Status::OK();
}

}  // namespace exodus::excess
