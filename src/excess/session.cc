#include "excess/session.h"

#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "excess/binder.h"
#include "excess/concurrency.h"
#include "excess/database.h"
#include "excess/parser.h"

namespace exodus {

using excess::CachedPlan;
using excess::Executor;
using excess::Expr;
using excess::ExprKind;
using excess::QueryResult;
using excess::Stmt;
using excess::StmtKind;
using object::Value;
using util::Result;
using util::Status;

namespace {

/// True for statement kinds executed through a cached (query, plan)
/// pair; everything else (DDL, auth, retrieve-into) re-executes from
/// the parsed AST via the Database on every call.
bool HasExecutorPlan(const Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::kRetrieve:
      return stmt.into.empty();
    case StmtKind::kAppend:
    case StmtKind::kDelete:
    case StmtKind::kReplace:
    case StmtKind::kAssign:
    case StmtKind::kExecuteProcedure:
      return true;
    default:
      return false;
  }
}

/// Replaces every `$n` reference in `e` (in place) with a literal of
/// its bound value, so prepared mutations journal as self-contained
/// replayable text.
void SubstituteParams(Expr* e, const Executor::ParamEnv& params) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kVar && !e->name.empty() && e->name[0] == '$') {
    auto it = params.values.find(e->name);
    if (it != params.values.end()) {
      e->kind = ExprKind::kLiteral;
      e->literal = it->second;
      e->name.clear();
    }
    return;
  }
  SubstituteParams(e->base.get(), params);
  for (excess::ExprPtr& a : e->args) SubstituteParams(a.get(), params);
  for (excess::ExprPtr& o : e->over) SubstituteParams(o.get(), params);
  SubstituteParams(e->where.get(), params);
  for (excess::FromBinding& b : e->bindings) {
    SubstituteParams(b.range.get(), params);
  }
  for (auto& [name, f] : e->fields) SubstituteParams(f.get(), params);
}

void SubstituteParams(Stmt* stmt, const Executor::ParamEnv& params) {
  for (excess::Projection& p : stmt->projections) {
    SubstituteParams(p.expr.get(), params);
  }
  for (excess::ExprPtr& s : stmt->sort_by) SubstituteParams(s.get(), params);
  for (excess::FromBinding& b : stmt->from) {
    SubstituteParams(b.range.get(), params);
  }
  SubstituteParams(stmt->where.get(), params);
  SubstituteParams(stmt->target.get(), params);
  for (excess::Assignment& a : stmt->assigns) {
    SubstituteParams(a.value.get(), params);
  }
  SubstituteParams(stmt->value.get(), params);
  for (excess::ExprPtr& a : stmt->call_args) SubstituteParams(a.get(), params);
  SubstituteParams(stmt->init.get(), params);
  SubstituteParams(stmt->range.get(), params);
}

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(Database* db, std::string user) : db_(db) {
  ctx_.catalog = &db->catalog_;
  ctx_.heap = &db->heap_;
  ctx_.adts = &db->adts_;
  ctx_.functions = &db->functions_;
  ctx_.auth = &db->auth_;
  ctx_.indexes = &db->indexes_;
  ctx_.session_ranges = &ranges_;
  ctx_.current_user = std::move(user);
  ctx_.op_metrics = &db->op_metrics_;
  ctx_.exec_pool = &db->exec_pool_;
  ctx_.options = excess::SessionOptions::FromEnv();
  slot_ = db->sessions_.Register(ctx_.current_user);
  ctx_.activity = slot_;
}

Session::~Session() { db_->sessions_.Unregister(slot_); }

Result<std::vector<QueryResult>> Session::ExecuteAll(const std::string& text) {
  const uint64_t parse_t0 = obs::MonotonicNowNs();
  excess::Parser parser(text, &db_->adts_);
  EXODUS_ASSIGN_OR_RETURN(std::vector<excess::StmtPtr> program,
                          parser.ParseProgram());
  // Parsing covers the whole program; its time is attributed to the
  // first statement's trace (exact for the common one-statement case).
  uint64_t parse_ns = obs::MonotonicNowNs() - parse_t0;
  std::vector<QueryResult> results;
  results.reserve(program.size());
  for (const excess::StmtPtr& stmt : program) {
    obs::StmtTrace trace;
    trace.parse_ns = parse_ns;
    EXODUS_ASSIGN_OR_RETURN(QueryResult r,
                            RunStatement(*stmt, &trace, &text));
    parse_ns = 0;
    results.push_back(std::move(r));
  }
  return results;
}

Session::StmtClass Session::Classify(const excess::Stmt& stmt) const {
  if (Database::IsReadOnly(stmt)) return StmtClass::kRead;
  if (ctx_.options.isolation != excess::IsolationMode::kSnapshot) {
    return StmtClass::kExclusive;
  }
  switch (stmt.kind) {
    case StmtKind::kAppend:
    case StmtKind::kDelete:
    case StmtKind::kReplace:
      return WriteExtentOf(stmt).empty() ? StmtClass::kExclusive
                                         : StmtClass::kSnapshotWrite;
    default:
      // DDL, auth, assigns (arbitrary l-value paths), procedure calls
      // and retrieve-into mutate state no extent latch covers.
      return StmtClass::kExclusive;
  }
}

std::string Session::WriteExtentOf(const excess::Stmt& stmt) const {
  // The write target must be a top-level named set or array in the
  // catalog; nested paths, parameters and everything else return ""
  // (exclusive path).
  auto named_collection = [&](const Expr* e) -> std::string {
    if (e == nullptr || e->kind != ExprKind::kVar) return "";
    const extra::NamedObject* named = db_->catalog_.FindNamed(e->name);
    if (named == nullptr || named->type == nullptr) return "";
    if (!named->type->is_set() && !named->type->is_array()) return "";
    return e->name;
  };
  switch (stmt.kind) {
    case StmtKind::kAppend:
      return named_collection(stmt.target.get());
    case StmtKind::kDelete:
    case StmtKind::kReplace: {
      // The victim must be a root binding of a named collection —
      // `delete E from E in Employees` — whether bound in the statement
      // itself or by a session `range of` declaration.
      const Expr* range = nullptr;
      for (const excess::FromBinding& b : stmt.from) {
        if (b.var == stmt.update_var) {
          range = b.range.get();
          break;
        }
      }
      if (range == nullptr) {
        auto it = ranges_.find(stmt.update_var);
        if (it != ranges_.end()) range = it->second.get();
      }
      return named_collection(range);
    }
    default:
      return "";
  }
}

Result<QueryResult> Session::ExecuteWithConcurrency(
    const excess::Stmt& stmt, const StmtBody& body,
    const JournalForm& journal_form) {
  if (db_->read_only() && !Database::IsReadOnly(stmt) &&
      !replication_apply_) {
    return Status::PermissionDenied(
        "database is a read-only replica; writes must go to the primary");
  }
  // The body, then — if it succeeded, did not escalate and the statement
  // is journaled — its WAL append, the only one for any statement. An
  // escalated attempt is about to be rolled back and re-run under the
  // exclusive lock; journaling it too would replay it twice.
  auto run_and_journal = [&]() -> Result<QueryResult> {
    Result<QueryResult> result = body();
    if (!result.ok() || !db_->journal_enabled() ||
        !Database::IsJournaled(stmt) ||
        (ctx_.txn != nullptr && ctx_.txn->escalate())) {
      return result;
    }
    EXODUS_RETURN_IF_ERROR(
        db_->JournalStmt(journal_form ? journal_form() : stmt,
                         ctx_.options.durability));
    return result;
  };
  excess::ConcurrencyController* cc = db_->controller_.get();
  bool escalated_out = false;
  {
    // Classification reads the catalog (WriteExtentOf resolves the
    // target extent), so it runs under the shared lock — concurrent
    // DDL mutates the catalog map under the exclusive lock. The lock
    // is then kept for the read / snapshot-write fast paths; only the
    // exclusive path below re-acquires.
    std::shared_lock<std::shared_mutex> lock(db_->exec_mu_);
    const StmtClass cls = Classify(stmt);

    if (cls == StmtClass::kRead) {
      excess::SnapshotPin pin(cc);
      ctx_.snapshot_epoch = pin.epoch();
      Result<QueryResult> result = body();
      ctx_.snapshot_epoch = object::kMaxEpoch;
      return result;
    }

    if (cls == StmtClass::kSnapshotWrite) {
      const std::string extent = WriteExtentOf(stmt);
      // Latch the extent FIRST, then pin the snapshot: pinning before
      // the latch could fix an epoch that misses a concurrent commit to
      // this very extent (a lost update).
      std::unique_lock<std::mutex> latch = cc->AcquireExtentLatch(extent);

      excess::StatementTxn txn;
      txn.heap.snapshot = cc->Pin();
      txn.latched.insert(extent);
      txn.heap.latched_extents = &txn.latched;
      ctx_.snapshot_epoch = txn.heap.snapshot;
      ctx_.txn = &txn;
      Result<QueryResult> result = run_and_journal();
      ctx_.txn = nullptr;
      ctx_.snapshot_epoch = object::kMaxEpoch;

      // Escalation is checked regardless of result status: a statement
      // can return OK before noticing it touched foreign state, and its
      // staging must be discarded either way.
      const bool escalated = txn.escalate();
      if (!escalated && result.ok()) {
        cc->Commit(&txn);
        cc->Unpin(txn.heap.snapshot);
        cc->snapshot_writes.fetch_add(1, std::memory_order_relaxed);
        return result;
      }
      cc->Rollback(&txn);
      cc->Unpin(txn.heap.snapshot);
      if (!escalated) return result;  // genuine statement error
      escalated_out = true;
    }
  }
  if (escalated_out) {
    cc->write_escalations.fetch_add(1, std::memory_order_relaxed);
    // Fall through: re-run the whole statement under the exclusive lock.
  }

  std::unique_lock<std::shared_mutex> lock = cc->AcquireExclusive();
  if (!Database::IsReadOnly(stmt)) {
    cc->locked_writes.fetch_add(1, std::memory_order_relaxed);
  }
  return run_and_journal();
}

std::vector<std::vector<std::string>> Session::FormatRows(
    const QueryResult& result, int depth) {
  std::shared_lock<std::shared_mutex> lock(db_->exec_mu_);
  excess::SnapshotPin pin(db_->controller_.get());
  std::vector<std::vector<std::string>> rows;
  rows.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const Value& v : row) {
      cells.push_back(db_->FormatValueAt(v, depth, pin.epoch()));
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

Result<QueryResult> Session::RunStatement(const excess::Stmt& stmt,
                                          obs::StmtTrace* trace,
                                          const std::string* source_text,
                                          const StmtBody& body,
                                          const JournalForm& journal_form) {
  obs::QueryTracer* tracer = db_->tracer();
  tracer->Begin(trace);
  trace->session_id = slot_ != nullptr ? slot_->session_id : 0;
  ctx_.trace = trace;
  const uint64_t t0 = obs::MonotonicNowNs();
  // Bind the slot thread-locally so wait guards deep in the engine (WAL
  // commit, latch acquisition) publish into it, and mark the statement
  // running. Nested statements (procedures) restore the outer binding.
  obs::ActivityBinding binding(slot_);
  if (slot_ != nullptr) {
    slot_->BeginStatement(trace->query_id, ctx_.current_user, source_text, t0);
  }
  const StmtBody execute = [&] { return db_->ExecuteStmt(*this, stmt); };
  Result<QueryResult> result =
      ExecuteWithConcurrency(stmt, body ? body : execute, journal_form);
  ctx_.trace = nullptr;
  if (trace->execute_ns == 0) {
    // Non-executor statements (DDL, auth, range, retrieve-into) never
    // pass through TimedDispatch; count the whole locked execution as
    // their execute phase.
    trace->execute_ns = obs::MonotonicNowNs() - t0;
    if (result.ok()) {
      trace->rows =
          result->rows.empty() ? result->affected : result->rows.size();
    }
  }
  if (slot_ != nullptr) {
    // Fold the statement's accumulated waits into the trace (slow log,
    // JSON sink, explain-analyze) and publish the authoritative row
    // count before going idle.
    for (size_t i = 0; i < obs::kWaitEventCount; ++i) {
      trace->wait_ns[i] = slot_->wait_ns[i].load(std::memory_order_relaxed);
    }
    slot_->rows.store(trace->rows, std::memory_order_relaxed);
    slot_->EndStatement();
  }
  const uint64_t total = trace->parse_ns + trace->bind_ns +
                         trace->optimize_ns + trace->execute_ns;
  if (trace->statement.empty() && tracer->WantsText(total)) {
    trace->statement = stmt.ToString();
  }
  tracer->Finish(*trace, result.ok(), ctx_.current_user);
  return result;
}

Result<QueryResult> Session::Execute(const std::string& text) {
  EXODUS_ASSIGN_OR_RETURN(std::vector<QueryResult> results, ExecuteAll(text));
  if (results.empty()) return QueryResult{};
  return std::move(results.back());
}

Result<Value> Session::EvalExpression(const std::string& text) {
  excess::Parser parser(text, &db_->adts_);
  EXODUS_ASSIGN_OR_RETURN(excess::ExprPtr expr, parser.ParseSingleExpression());
  std::shared_lock<std::shared_mutex> lock(db_->exec_mu_);
  excess::SnapshotPin pin(db_->controller_.get());
  ctx_.snapshot_epoch = pin.epoch();
  Executor exec(&ctx_);
  Result<Value> result = exec.EvalStandalone(*expr);
  ctx_.snapshot_epoch = object::kMaxEpoch;
  return result;
}

Result<std::string> Session::Explain(const std::string& text, bool analyze) {
  // Parse the raw text (not the cache-normalized form), so syntax
  // errors report line/column positions in what the user typed.
  excess::Parser parser(text, &db_->adts_);
  EXODUS_ASSIGN_OR_RETURN(excess::StmtPtr stmt, parser.ParseSingleStatement());
  if (!HasExecutorPlan(*stmt)) {
    return std::string(
        "no plan: statement executes directly, not through the plan "
        "executor\n");
  }

  std::set<std::string> param_names;
  const int param_count = excess::CollectParamNames(*stmt, &param_names);

  if (!analyze) {
    // Plan-only: bind + optimize under the shared lock, never execute.
    std::shared_lock<std::shared_mutex> lock(db_->exec_mu_);
    Executor exec(&ctx_);
    excess::BoundQuery query;
    excess::Plan plan;
    EXODUS_RETURN_IF_ERROR(
        exec.PlanStatement(*stmt, param_names, &query, &plan));
    return plan.Explain();
  }

  if (param_count > 0) {
    return Status::TypeError(
        "explain analyze executes the statement and cannot supply $n "
        "parameters; inline the values");
  }

  obs::StmtTrace trace;
  trace.capture_plan = true;
  EXODUS_RETURN_IF_ERROR(RunStatement(*stmt, &trace, &text).status());

  std::string out = trace.annotated_plan;
  char phases[160];
  std::snprintf(phases, sizeof phases,
                "Phases: bind %.1fus, optimize %.1fus, execute %.1fus\n",
                static_cast<double>(trace.bind_ns) / 1e3,
                static_cast<double>(trace.optimize_ns) / 1e3,
                static_cast<double>(trace.execute_ns) / 1e3);
  out += phases;
  if (trace.total_wait_ns() > 0) {
    std::string waits = "Waits:";
    for (size_t i = 0; i < obs::kWaitEventCount; ++i) {
      if (trace.wait_ns[i] == 0) continue;
      char one[96];
      std::snprintf(one, sizeof one, " %s %.1fus",
                    obs::WaitEventName(static_cast<obs::WaitEvent>(i + 1)),
                    static_cast<double>(trace.wait_ns[i]) / 1e3);
      waits += one;
    }
    out += waits + "\n";
  }
  return out;
}

Result<std::unique_ptr<PreparedStatement>> Session::Prepare(
    const std::string& text) {
  std::string norm = excess::NormalizeStatementText(text);
  if (norm.empty()) {
    return Status::ParseError("cannot prepare an empty statement");
  }
  std::shared_ptr<const CachedPlan> plan;
  {
    // Planning reads the catalog, so it needs at least the shared lock.
    std::shared_lock<std::shared_mutex> lock(db_->exec_mu_);
    EXODUS_ASSIGN_OR_RETURN(plan, GetOrBuildPlan(norm));
  }
  return std::unique_ptr<PreparedStatement>(
      new PreparedStatement(this, std::move(plan), range_epoch_));
}

std::string Session::CacheKey(const std::string& norm) const {
  std::string key = norm;
  // The session options shape both the plan tree (optimizer switches)
  // and the prepared state a cached entry carries (executor knobs, the
  // isolation mode), and the cache is shared across sessions — so the
  // whole SessionOptions value is one fingerprint contributor, and no
  // session ever picks up a plan built under different options.
  key += '\x1f';
  key += ctx_.options.Fingerprint();
  if (ranges_.empty()) return key;
  key += '\x1f';
  for (const auto& [name, expr] : ranges_) {
    key += name;
    key += '=';
    key += expr->ToString();
    key += ';';
  }
  return key;
}

Result<std::shared_ptr<const CachedPlan>> Session::GetOrBuildPlan(
    const std::string& norm) {
  const std::string key = CacheKey(norm);
  const uint64_t generation = db_->catalog_.generation();
  if (std::shared_ptr<const CachedPlan> hit =
          db_->plan_cache_.Lookup(key, generation)) {
    return hit;
  }

  auto plan = std::make_shared<CachedPlan>();
  plan->source = norm;
  plan->generation = generation;
  excess::Parser parser(norm, &db_->adts_);
  EXODUS_ASSIGN_OR_RETURN(plan->stmt, parser.ParseSingleStatement());
  plan->param_count =
      excess::CollectParamNames(*plan->stmt, &plan->param_names);

  if (HasExecutorPlan(*plan->stmt)) {
    Executor exec(&ctx_);
    EXODUS_RETURN_IF_ERROR(exec.PlanStatement(*plan->stmt, plan->param_names,
                                              &plan->query, &plan->plan));
    plan->has_plan = true;
    plan->plan_text = plan->plan.Explain();
    InferParamTypes(plan.get());
  } else if (plan->param_count > 0) {
    return Status::TypeError(
        "$n parameters are only supported in retrieve / append / delete / "
        "replace / assign / execute statements");
  }

  db_->plan_cache_.Insert(key, plan);
  return std::shared_ptr<const CachedPlan>(std::move(plan));
}

void Session::InferParamTypes(CachedPlan* plan) {
  if (plan->param_count == 0) return;
  excess::Binder binder(ctx_.catalog, ctx_.functions, ctx_.adts,
                        ctx_.session_ranges);
  auto is_param = [](const Expr& e) {
    return e.kind == ExprKind::kVar && !e.name.empty() && e.name[0] == '$';
  };
  auto note = [&](const Expr& param, const Expr& other) {
    if (plan->param_types.count(param.name) != 0) return;
    util::Result<const extra::Type*> t = binder.InferType(other, plan->query);
    if (t.ok() && *t != nullptr) plan->param_types[param.name] = *t;
  };
  static constexpr const char* kComparisons[] = {"=",  "!=", "<>", "<",
                                                 "<=", ">",  ">="};
  for (const excess::ExprPtr& c : plan->query.conjuncts) {
    if (c->kind != ExprKind::kBinary || c->args.size() != 2) continue;
    bool is_cmp = false;
    for (const char* op : kComparisons) {
      if (c->name == op) {
        is_cmp = true;
        break;
      }
    }
    if (!is_cmp) continue;
    const Expr& lhs = *c->args[0];
    const Expr& rhs = *c->args[1];
    if (is_param(lhs) && !is_param(rhs)) {
      note(lhs, rhs);
    } else if (is_param(rhs) && !is_param(lhs)) {
      note(rhs, lhs);
    }
  }
}

// ---------------------------------------------------------------------------
// PreparedStatement
// ---------------------------------------------------------------------------

PreparedStatement::PreparedStatement(
    Session* session, std::shared_ptr<const CachedPlan> plan,
    uint64_t range_epoch)
    : session_(session), plan_(std::move(plan)), range_epoch_(range_epoch) {
  values_.resize(static_cast<size_t>(plan_->param_count));
  bound_.assign(static_cast<size_t>(plan_->param_count), false);
}

PreparedStatement::~PreparedStatement() = default;

Status PreparedStatement::Bind(int index, Value v) {
  if (index < 1 || index > plan_->param_count) {
    return Status::NotFound("no parameter $" + std::to_string(index) +
                            " (statement has " +
                            std::to_string(plan_->param_count) +
                            " parameter(s))");
  }
  const std::string name = "$" + std::to_string(index);
  auto it = plan_->param_types.find(name);
  if (it != plan_->param_types.end() && it->second != nullptr) {
    Executor exec(&session_->ctx_);
    auto coerced = exec.CoerceValue(std::move(v), it->second);
    if (!coerced.ok()) {
      return Status::TypeError("parameter " + name + ": " +
                               coerced.status().message());
    }
    v = std::move(*coerced);
  }
  values_[static_cast<size_t>(index - 1)] = std::move(v);
  bound_[static_cast<size_t>(index - 1)] = true;
  return Status::OK();
}

Status PreparedStatement::Bind(int index, int64_t v) {
  return Bind(index, Value::Int(v));
}
Status PreparedStatement::Bind(int index, int v) {
  return Bind(index, Value::Int(v));
}
Status PreparedStatement::Bind(int index, double v) {
  return Bind(index, Value::Float(v));
}
Status PreparedStatement::Bind(int index, bool v) {
  return Bind(index, Value::Bool(v));
}
Status PreparedStatement::Bind(int index, const char* v) {
  return Bind(index, Value::String(v));
}
Status PreparedStatement::Bind(int index, const std::string& v) {
  return Bind(index, Value::String(v));
}

void PreparedStatement::ClearBindings() {
  values_.assign(static_cast<size_t>(plan_->param_count), Value::Null());
  bound_.assign(static_cast<size_t>(plan_->param_count), false);
}

Status PreparedStatement::RefreshIfStale() {
  const uint64_t generation = session_->db_->catalog_.generation();
  if (plan_->generation == generation &&
      range_epoch_ == session_->range_epoch_) {
    return Status::OK();
  }
  // The schema (or this session's ranges) moved on: re-prepare from the
  // saved source text. Bound values are kept — same text, same
  // parameters.
  EXODUS_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> fresh,
                          session_->GetOrBuildPlan(plan_->source));
  plan_ = std::move(fresh);
  range_epoch_ = session_->range_epoch_;
  return Status::OK();
}

Result<QueryResult> PreparedStatement::Execute() {
  // The statement kind is known from the prepared AST (re-preparation
  // keeps the same source text, hence the same kind), so the right
  // concurrency regime is known before execution.
  //
  // Keep the current plan alive across the call: RefreshIfStale may
  // swap plan_ mid-execution, and the trace still needs the statement.
  std::shared_ptr<const CachedPlan> plan = plan_;
  obs::StmtTrace trace;
  trace.used_cached_plan = true;
  Executor::ParamEnv params;
  auto body = [&]() -> Result<QueryResult> {
    EXODUS_RETURN_IF_ERROR(RefreshIfStale());
    for (int i = 1; i <= plan_->param_count; ++i) {
      if (!bound_[static_cast<size_t>(i - 1)]) {
        return Status::TypeError("parameter $" + std::to_string(i) +
                                 " has no bound value");
      }
      params.values["$" + std::to_string(i)] =
          values_[static_cast<size_t>(i - 1)];
    }
    params.types = plan_->param_types;
    if (!plan_->has_plan) {
      // DDL: re-execute from the parsed AST (parameterless by
      // construction).
      return session_->db_->ExecuteStmt(*session_, *plan_->stmt);
    }
    Executor exec(&session_->ctx_);
    auto result = exec.ExecutePrepared(*plan_->stmt, plan_->query,
                                       plan_->plan, params);
    if (result.ok()) session_->db_->set_last_plan(plan_->plan_text);
    return result;
  };
  // Journal the plan that actually executed (RefreshIfStale may have
  // swapped it), with its parameters substituted so the record replays
  // on its own.
  excess::StmtPtr substituted;
  auto journal_form = [&]() -> const Stmt& {
    if (plan_->param_count == 0) return *plan_->stmt;
    substituted = plan_->stmt->Clone();
    SubstituteParams(substituted.get(), params);
    return *substituted;
  };
  return session_->RunStatement(*plan->stmt, &trace, &plan->source, body,
                                journal_form);
}

}  // namespace exodus
