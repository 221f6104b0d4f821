#ifndef EXODUS_EXCESS_SESSION_H_
#define EXODUS_EXCESS_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <functional>

#include "excess/ast.h"
#include "excess/executor.h"
#include "excess/plan_cache.h"
#include "object/value.h"
#include "obs/trace.h"
#include "obs/wait_event.h"
#include "util/result.h"
#include "util/status.h"

namespace exodus {

class Database;
class PreparedStatement;

/// One client's connection to a Database: its authenticated user, its
/// `range of` declarations and its optimizer switches. Statements from
/// different sessions never see each other's ranges or user, while all
/// sessions share the database's catalog, heap and plan cache.
///
///   exodus::Database db;
///   auto session = db.CreateSession("carey");
///   auto stmt = (*session)->Prepare(
///       "retrieve (E.name) from E in Employees where E.age > $1");
///   (*stmt)->Bind(1, object::Value::Int(30));
///   auto rows = (*stmt)->Execute();
///
/// Sessions are created by Database::CreateSession and must not outlive
/// their Database; PreparedStatements must not outlive their Session.
///
/// Concurrency: sessions from different threads may execute against the
/// same Database concurrently, and the session owns that discipline —
/// callers never take database locks themselves. Plain retrieves pin a
/// snapshot epoch at statement start and run lock-free against the
/// object versions visible at that epoch (MVCC; see
/// docs/concurrency.md). Single-extent mutations run under a
/// per-extent writer latch, staging copy-on-write versions that commit
/// atomically — so a writer never blocks readers and two writers on
/// different extents run in parallel. DDL, auth, and statements that
/// reach outside one extent take a short database-exclusive section
/// (mutations under SessionOptions::isolation == kLocked always do,
/// preserved as a differential oracle). A single Session object is NOT
/// internally synchronized: use one session per thread (the network
/// server uses one per connection).
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and executes a program; returns the last statement's result.
  util::Result<excess::QueryResult> Execute(const std::string& text);

  /// Parses and executes a program; returns every statement's result.
  util::Result<std::vector<excess::QueryResult>> ExecuteAll(
      const std::string& text);

  /// Evaluates a standalone EXCESS expression (named objects, ADT and
  /// EXCESS functions allowed; no range variables).
  util::Result<object::Value> EvalExpression(const std::string& text);

  /// Prepares a single statement for repeated execution: lexes, parses,
  /// binds and optimizes it once (or fetches the cached plan for the
  /// same normalized text) and returns a reusable handle. `$1`, `$2`,
  /// ... placeholders mark bind parameters; supply them with Bind
  /// before each Execute. DDL statements may be prepared too (handy for
  /// scripts) but take no parameters and re-execute from the AST.
  util::Result<std::unique_ptr<PreparedStatement>> Prepare(
      const std::string& text);

  /// EXPLAIN / EXPLAIN ANALYZE, one code path for both modes. Parses
  /// `text` raw — not normalized — so parse errors report positions in
  /// the original input. Plain mode binds and optimizes only and
  /// returns the plan tree. With `analyze` the statement is executed
  /// for real (mutations mutate, and are journaled) and every step line
  /// carries its runtime actuals plus a phase-timing summary.
  util::Result<std::string> Explain(const std::string& text, bool analyze);

  /// Renders the result rows with references resolved through the heap
  /// under the session's own concurrency discipline (shared lock plus a
  /// pinned snapshot), so out-of-band formatters — e.g. the network
  /// server — need no database lock of their own.
  std::vector<std::vector<std::string>> FormatRows(
      const excess::QueryResult& result, int depth = 2);

  /// The user this session authenticates as (changed by `set user`).
  const std::string& user() const { return ctx_.current_user; }

  Database* database() { return db_; }

  /// This session's execution options: optimizer rule switches,
  /// executor knobs (batch size, worker threads) and the write
  /// isolation mode. One value object, one contributor to the
  /// plan-cache key; seeded from the environment (EXODUS_BATCH_SIZE,
  /// EXODUS_EXEC_THREADS, EXODUS_ISOLATION) at session creation.
  excess::SessionOptions* mutable_options() { return &ctx_.options; }
  const excess::SessionOptions& options() const { return ctx_.options; }

  /// Marks this session as the replication-apply channel: its mutations
  /// bypass the database's read-only (replica) gate. Only the WAL
  /// tailer should ever set this.
  void set_replication_apply(bool apply) { replication_apply_ = apply; }

 private:
  friend class Database;
  friend class PreparedStatement;

  Session(Database* db, std::string user);

  /// How a statement executes: lock-free snapshot read, latched
  /// single-extent snapshot write, or database-exclusive section.
  enum class StmtClass { kRead, kSnapshotWrite, kExclusive };
  StmtClass Classify(const excess::Stmt& stmt) const;

  /// The named extent a snapshot-eligible mutation writes ("" when the
  /// write target cannot be pinned to one catalog extent, which forces
  /// the exclusive path).
  std::string WriteExtentOf(const excess::Stmt& stmt) const;

  using StmtBody = std::function<util::Result<excess::QueryResult>()>;
  /// Yields the statement to journal; called only when it will be.
  using JournalForm = std::function<const excess::Stmt&()>;

  /// Runs one statement start to finish — the one path every one-shot,
  /// `explain analyze` and prepared statement takes. Brackets it with
  /// the database tracer (query ID, phase timings, QueryTracer::Finish)
  /// and the session's activity slot, bound thread-locally so wait
  /// guards deep in the engine publish into it; `source_text`, when
  /// non-null, is the string the statement came from, published as the
  /// activity text without re-rendering the AST. Inside the bracket,
  /// ExecuteWithConcurrency runs `body` (default: Database::ExecuteStmt).
  util::Result<excess::QueryResult> RunStatement(
      const excess::Stmt& stmt, obs::StmtTrace* trace,
      const std::string* source_text, const StmtBody& body = nullptr,
      const JournalForm& journal_form = nullptr);

  /// Runs `body` under the concurrency regime Classify picks for
  /// `stmt`: reads take the shared lock plus a snapshot pin; snapshot
  /// writes latch their extent, stage into a StatementTxn and commit
  /// (or roll back and re-run exclusively when the statement escalates);
  /// everything else takes the exclusive lock. A journaled statement
  /// whose body succeeded without escalating is appended to the WAL —
  /// `journal_form()`, or else `stmt` — here and nowhere else: under the
  /// latch or exclusive lock, durable before the commit.
  util::Result<excess::QueryResult> ExecuteWithConcurrency(
      const excess::Stmt& stmt, const StmtBody& body,
      const JournalForm& journal_form);

  /// Fetches the plan for normalized text `norm` from the database's
  /// plan cache, building and inserting it on a miss. The caller must
  /// hold the database lock (shared suffices).
  util::Result<std::shared_ptr<const excess::CachedPlan>> GetOrBuildPlan(
      const std::string& norm);

  /// The plan-cache key for `norm` in this session: the normalized text
  /// plus fingerprints of the session's optimizer switches and its
  /// `range of` declarations, so sessions with different switches or
  /// ranges never share a (mis-planned or mis-bound) plan.
  std::string CacheKey(const std::string& norm) const;

  /// Statically infers `$n` parameter types from comparisons in the
  /// bound query's conjuncts (e.g. `E.age > $1` types $1 as int4) so
  /// Bind can reject mismatched values at bind time.
  void InferParamTypes(excess::CachedPlan* plan);

  Database* db_;
  excess::ExecContext ctx_;
  /// This session's live-activity record in the database's
  /// SessionRegistry (registered in the constructor, unregistered in
  /// the destructor). Read lock-free by `\activity`.
  obs::ActivitySlot* slot_ = nullptr;
  /// True on the replica's WAL-apply session (see set_replication_apply).
  bool replication_apply_ = false;
  /// This session's `range of` declarations (ctx_.session_ranges).
  std::map<std::string, excess::ExprPtr> ranges_;
  /// Bumped by every `range of`; prepared statements re-prepare when
  /// their captured epoch falls behind.
  uint64_t range_epoch_ = 0;
};

/// A statement prepared once and executable many times. Bind supplies
/// `$n` parameter values (validated against inferred types); Execute
/// runs the cached plan, transparently re-preparing first if the schema
/// generation or the session's ranges moved since the plan was built.
class PreparedStatement {
 public:
  ~PreparedStatement();
  PreparedStatement(const PreparedStatement&) = delete;
  PreparedStatement& operator=(const PreparedStatement&) = delete;

  /// Binds parameter `$index` (1-based) to `v`. Fails on an
  /// out-of-range index or a value that cannot be coerced to the
  /// parameter's statically inferred type.
  util::Status Bind(int index, object::Value v);

  // Convenience overloads for the common scalar types.
  util::Status Bind(int index, int64_t v);
  util::Status Bind(int index, int v);
  util::Status Bind(int index, double v);
  util::Status Bind(int index, bool v);
  util::Status Bind(int index, const char* v);
  util::Status Bind(int index, const std::string& v);

  /// Binds $1..$n from the arguments in order.
  template <typename... Args>
  util::Status BindAll(Args&&... args) {
    int index = 0;
    util::Status st = util::Status::OK();
    (
        [&] {
          if (st.ok()) st = Bind(++index, std::forward<Args>(args));
        }(),
        ...);
    return st;
  }

  /// Forgets all bound values (fresh statement state).
  void ClearBindings();

  /// Executes the prepared plan with the current bindings. Every
  /// parameter must be bound. Authorization is re-checked on each call;
  /// mutating statements are journaled (with parameters substituted)
  /// when journaling is enabled.
  util::Result<excess::QueryResult> Execute();

  /// Number of `$n` parameters (the highest index used).
  int param_count() const { return plan_->param_count; }

  /// The normalized statement text this handle was prepared from.
  const std::string& source() const { return plan_->source; }

  /// The optimizer's plan, rendered at prepare time (EXPLAIN); empty
  /// for DDL statements.
  const std::string& plan_text() const { return plan_->plan_text; }

 private:
  friend class Session;

  PreparedStatement(Session* session,
                    std::shared_ptr<const excess::CachedPlan> plan,
                    uint64_t range_epoch);

  /// Re-prepares if the catalog's schema generation or the session's
  /// range epoch moved past the cached plan. The caller must hold the
  /// database lock (shared suffices).
  util::Status RefreshIfStale();

  Session* session_;
  std::shared_ptr<const excess::CachedPlan> plan_;
  /// Session range epoch the plan was prepared under.
  uint64_t range_epoch_;
  /// values_[i] holds the value bound to $i+1; bound_[i] tracks whether
  /// it was supplied.
  std::vector<object::Value> values_;
  std::vector<bool> bound_;
};

}  // namespace exodus

#endif  // EXODUS_EXCESS_SESSION_H_
