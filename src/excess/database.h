#ifndef EXODUS_EXCESS_DATABASE_H_
#define EXODUS_EXCESS_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "adt/registry.h"
#include "auth/auth.h"
#include "excess/ast.h"
#include "excess/concurrency.h"
#include "excess/executor.h"
#include "excess/functions.h"
#include "excess/plan_cache.h"
#include "extra/catalog.h"
#include "index/index_manager.h"
#include "object/heap.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wait_event.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "wal/wal_writer.h"

namespace exodus {

class Session;
class PreparedStatement;

/// The public entry point of the EXTRA/EXCESS system: one in-memory
/// database instance with an EXCESS interpreter on top.
///
/// Embedding applications talk to a Database through Sessions:
///
///   exodus::Database db;
///   auto session = db.CreateSession();          // dba by default
///   auto stmt = (*session)->Prepare(
///       "retrieve (E.name) from E in Employees where E.age > $1");
///   (*stmt)->Bind(1, 30);
///   auto rows = (*stmt)->Execute();             // plan reused each call
///
/// Prepared plans live in a database-wide LRU cache keyed on normalized
/// statement text; every DDL statement bumps the catalog's schema
/// generation, invalidating stale plans (observable via CacheStats()).
///
/// The string-only convenience layer remains for scripts and tests:
/// Execute / ExecuteAll / EvalExpression run through a built-in default
/// session (user dba).
///
///   auto r = db.Execute(R"(
///     define type Person (name: char[25], age: int4)
///     create People : {Person}
///     append to People (name = "carey", age = 35)
///     retrieve (People.name) where People.age > 30
///   )");
///
/// Execute runs every statement in the input and returns the last
/// statement's result; ExecuteAll returns all results. All errors are
/// reported via util::Status — the library never throws.
class Database {
 public:
  Database();
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Opens a new session authenticated as `user` (which must exist,
  /// except the built-in dba). The session borrows this Database and
  /// must not outlive it.
  util::Result<std::unique_ptr<Session>> CreateSession(
      const std::string& user = auth::AuthManager::kDba);

  /// The built-in session backing the string-only convenience API.
  Session* default_session() { return default_session_.get(); }

  /// Parses and executes a program on the default session; returns the
  /// last statement's result.
  util::Result<excess::QueryResult> Execute(const std::string& text);

  /// Parses and executes a program on the default session; returns
  /// every statement's result.
  util::Result<std::vector<excess::QueryResult>> ExecuteAll(
      const std::string& text);

  /// Evaluates a standalone EXCESS expression on the default session
  /// (named objects, ADT and EXCESS functions allowed; no range
  /// variables).
  util::Result<object::Value> EvalExpression(const std::string& text);

  /// Cumulative plan-cache counters (hits / misses / evictions /
  /// invalidations) across all sessions.
  excess::PlanCacheStats CacheStats() const { return plan_cache_.stats(); }

  /// The shared prepared-plan cache (sizing, Clear for tests).
  excess::PlanCache* plan_cache() { return &plan_cache_; }

  /// This database's metrics registry: plan-cache, buffer-pool,
  /// statement and per-operator series; a Server registers its
  /// connection/latency series here too. RenderPrometheus() on the
  /// result gives the text exposition served by `\metrics`.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// Statement-level tracing: query IDs, phase timings, the slow-query
  /// log and the optional JSON sink.
  obs::QueryTracer* tracer() { return tracer_.get(); }

  /// Per-class wait-event accounting (exodus_wait_events_total /
  /// exodus_wait_time_us). EXODUS_WAIT_EVENTS=off disables at startup;
  /// SetEnabled toggles at runtime (benchmark ablation).
  obs::WaitProfile* wait_profile() { return &wait_profile_; }

  /// The live-session directory behind `\activity` and the ACTIVITY
  /// wire message: every Session registers an ActivitySlot here for its
  /// lifetime.
  obs::SessionRegistry* sessions() { return &sessions_; }

  /// Installs (or clears, with nullptr) a sink receiving one structured
  /// JSON line per executed statement (schema in docs/observability.md).
  /// The sink runs on the executing thread; keep it cheap.
  void SetTraceSink(obs::QueryTracer::TraceSink sink) {
    tracer_->SetSink(std::move(sink));
  }

  /// Statements whose total time reaches `micros` are recorded in the
  /// bounded slow-query log together with their annotated plan;
  /// negative disables (the default).
  void SetSlowQueryThresholdMicros(int64_t micros) {
    tracer_->SetSlowQueryThresholdMicros(micros);
  }

  /// Snapshot of the retained slow-query records (oldest first).
  std::vector<obs::SlowQueryRecord> SlowQueries() const {
    return tracer_->SlowQueries();
  }

  /// The shared worker pool for morsel-driven intra-query parallelism.
  /// Sized to the machine (or EXODUS_EXEC_THREADS, if larger) once per
  /// database; threads spawn lazily on the first parallel statement.
  /// Per-statement width is SessionOptions::exec_threads.
  util::ThreadPool* exec_pool() { return &exec_pool_; }

  /// The MVCC coordinator: commit epoch, snapshot pins, extent latches
  /// and the background version GC. Exposed for tests (RunGcOnce, pin
  /// bookkeeping) and benchmarks; statement execution reaches it
  /// through the Session layer, which owns all locking.
  excess::ConcurrencyController* concurrency() { return controller_.get(); }

  /// Renders a value with references resolved through the heap, up to
  /// `depth` levels (deeper references print as <Type #oid>).
  std::string FormatValue(const object::Value& v, int depth = 2) const;

  /// Renders a query result as text with references resolved.
  std::string Format(const excess::QueryResult& result, int depth = 2) const;

  /// The plan of the most recently executed retrieve/update (EXPLAIN).
  /// Returned by value under an internal mutex: concurrent sessions all
  /// write this diagnostic slot.
  std::string last_plan() const {
    std::lock_guard<std::mutex> lock(last_plan_mu_);
    return last_plan_;
  }

  /// True for statements that never mutate database state (plain
  /// retrieves, i.e. not `retrieve into`). Read-only statements execute
  /// under a shared database lock and may run concurrently; everything
  /// else (DDL, updates, auth, procedures) takes the lock exclusively.
  static bool IsReadOnly(const excess::Stmt& stmt) {
    return stmt.kind == excess::StmtKind::kRetrieve && stmt.into.empty();
  }

  /// Saves schema + data to `path` as a checkpoint image
  /// (wal/wal_format.h): written to `path.tmp`, fsynced and renamed over
  /// `path`, so a failed save leaves any previous image intact.
  util::Status Save(const std::string& path);
  /// Restores a database saved with Save() or Checkpoint().
  static util::Result<std::unique_ptr<Database>> Load(const std::string& path);
  /// Restores a database from an image held in memory (the bytes
  /// ReplicaSnapshot() returns).
  static util::Result<std::unique_ptr<Database>> LoadImage(
      const std::string& image);

  /// Enables logical (statement-level) journaling through the
  /// write-ahead log at `path` (plus rotated segments `path.NNNNNN`):
  /// every successful mutating statement is appended as one CRC-framed
  /// WAL record, made durable per the executing session's
  /// SessionOptions::durability, so a crashed process can be recovered
  /// with Recover(). Creates the log if absent; resumes its LSN
  /// sequence (truncating a torn tail) if not.
  util::Status EnableJournal(const std::string& path);
  /// Checkpoints to `path` without stopping the world: a brief
  /// exclusive barrier rotates the WAL (the *cut*) and pins the commit
  /// epoch, then the image is written under a shared lock — concurrent
  /// readers and snapshot writers keep running. The image lands in
  /// `path.tmp`, is fsynced, renamed over `path` and the rename
  /// fsynced; only then are WAL segments at or below the cut dropped,
  /// so a crash at any point recovers from either the old pair or the
  /// new one, never from a truncated journal with no durable image.
  util::Status Checkpoint(const std::string& path);
  /// Rebuilds a database from an optional checkpoint (`checkpoint_path`
  /// may be empty for none) plus the WAL: loads the image, then
  /// replays every WAL record with LSN greater than the image's
  /// recorded cut. A torn final record — the crash case — is ignored.
  /// The recovered database journals to `journal_path` again,
  /// continuing the LSN sequence.
  static util::Result<std::unique_ptr<Database>> Recover(
      const std::string& checkpoint_path, const std::string& journal_path);

  /// The write-ahead log, or nullptr before EnableJournal. Stable once
  /// published; the server's replication endpoint tails it.
  wal::WalWriter* wal() const {
    return wal_ptr_.load(std::memory_order_acquire);
  }
  bool journal_enabled() const { return wal() != nullptr; }

  /// Starts a background checkpointer: every `interval_ms` it runs
  /// Checkpoint(path). Errors are counted
  /// (exodus_checkpoint_failures_total) and retried next tick.
  void StartAutoCheckpoint(const std::string& path, int interval_ms);
  void StopAutoCheckpoint();

  /// Read-only mode (replica): every statement that would mutate state
  /// fails with PermissionDenied, except through a session whose
  /// replication-apply flag is set (the WAL apply path).
  void SetReadOnly(bool read_only) {
    read_only_.store(read_only, std::memory_order_release);
  }
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  /// The WAL cut LSN recorded in the checkpoint this database was
  /// loaded from plus everything replayed since (0 for a fresh
  /// database). A replica applying records advances it.
  uint64_t recovered_lsn() const {
    return recovered_lsn_.load(std::memory_order_acquire);
  }

  /// Records that every WAL record up to `lsn` is reflected in this
  /// database's state (monotonic; the replica apply path advances it).
  void AdvanceRecoveredLsn(uint64_t lsn) {
    uint64_t cur = recovered_lsn_.load(std::memory_order_relaxed);
    while (lsn > cur &&
           !recovered_lsn_.compare_exchange_weak(cur, lsn,
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed)) {
    }
  }

  /// The LSN at or below which WAL records may no longer exist on disk:
  /// everything up to it is subsumed by the recovery image or the most
  /// recent truncating checkpoint. A replica tailing from below this
  /// needs a snapshot bootstrap, not records.
  uint64_t wal_base_lsn() const {
    return wal_base_lsn_.load(std::memory_order_acquire);
  }

  /// Builds a consistent checkpoint image for replica bootstrap — the
  /// same non-stop-the-world algorithm as Checkpoint(), minus the WAL
  /// truncation — and returns its bytes. `*snapshot_lsn` receives the
  /// WAL cut the image subsumes: the replica loads the image, then
  /// tails records with LSN above the cut (all still on disk, since
  /// nothing was dropped). Requires journaling.
  util::Result<std::string> ReplicaSnapshot(uint64_t* snapshot_lsn);

  // Typed access for embedding applications, tests and benchmarks.
  extra::Catalog* catalog() { return &catalog_; }
  object::ObjectHeap* heap() { return &heap_; }
  adt::Registry* adts() { return &adts_; }
  excess::FunctionManager* functions() { return &functions_; }
  auth::AuthManager* auth() { return &auth_; }
  index::IndexManager* indexes() { return &indexes_; }
  /// The default session's user (`set user` on the string API).
  const std::string& current_user() const;

  /// Execution options of the default session: optimizer rule
  /// switches (ablation hooks for benchmarks and tests), batch size,
  /// worker threads and isolation mode.
  excess::SessionOptions* mutable_options();

  /// Registers an access-method applicability row for an ADT (the
  /// "tabular optimizer information" channel of paper §4.1.2).
  void RegisterAccessMethod(int adt_id, index::AccessMethodKind method,
                            bool supports_range) {
    indexes_.access_methods()->AddAdtRow(adt_id, method, supports_range);
  }

 private:
  friend class Session;
  friend class PreparedStatement;

  void set_last_plan(std::string plan) {
    std::lock_guard<std::mutex> lock(last_plan_mu_);
    last_plan_ = std::move(plan);
  }

  /// Writes the image to `path` through `path.tmp`: fdatasync, rename,
  /// then fsync of the directory. The caller holds exec_mu_ (shared
  /// plus a pinned snapshot, or exclusive). `epoch` selects the object
  /// versions to serialize (kMaxEpoch = newest committed, for exclusive
  /// contexts). `wal_lsn` is recorded in the image as the WAL cut this
  /// snapshot subsumes; recovery replays only records above it.
  util::Status SaveLocked(const std::string& path, uint64_t epoch,
                          uint64_t wal_lsn);
  /// Encodes the image (as SaveLocked) onto `out`; `name` is for errors.
  util::Status WriteImage(std::FILE* out, const std::string& name,
                          uint64_t epoch, uint64_t wal_lsn);
  /// Load() body: decodes an image from `in`, then closes it.
  static util::Result<std::unique_ptr<Database>> ReadImage(
      std::FILE* in, const std::string& name);

  /// FormatValue at a specific snapshot epoch (the session formatting
  /// paths pass their pinned epoch; kMaxEpoch reads newest committed).
  std::string FormatValueAt(const object::Value& v, int depth,
                            uint64_t epoch) const;

  /// Executes one statement on behalf of `session` (DDL handled here,
  /// queries/updates dispatched to the Executor with the session's
  /// context).
  util::Result<excess::QueryResult> ExecuteStmt(Session& session,
                                                const excess::Stmt& stmt);

  /// True for statements whose effects must be journaled for recovery.
  static bool IsJournaled(const excess::Stmt& stmt);
  /// Appends one statement record to the WAL; `durability` decides when
  /// the append is acknowledged (sync / group / async). Its one caller
  /// is Session::ExecuteWithConcurrency, which appends under the
  /// statement's extent latch or exclusive lock, before the commit.
  util::Status JournalStmt(const excess::Stmt& stmt,
                           wal::Durability durability);

  void AutoCheckpointLoop();

  /// Checkpoint() body: takes the cut and pinned epoch and calls
  /// `write(epoch, cut)` to emit a consistent image (SaveLocked for a
  /// checkpoint file, an in-memory encoding for a replica snapshot).
  /// With `truncate` the WAL then sheds segments the image subsumes and
  /// wal_base_lsn_ advances to the cut; without it the WAL is left
  /// whole. `cut_out`, when non-null, receives the cut LSN.
  util::Status CheckpointInternal(
      const std::function<util::Status(uint64_t epoch, uint64_t cut)>& write,
      uint64_t* cut_out, bool truncate);

  // DDL handlers. Handlers that depend on who is asking (or on session
  // ranges) take the session.
  util::Result<excess::QueryResult> ExecDefineType(const excess::Stmt& stmt);
  util::Result<excess::QueryResult> ExecDefineEnum(const excess::Stmt& stmt);
  util::Result<excess::QueryResult> ExecCreate(Session& session,
                                               const excess::Stmt& stmt);
  util::Result<excess::QueryResult> ExecDrop(Session& session,
                                             const excess::Stmt& stmt);
  util::Result<excess::QueryResult> ExecRange(Session& session,
                                              const excess::Stmt& stmt);
  util::Result<excess::QueryResult> ExecDefineFunction(
      Session& session, const excess::Stmt& stmt);
  util::Result<excess::QueryResult> ExecDefineProcedure(
      Session& session, const excess::Stmt& stmt);
  util::Result<excess::QueryResult> ExecCreateIndex(const excess::Stmt& stmt);
  util::Result<excess::QueryResult> ExecDropIndex(const excess::Stmt& stmt);
  util::Result<excess::QueryResult> ExecAuthStmt(Session& session,
                                                 const excess::Stmt& stmt);
  /// `retrieve into <Name> (...)`: runs the query, synthesizes a row
  /// type from the projection, and materializes the result as a new
  /// named set.
  util::Result<excess::QueryResult> ExecRetrieveInto(
      Session& session, const excess::Stmt& stmt);

  /// Resolves a syntactic type against the catalog. `pending_name` /
  /// `pending_type` let a type under definition reference itself.
  util::Result<const extra::Type*> ResolveTypeExpr(
      const excess::TypeExpr& te, const std::string& pending_name = "",
      const extra::Type* pending_type = nullptr);

  util::Result<
      std::vector<std::pair<std::string, const extra::Type*>>>
  ResolveParams(const std::vector<excess::Param>& params);

  /// Rebuilds every secondary index from its extent (after Load).
  util::Status RebuildIndexes();

  void LogDdl(const excess::Stmt& stmt) { ddl_log_.push_back(stmt.ToString()); }

  extra::Catalog catalog_;
  object::ObjectHeap heap_;
  adt::Registry adts_;
  excess::FunctionManager functions_;
  auth::AuthManager auth_;
  index::IndexManager indexes_;
  /// Prepared plans, shared by all sessions.
  excess::PlanCache plan_cache_;
  /// Observability state. Declared (and thus destroyed) after the data
  /// members above but before default_session_: sessions and servers
  /// hold pointers into the registry, so it must outlive them.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::QueryTracer> tracer_;
  /// Wait-event series (registered into metrics_ at construction).
  /// Declared before exec_pool_ (whose queue-wait hook records into it)
  /// and before the sessions that publish waits.
  obs::WaitProfile wait_profile_{&metrics_};
  /// Live-session activity slots. Declared before default_session_ so
  /// sessions can unregister in their destructors.
  obs::SessionRegistry sessions_;
  /// Cumulative per-operator series, shared by every session's context.
  excess::OperatorMetrics op_metrics_;
  /// Width of the shared exec_pool_ for this machine/environment.
  static size_t ExecPoolWidth();
  /// Morsel workers, shared by every session (lazily spawned; see
  /// exec_pool()). Declared before default_session_ so it outlives the
  /// sessions whose statements submit to it.
  util::ThreadPool exec_pool_{ExecPoolWidth()};
  /// Backs the string-only convenience API (user dba).
  std::unique_ptr<Session> default_session_;
  std::vector<std::string> ddl_log_;
  /// Statement-level reader/writer lock: read-only statements
  /// (IsReadOnly) hold it shared and execute concurrently; DDL and
  /// mutations hold it exclusively. Acquired by the Session layer so
  /// every entry point — embedded sessions, the string convenience API
  /// and the network server — shares one discipline.
  mutable std::shared_mutex exec_mu_;
  mutable std::mutex last_plan_mu_;
  std::string last_plan_;
  /// The write-ahead log (src/wal/): snapshot writers on different
  /// extents append concurrently while holding exec_mu_ only shared;
  /// the WalWriter stages under its own mutex and group-commits.
  /// `wal_ptr_` republishes the pointer for lock-free readers (metric
  /// callbacks, the journal_enabled() fast path).
  std::unique_ptr<wal::WalWriter> wal_;
  std::atomic<wal::WalWriter*> wal_ptr_{nullptr};
  std::string journal_path_;
  /// WAL cut subsumed by the loaded checkpoint + records replayed since.
  std::atomic<uint64_t> recovered_lsn_{0};
  /// See wal_base_lsn(): records at or below may have been dropped.
  std::atomic<uint64_t> wal_base_lsn_{0};
  /// Replica mode: mutations fail unless applied by replication.
  std::atomic<bool> read_only_{false};
  /// Serializes whole Checkpoint() calls (manual + auto-checkpointer).
  std::mutex checkpoint_call_mu_;
  obs::Counter* checkpoints_total_ = nullptr;
  obs::Counter* checkpoint_failures_total_ = nullptr;
  // Background checkpointer (StartAutoCheckpoint).
  std::mutex auto_ckpt_mu_;
  std::condition_variable auto_ckpt_cv_;
  bool auto_ckpt_stop_ = false;
  std::string auto_ckpt_path_;
  int auto_ckpt_interval_ms_ = 0;
  std::thread auto_ckpt_thread_;
  /// MVCC epoch/pin/latch coordination and the background version-GC
  /// thread. Declared last so it is destroyed (and the GC thread
  /// joined) before the heap, catalog and indexes it sweeps.
  std::unique_ptr<excess::ConcurrencyController> controller_;
};

}  // namespace exodus

#endif  // EXODUS_EXCESS_DATABASE_H_
