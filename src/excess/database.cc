#include "excess/database.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "adt/box.h"
#include "adt/complex.h"
#include "adt/date.h"

#include "excess/parser.h"
#include "excess/session.h"
#include "storage/serializer.h"
#include "util/string_util.h"
#include "wal/wal_format.h"

namespace exodus {

using excess::Executor;
using excess::ExprKind;
using excess::QueryResult;
using excess::Stmt;
using excess::StmtKind;
using excess::TypeExpr;
using extra::Type;
using extra::TypeKind;
using object::Oid;
using object::Value;
using object::ValueKind;
using util::Result;
using util::Status;

size_t Database::ExecPoolWidth() {
  size_t width = std::thread::hardware_concurrency();
  if (width == 0) width = 1;
  // A session asking for more workers than cores (EXODUS_EXEC_THREADS >
  // hardware_concurrency — oversubscription experiments, single-core CI
  // exercising real concurrency) still gets them: the pool is sized to
  // the larger of the two so TryRunPlanParallel is never starved.
  if (const char* e = std::getenv("EXODUS_EXEC_THREADS");
      e != nullptr && *e != '\0') {
    char* end = nullptr;
    const long v = std::strtol(e, &end, 10);
    if (end != e && *end == '\0' && v > static_cast<long>(width)) {
      width = static_cast<size_t>(v);
    }
  }
  return width;
}

Database::Database() {
#if defined(__GLIBC__)
  // Query execution allocates and frees row storage in bursts; glibc's
  // default trim threshold hands that memory back to the kernel between
  // statements, so every query pays brk/page-fault churn to get it
  // again. Keep a generous pool resident instead (process-wide; set
  // once).
  static const bool malloc_tuned = [] {
    mallopt(M_TRIM_THRESHOLD, 32 * 1024 * 1024);
    mallopt(M_TOP_PAD, 1 * 1024 * 1024);
    return true;
  }();
  (void)malloc_tuned;
#endif
  // Built-in ADT library (Date, Complex, Box) + access-method rows for
  // the comparable Date ADT.
  Status st = adt::InstallBuiltinAdts(
      &adts_, catalog_.type_store(),
      [this](const std::string& name, const Type* type) {
        return catalog_.RegisterType(name, type);
      });
  (void)st;  // built-ins cannot fail on a fresh registry
  if (adt::DateAdtId() >= 0) {
    RegisterAccessMethod(adt::DateAdtId(), index::AccessMethodKind::kBTree,
                         /*supports_range=*/true);
    RegisterAccessMethod(adt::DateAdtId(), index::AccessMethodKind::kHash,
                         /*supports_range=*/false);
  }
  if (adt::ComplexAdtId() >= 0) {
    RegisterAccessMethod(adt::ComplexAdtId(), index::AccessMethodKind::kHash,
                         /*supports_range=*/false);
  }
  if (adt::BoxAdtId() >= 0) {
    RegisterAccessMethod(adt::BoxAdtId(), index::AccessMethodKind::kHash,
                         /*supports_range=*/false);
  }

  // Observability. Plan-cache series render from the cache's own live
  // counters via callbacks; everything else registers eagerly so every
  // series exists (at zero) from the first scrape.
  metrics_.RegisterCallback("exodus_plan_cache_hits_total", "counter",
                            [this] { return plan_cache_.stats().hits; });
  metrics_.RegisterCallback("exodus_plan_cache_misses_total", "counter",
                            [this] { return plan_cache_.stats().misses; });
  metrics_.RegisterCallback("exodus_plan_cache_evictions_total", "counter",
                            [this] { return plan_cache_.stats().evictions; });
  metrics_.RegisterCallback(
      "exodus_plan_cache_invalidations_total", "counter",
      [this] { return plan_cache_.stats().invalidations; });
  op_metrics_.Register(&metrics_);
  tracer_ = std::make_unique<obs::QueryTracer>(&metrics_);
  // EXODUS_SLOW_QUERY_US=<micros> arms the slow-query log from the
  // environment; EXODUS_TRACE=stderr|1|<path> installs a JSON sink.
  if (const char* slow = std::getenv("EXODUS_SLOW_QUERY_US");
      slow != nullptr && *slow != '\0') {
    tracer_->SetSlowQueryThresholdMicros(std::strtoll(slow, nullptr, 10));
  }
  if (const char* dest = std::getenv("EXODUS_TRACE");
      dest != nullptr && *dest != '\0') {
    const std::string d = dest;
    if (d == "stderr" || d == "1") {
      tracer_->SetSink([](const std::string& line) {
        std::fprintf(stderr, "%s\n", line.c_str());
      });
    } else if (std::FILE* f = std::fopen(dest, "ab"); f != nullptr) {
      std::shared_ptr<std::FILE> fp(f, &std::fclose);
      tracer_->SetSink([fp](const std::string& line) {
        std::fwrite(line.data(), 1, line.size(), fp.get());
        std::fputc('\n', fp.get());
        std::fflush(fp.get());
      });
    }
  }

  // MVCC coordination + the exodus_mvcc_* series. The controller must
  // exist before the first session executes anything.
  controller_ = std::make_unique<excess::ConcurrencyController>(
      &heap_, &catalog_, &indexes_, &exec_mu_);
  metrics_.RegisterCallback("exodus_mvcc_epoch", "gauge",
                            [this] { return controller_->epoch(); });
  metrics_.RegisterCallback(
      "exodus_mvcc_pinned_snapshots", "gauge",
      [this] { return static_cast<uint64_t>(controller_->pinned_count()); });
  metrics_.RegisterCallback("exodus_mvcc_snapshot_age", "gauge",
                            [this] { return controller_->snapshot_age(); });
  metrics_.RegisterCallback("exodus_mvcc_live_versions", "gauge",
                            [this] { return heap_.version_count(); });
  metrics_.RegisterCallback(
      "exodus_mvcc_gc_reclaimed_total", "counter",
      [this] { return controller_->gc_reclaimed_total(); });
  metrics_.RegisterCallback(
      "exodus_mvcc_writer_stall_ns_total", "counter",
      [this] { return controller_->writer_stall_ns_total(); });
  metrics_.RegisterCallback("exodus_mvcc_snapshot_writes_total", "counter",
                            [this] {
                              return controller_->snapshot_writes.load(
                                  std::memory_order_relaxed);
                            });
  metrics_.RegisterCallback("exodus_mvcc_locked_writes_total", "counter",
                            [this] {
                              return controller_->locked_writes.load(
                                  std::memory_order_relaxed);
                            });
  metrics_.RegisterCallback("exodus_mvcc_write_escalations_total", "counter",
                            [this] {
                              return controller_->write_escalations.load(
                                  std::memory_order_relaxed);
                            });
  controller_->SetWaitProfile(&wait_profile_);
  // Queue waits in the shared morsel pool count as thread_pool_queue;
  // the hook runs on the worker, so no statement slot is bound (the
  // statement thread is busy elsewhere) — cumulative series only.
  exec_pool_.SetQueueWaitHook(
      [this](uint64_t ns) {
        wait_profile_.Record(obs::WaitEvent::kThreadPoolQueue, ns);
      });

  // The default session backs the string-only Execute/ExecuteAll API.
  default_session_.reset(new Session(this, auth::AuthManager::kDba));
}

Database::~Database() {
  StopAutoCheckpoint();
  // wal_'s destructor flushes everything staged and joins the flusher.
}

Result<std::unique_ptr<Session>> Database::CreateSession(
    const std::string& user) {
  // Reads auth state, which concurrent auth statements mutate under the
  // exclusive lock; callers no longer lock around session creation.
  std::shared_lock<std::shared_mutex> lock(exec_mu_);
  if (user != auth::AuthManager::kDba && !auth_.UserExists(user)) {
    return Status::NotFound("no user named '" + user + "'");
  }
  return std::unique_ptr<Session>(new Session(this, user));
}

const std::string& Database::current_user() const {
  return default_session_->user();
}

excess::SessionOptions* Database::mutable_options() {
  return default_session_->mutable_options();
}

/// True for statements whose effects must be journaled for recovery.
/// Retrieves are read-only (except `retrieve into`); `range of`
/// declarations are journaled because later journaled statements may
/// reference them.
bool Database::IsJournaled(const Stmt& stmt) {
  return stmt.kind != StmtKind::kRetrieve || !stmt.into.empty();
}

Status Database::JournalStmt(const Stmt& stmt, wal::Durability durability) {
  // Snapshot writers on different extents append concurrently (they
  // hold exec_mu_ only shared); their statements commute, so any append
  // order replays correctly. The WalWriter serializes staging and
  // group-commits the fsync.
  wal::WalWriter* w = wal();
  if (w == nullptr) return Status::Internal("journaling is not enabled");
  return w->Append(wal::RecordType::kStatement, stmt.ToString(), durability)
      .status();
}

Status Database::EnableJournal(const std::string& path) {
  std::unique_lock<std::shared_mutex> lock(exec_mu_);
  if (wal_ != nullptr) {
    return Status::AlreadyExists("journaling already enabled");
  }
  EXODUS_ASSIGN_OR_RETURN(
      wal_, wal::WalWriter::Open(path, recovered_lsn() + 1));
  wal_->SetWaitProfile(&wait_profile_);
  journal_path_ = path;

  // exodus_wal_* series render from the writer's live counters. The
  // registry outlives the writer (member order), and the writer is
  // never republished as null before destruction, so the acquire load
  // in wal() is the only synchronization the callbacks need.
  metrics_.RegisterCallback("exodus_wal_appends_total", "counter", [this] {
    wal::WalWriter* w = wal();
    return w != nullptr ? w->counters().appends : 0;
  });
  metrics_.RegisterCallback("exodus_wal_fsyncs_total", "counter", [this] {
    wal::WalWriter* w = wal();
    return w != nullptr ? w->counters().fsyncs : 0;
  });
  metrics_.RegisterCallback(
      "exodus_wal_flush_batches_total", "counter", [this] {
        wal::WalWriter* w = wal();
        return w != nullptr ? w->counters().flush_batches : 0;
      });
  metrics_.RegisterCallback(
      "exodus_wal_batch_records_total", "counter", [this] {
        wal::WalWriter* w = wal();
        return w != nullptr ? w->counters().batch_records : 0;
      });
  metrics_.RegisterCallback("exodus_wal_rotations_total", "counter", [this] {
    wal::WalWriter* w = wal();
    return w != nullptr ? w->counters().rotations : 0;
  });
  metrics_.RegisterCallback("exodus_wal_last_lsn", "gauge", [this] {
    wal::WalWriter* w = wal();
    return w != nullptr ? w->LastAppendedLsn() : 0;
  });
  metrics_.RegisterCallback("exodus_wal_durable_lsn", "gauge", [this] {
    wal::WalWriter* w = wal();
    return w != nullptr ? w->LastDurableLsn() : 0;
  });
  checkpoints_total_ = metrics_.GetCounter("exodus_checkpoints_total");
  checkpoint_failures_total_ =
      metrics_.GetCounter("exodus_checkpoint_failures_total");

  // Records at or below the recovery baseline may have been dropped by
  // the checkpoint that produced the image we loaded from.
  wal_base_lsn_.store(recovered_lsn(), std::memory_order_release);
  wal_ptr_.store(wal_.get(), std::memory_order_release);
  return Status::OK();
}

Status Database::Checkpoint(const std::string& path) {
  return CheckpointInternal(
      [&](uint64_t epoch, uint64_t cut) {
        return SaveLocked(path, epoch, cut);
      },
      nullptr, /*truncate=*/true);
}

Result<std::string> Database::ReplicaSnapshot(uint64_t* snapshot_lsn) {
  if (!journal_enabled()) {
    return Status::InvalidArgument(
        "replica snapshot requires journaling on the primary");
  }
  std::string image;
  uint64_t cut = 0;
  EXODUS_RETURN_IF_ERROR(CheckpointInternal(
      [&](uint64_t epoch, uint64_t wal_lsn) -> Status {
        char* buf = nullptr;
        size_t size = 0;
        std::FILE* out = ::open_memstream(&buf, &size);
        if (out == nullptr) {
          return Status::IoError("cannot open replica snapshot buffer");
        }
        Status st = WriteImage(out, "replica snapshot", epoch, wal_lsn);
        if (std::fclose(out) != 0 && st.ok()) {
          st = Status::IoError("cannot close replica snapshot buffer");
        }
        if (st.ok()) image.assign(buf, size);
        std::free(buf);
        return st;
      },
      &cut, /*truncate=*/false));
  metrics_.GetCounter("exodus_replica_snapshots_total")->Increment();
  *snapshot_lsn = cut;
  return image;
}

Status Database::CheckpointInternal(
    const std::function<Status(uint64_t epoch, uint64_t cut)>& write,
    uint64_t* cut_out, bool truncate) {
  // One checkpoint at a time (the auto-checkpointer may race a manual
  // call); statement execution is unaffected by this mutex.
  std::lock_guard<std::mutex> call_lock(checkpoint_call_mu_);
  wal::WalWriter* w = wal();
  if (w == nullptr) {
    // No journal: a checkpoint is just an exclusive save.
    std::unique_lock<std::shared_mutex> lock(exec_mu_);
    return write(object::kMaxEpoch, 0);
  }

  uint64_t cut = 0;
  bool saved = false;
  // Write the image without stopping the world: a brief exclusive
  // barrier captures the WAL cut and pins the commit epoch atomically
  // with respect to every writer (snapshot writers journal AND commit
  // while holding exec_mu_ shared continuously, so the barrier never
  // splits a journal/commit pair). The image itself is then written
  // under a shared lock at the pinned epoch — readers and snapshot
  // writers keep running; their commits land above the pin and their
  // WAL records above the cut.
  //
  // Exclusive-path writers (DDL, escalations, locked isolation) mutate
  // in place, invisible to the epoch pin — if one slips into the gap
  // between the barrier and the shared re-acquire, the image is stale.
  // The gap is detected via the controller's locked-write counter and
  // the attempt retried; after a few collisions fall back to a fully
  // exclusive (stop-the-world, but always correct) save.
  for (int attempt = 0; attempt < 5 && !saved; ++attempt) {
    uint64_t epoch = 0;
    uint64_t locked_writes0 = 0;
    {
      std::unique_lock<std::shared_mutex> lock(exec_mu_);
      EXODUS_ASSIGN_OR_RETURN(cut, w->Rotate());
      epoch = controller_->Pin();
      locked_writes0 =
          controller_->locked_writes.load(std::memory_order_relaxed);
    }
    {
      std::shared_lock<std::shared_mutex> lock(exec_mu_);
      if (controller_->locked_writes.load(std::memory_order_relaxed) ==
          locked_writes0) {
        Status st = write(epoch, cut);
        if (!st.ok()) {
          controller_->Unpin(epoch);
          checkpoint_failures_total_->Increment();
          return st;
        }
        saved = true;
      }
    }
    controller_->Unpin(epoch);
  }
  if (!saved) {
    std::unique_lock<std::shared_mutex> lock(exec_mu_);
    EXODUS_ASSIGN_OR_RETURN(cut, w->Rotate());
    Status st = write(object::kMaxEpoch, cut);
    if (!st.ok()) {
      checkpoint_failures_total_->Increment();
      return st;
    }
  }

  // Durable-order publish: only once the image is durable under its
  // name (SaveLocked renames and fsyncs the directory) may the WAL shed
  // segments the image subsumes. A crash before the rename recovers
  // from the old pair; after it, from the new one.
  if (truncate) {
    // Publish the new base before dropping: a replica tail that checks
    // the base and finds it above its position asks for a snapshot
    // instead of silently skipping the dropped gap. Replica retainers
    // hold the actual drop floor at their position regardless.
    wal_base_lsn_.store(cut, std::memory_order_release);
    EXODUS_RETURN_IF_ERROR(w->DropSegmentsBelow(cut));
    checkpoints_total_->Increment();
  }
  if (cut_out != nullptr) *cut_out = cut;
  return Status::OK();
}

void Database::StartAutoCheckpoint(const std::string& path, int interval_ms) {
  StopAutoCheckpoint();
  std::lock_guard<std::mutex> lock(auto_ckpt_mu_);
  auto_ckpt_stop_ = false;
  auto_ckpt_path_ = path;
  auto_ckpt_interval_ms_ = interval_ms;
  auto_ckpt_thread_ = std::thread(&Database::AutoCheckpointLoop, this);
}

void Database::StopAutoCheckpoint() {
  {
    std::lock_guard<std::mutex> lock(auto_ckpt_mu_);
    auto_ckpt_stop_ = true;
  }
  auto_ckpt_cv_.notify_all();
  if (auto_ckpt_thread_.joinable()) auto_ckpt_thread_.join();
}

void Database::AutoCheckpointLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(auto_ckpt_mu_);
      auto_ckpt_cv_.wait_for(lock,
                             std::chrono::milliseconds(auto_ckpt_interval_ms_),
                             [this] { return auto_ckpt_stop_; });
      if (auto_ckpt_stop_) return;
    }
    // Failures already counted inside Checkpoint; retried next tick.
    (void)Checkpoint(auto_ckpt_path_);
  }
}

Result<std::unique_ptr<Database>> Database::Recover(
    const std::string& checkpoint_path, const std::string& journal_path) {
  std::unique_ptr<Database> db;
  if (!checkpoint_path.empty()) {
    EXODUS_ASSIGN_OR_RETURN(db, Load(checkpoint_path));
  } else {
    db = std::make_unique<Database>();
  }
  const uint64_t base_lsn = db->recovered_lsn();
  // Scan tolerates a torn tail (crash mid-append); corruption anywhere
  // else is an error, not something to replay past.
  EXODUS_ASSIGN_OR_RETURN(wal::ReadResult scan,
                          wal::WalReader::ReadAll(journal_path));
  for (const wal::WalRecord& rec : scan.records) {
    if (rec.lsn <= base_lsn) continue;  // subsumed by the checkpoint
    if (rec.type != wal::RecordType::kStatement) continue;
    auto st = db->Execute(rec.payload);
    if (!st.ok()) {
      return Status::IoError("journal replay failed on '" + rec.payload +
                             "': " + st.status().ToString());
    }
    db->recovered_lsn_.store(rec.lsn, std::memory_order_release);
  }
  EXODUS_RETURN_IF_ERROR(db->EnableJournal(journal_path));
  // EnableJournal set the base to the post-replay position; the records
  // we just replayed are in fact still on disk, so tails may start
  // anywhere above the image's own cut.
  db->wal_base_lsn_.store(base_lsn, std::memory_order_release);
  return db;
}

Result<std::vector<QueryResult>> Database::ExecuteAll(
    const std::string& text) {
  return default_session_->ExecuteAll(text);
}

Result<QueryResult> Database::Execute(const std::string& text) {
  return default_session_->Execute(text);
}

Result<Value> Database::EvalExpression(const std::string& text) {
  return default_session_->EvalExpression(text);
}

Result<QueryResult> Database::ExecuteStmt(Session& session, const Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::kDefineType:
      return ExecDefineType(stmt);
    case StmtKind::kDefineEnum:
      return ExecDefineEnum(stmt);
    case StmtKind::kCreate:
      return ExecCreate(session, stmt);
    case StmtKind::kDrop:
      return ExecDrop(session, stmt);
    case StmtKind::kRange:
      return ExecRange(session, stmt);
    case StmtKind::kDefineFunction:
      return ExecDefineFunction(session, stmt);
    case StmtKind::kDefineProcedure:
      return ExecDefineProcedure(session, stmt);
    case StmtKind::kCreateIndex:
      return ExecCreateIndex(stmt);
    case StmtKind::kDropIndex:
      return ExecDropIndex(stmt);
    case StmtKind::kCreateUser:
    case StmtKind::kCreateGroup:
    case StmtKind::kAddToGroup:
    case StmtKind::kSetUser:
    case StmtKind::kGrant:
    case StmtKind::kRevoke:
      return ExecAuthStmt(session, stmt);
    case StmtKind::kRetrieve:
      if (!stmt.into.empty()) return ExecRetrieveInto(session, stmt);
      [[fallthrough]];
    default: {
      Executor exec(&session.ctx_);
      auto result = exec.Execute(stmt);
      set_last_plan(exec.last_plan());
      return result;
    }
  }
}

// ---------------------------------------------------------------------------
// Type resolution
// ---------------------------------------------------------------------------

Result<const Type*> Database::ResolveTypeExpr(const TypeExpr& te,
                                              const std::string& pending_name,
                                              const Type* pending_type) {
  extra::TypeStore* store = catalog_.type_store();
  switch (te.kind) {
    case TypeExpr::Kind::kChar:
      return store->Char(te.char_length);
    case TypeExpr::Kind::kSet: {
      EXODUS_ASSIGN_OR_RETURN(
          const Type* elem,
          ResolveTypeExpr(*te.elem, pending_name, pending_type));
      return store->MakeSet(elem);
    }
    case TypeExpr::Kind::kArray: {
      EXODUS_ASSIGN_OR_RETURN(
          const Type* elem,
          ResolveTypeExpr(*te.elem, pending_name, pending_type));
      return store->MakeArray(elem, te.array_size);
    }
    case TypeExpr::Kind::kRef: {
      const Type* target = nullptr;
      if (!pending_name.empty() && te.name == pending_name) {
        target = pending_type;
      } else {
        EXODUS_ASSIGN_OR_RETURN(target, catalog_.FindType(te.name));
      }
      if (!target->is_tuple()) {
        return Status::TypeError("'" + te.name +
                                 "' is not a schema (tuple) type; references "
                                 "can only target tuple types");
      }
      return store->MakeRef(target, te.owned);
    }
    case TypeExpr::Kind::kNamed: {
      if (!pending_name.empty() && te.name == pending_name) {
        return pending_type;
      }
      // Built-in base-type names.
      const std::string& n = te.name;
      if (n == "int2") return store->int2();
      if (n == "int4" || n == "int" || n == "integer") return store->int4();
      if (n == "int8") return store->int8();
      if (n == "float4") return store->float4();
      if (n == "float8" || n == "float" || n == "double") {
        return store->float8();
      }
      if (n == "bool" || n == "boolean") return store->boolean();
      if (n == "text" || n == "varchar" || n == "string") {
        return store->text();
      }
      return catalog_.FindType(n);
    }
  }
  return Status::Internal("unhandled type expression");
}

Result<std::vector<std::pair<std::string, const Type*>>>
Database::ResolveParams(const std::vector<excess::Param>& params) {
  std::vector<std::pair<std::string, const Type*>> out;
  out.reserve(params.size());
  for (const excess::Param& p : params) {
    EXODUS_ASSIGN_OR_RETURN(const Type* t, ResolveTypeExpr(*p.type));
    out.emplace_back(p.name, t);
  }
  return out;
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

Result<QueryResult> Database::ExecDefineType(const Stmt& stmt) {
  if (catalog_.HasType(stmt.name) ||
      catalog_.FindNamed(stmt.name) != nullptr) {
    return Status::AlreadyExists("name '" + stmt.name + "' is already in use");
  }
  std::vector<const Type*> supers;
  std::vector<std::vector<extra::Rename>> renames;
  for (const excess::InheritClause& ic : stmt.inherits) {
    EXODUS_ASSIGN_OR_RETURN(const Type* super,
                            catalog_.FindType(ic.supertype));
    supers.push_back(super);
    renames.push_back(ic.renames);
  }
  EXODUS_ASSIGN_OR_RETURN(
      Type * tuple,
      catalog_.type_store()->BeginTuple(stmt.name, supers, renames));
  std::vector<extra::Attribute> attrs;
  for (const excess::AttrDecl& decl : stmt.attributes) {
    EXODUS_ASSIGN_OR_RETURN(const Type* at,
                            ResolveTypeExpr(*decl.type, stmt.name, tuple));
    extra::Attribute a;
    a.name = decl.name;
    a.type = at;
    attrs.push_back(std::move(a));
  }
  EXODUS_RETURN_IF_ERROR(
      catalog_.type_store()->FinishTuple(tuple, std::move(attrs)));
  EXODUS_RETURN_IF_ERROR(catalog_.RegisterType(stmt.name, tuple));
  LogDdl(stmt);
  QueryResult r;
  r.message = "defined type " + stmt.name;
  return r;
}

Result<QueryResult> Database::ExecDefineEnum(const Stmt& stmt) {
  const Type* t =
      catalog_.type_store()->MakeEnum(stmt.name, stmt.enum_labels);
  EXODUS_RETURN_IF_ERROR(catalog_.RegisterType(stmt.name, t));
  LogDdl(stmt);
  QueryResult r;
  r.message = "defined enum " + stmt.name;
  return r;
}

Result<QueryResult> Database::ExecCreate(Session& session, const Stmt& stmt) {
  EXODUS_ASSIGN_OR_RETURN(const Type* declared, ResolveTypeExpr(*stmt.type));

  // Top-level identity adjustment: members of named collections of a
  // schema type are objects with identity (they can be referenced from
  // elsewhere, e.g. StarEmployee : ref Employee into Employees); a named
  // single tuple is likewise an object.
  extra::TypeStore* store = catalog_.type_store();
  const Type* adjusted = declared;
  if (declared->is_set() && declared->element_type()->is_tuple()) {
    adjusted = store->MakeSet(
        store->MakeRef(declared->element_type(), /*owned=*/true));
  } else if (declared->is_array() && declared->element_type()->is_tuple()) {
    adjusted = store->MakeArray(
        store->MakeRef(declared->element_type(), /*owned=*/true),
        declared->array_size());
  } else if (declared->is_tuple()) {
    adjusted = store->MakeRef(declared, /*owned=*/true);
  }

  Value initial;
  if (stmt.init) {
    Executor exec(&session.ctx_);
    EXODUS_ASSIGN_OR_RETURN(initial,
                            exec.BuildStandalone(*stmt.init, adjusted));
  } else if (adjusted->is_ref() && adjusted->owned() && declared->is_tuple()) {
    // A named single object springs into existence with default fields.
    std::vector<Value> fields;
    for (const extra::Attribute& a : declared->attributes()) {
      fields.push_back(Executor::DefaultValue(a.type));
    }
    Oid oid = heap_.Allocate(declared, std::move(fields));
    EXODUS_RETURN_IF_ERROR(heap_.SetOwned(oid, object::kInvalidOid));
    initial = Value::Ref(oid);
  } else {
    initial = Executor::DefaultValue(adjusted);
  }

  // Own the initializer's components.
  if (stmt.init) {
    std::vector<Oid> owned;
    object::ObjectHeap::CollectOwnedRefs(adjusted, initial, &owned);
    for (Oid child : owned) {
      object::HeapObject* obj = heap_.Get(child);
      if (obj != nullptr && !obj->owned) {
        EXODUS_RETURN_IF_ERROR(heap_.SetOwned(child, object::kInvalidOid));
      }
    }
  }

  // Keys (paper footnote 2: "keys, the specification of which will be
  // associated with set instances").
  if (!stmt.key_attrs.empty()) {
    if (!adjusted->is_set() || !adjusted->element_type()->is_ref()) {
      return Status::TypeError(
          "keys can only be declared on named sets of schema-type objects");
    }
    const Type* elem = adjusted->element_type()->target();
    for (const std::string& attr : stmt.key_attrs) {
      EXODUS_RETURN_IF_ERROR(elem->FindAttribute(attr).status());
    }
  }

  EXODUS_RETURN_IF_ERROR(catalog_.CreateNamed(stmt.name, adjusted,
                                              std::move(initial),
                                              session.ctx_.current_user));
  catalog_.FindNamed(stmt.name)->key_attrs = stmt.key_attrs;
  LogDdl(stmt);
  QueryResult r;
  r.message = "created " + stmt.name + " : " + adjusted->ToString();
  return r;
}

Result<QueryResult> Database::ExecDrop(Session& session, const Stmt& stmt) {
  extra::NamedObject* named = catalog_.FindNamed(stmt.name);
  if (named == nullptr) {
    return Status::NotFound("no database object named '" + stmt.name + "'");
  }
  if (session.ctx_.current_user != auth::AuthManager::kDba &&
      session.ctx_.current_user != named->creator) {
    return Status::PermissionDenied("only the creator or dba may drop '" +
                                    stmt.name + "'");
  }
  // Destroy owned members (cascade), then drop dependent indexes.
  std::vector<Oid> owned;
  object::ObjectHeap::CollectOwnedRefs(named->type, named->value(), &owned);
  for (Oid oid : owned) heap_.Delete(oid);
  std::vector<std::string> dead_indexes;
  for (const auto& [iname, info] : indexes_.all()) {
    if (info.set_name == stmt.name) dead_indexes.push_back(iname);
  }
  for (const std::string& iname : dead_indexes) {
    EXODUS_RETURN_IF_ERROR(indexes_.Drop(iname));
  }
  auth_.DropObject(stmt.name);
  EXODUS_RETURN_IF_ERROR(catalog_.DropNamed(stmt.name));
  LogDdl(stmt);
  QueryResult r;
  r.message = "dropped " + stmt.name;
  return r;
}

Result<QueryResult> Database::ExecRange(Session& session, const Stmt& stmt) {
  session.ranges_[stmt.name] = stmt.range->Clone();
  // Prepared statements bound against the old ranges must re-prepare.
  ++session.range_epoch_;
  QueryResult r;
  r.message = "range of " + stmt.name + " is " + stmt.range->ToString();
  return r;
}

Result<QueryResult> Database::ExecDefineFunction(Session& session,
                                                 const Stmt& stmt) {
  excess::FunctionDef def;
  def.name = stmt.name;
  EXODUS_ASSIGN_OR_RETURN(def.params, ResolveParams(stmt.params));
  EXODUS_ASSIGN_OR_RETURN(def.return_type, ResolveTypeExpr(*stmt.returns));
  def.early_binding = stmt.early_binding;
  def.body = stmt.body->Clone();
  def.definer = session.ctx_.current_user;
  def.source = stmt.ToString();
  EXODUS_RETURN_IF_ERROR(functions_.Define(std::move(def)));
  // Cached plans may have resolved (or failed to resolve) this name.
  catalog_.BumpGeneration();
  LogDdl(stmt);
  QueryResult r;
  r.message = "defined function " + stmt.name;
  return r;
}

Result<QueryResult> Database::ExecDefineProcedure(Session& session,
                                                  const Stmt& stmt) {
  excess::ProcedureDef def;
  def.name = stmt.name;
  EXODUS_ASSIGN_OR_RETURN(def.params, ResolveParams(stmt.params));
  for (const excess::StmtPtr& s : stmt.proc_body) {
    def.body.push_back(s->Clone());
  }
  def.definer = session.ctx_.current_user;
  def.source = stmt.ToString();
  EXODUS_RETURN_IF_ERROR(functions_.DefineProcedure(std::move(def)));
  catalog_.BumpGeneration();
  LogDdl(stmt);
  QueryResult r;
  r.message = "defined procedure " + stmt.name;
  return r;
}

Result<QueryResult> Database::ExecCreateIndex(const Stmt& stmt) {
  const extra::NamedObject* named = catalog_.FindNamed(stmt.on_set);
  if (named == nullptr) {
    return Status::NotFound("no named set '" + stmt.on_set + "'");
  }
  if (named->type == nullptr || !named->type->is_set() ||
      !named->type->element_type()->is_ref()) {
    return Status::TypeError(
        "indexes require a named set of schema-type objects");
  }
  const Type* elem = named->type->element_type()->target();
  EXODUS_ASSIGN_OR_RETURN(const extra::Attribute* attr,
                          elem->FindAttribute(stmt.on_attr));
  EXODUS_ASSIGN_OR_RETURN(index::AccessMethodKind kind,
                          index::ParseAccessMethodKind(stmt.index_kind));
  EXODUS_RETURN_IF_ERROR(indexes_.Create(stmt.name, stmt.on_set, stmt.on_attr,
                                         kind, attr->type));
  // Bulk-load existing members.
  index::IndexInfo* info = indexes_.Find(stmt.name);
  for (const Value& e : named->value().set().elems) {
    if (e.kind() != ValueKind::kRef) continue;
    const object::HeapObject* obj = heap_.Get(e.AsRef());
    if (obj == nullptr) continue;
    int ai = obj->type->AttributeIndex(stmt.on_attr);
    if (ai < 0) continue;
    const Value& key = obj->fields[static_cast<size_t>(ai)];
    if (key.is_null()) continue;
    EXODUS_RETURN_IF_ERROR(info->Insert(key, e.AsRef()));
  }
  // Plans chosen before this index existed may now be suboptimal —
  // invalidate them so re-preparation can pick the index scan.
  catalog_.BumpGeneration();
  LogDdl(stmt);
  QueryResult r;
  r.message = "created index " + stmt.name + " on " + stmt.on_set + "(" +
              stmt.on_attr + ") using " + stmt.index_kind;
  return r;
}

Result<QueryResult> Database::ExecDropIndex(const Stmt& stmt) {
  EXODUS_RETURN_IF_ERROR(indexes_.Drop(stmt.name));
  // Cached plans may reference the dropped index.
  catalog_.BumpGeneration();
  LogDdl(stmt);
  QueryResult r;
  r.message = "dropped index " + stmt.name;
  return r;
}

Result<QueryResult> Database::ExecAuthStmt(Session& session,
                                           const Stmt& stmt) {
  QueryResult r;
  switch (stmt.kind) {
    case StmtKind::kCreateUser:
      EXODUS_RETURN_IF_ERROR(auth_.CreateUser(stmt.name));
      r.message = "created user " + stmt.name;
      break;
    case StmtKind::kCreateGroup:
      EXODUS_RETURN_IF_ERROR(auth_.CreateGroup(stmt.name));
      r.message = "created group " + stmt.name;
      break;
    case StmtKind::kAddToGroup:
      EXODUS_RETURN_IF_ERROR(
          auth_.AddUserToGroup(stmt.name, stmt.group_name));
      r.message = "added " + stmt.name + " to " + stmt.group_name;
      break;
    case StmtKind::kSetUser:
      if (!auth_.UserExists(stmt.name)) {
        return Status::NotFound("no user named '" + stmt.name + "'");
      }
      session.ctx_.current_user = stmt.name;
      r.message = "current user is " + stmt.name;
      break;
    case StmtKind::kGrant:
    case StmtKind::kRevoke: {
      // Only the object's creator (or dba) may administer grants.
      std::string creator;
      const extra::NamedObject* named = catalog_.FindNamed(stmt.on_object);
      if (named != nullptr) {
        creator = named->creator;
      } else if (functions_.HasFunction(stmt.on_object)) {
        auto def = functions_.Resolve(stmt.on_object, nullptr,
                                      catalog_.lattice());
        if (def.ok()) creator = (*def)->definer;
      } else if (functions_.HasProcedure(stmt.on_object)) {
        auto def = functions_.FindProcedure(stmt.on_object);
        if (def.ok()) creator = (*def)->definer;
      } else {
        return Status::NotFound("no object, function or procedure named '" +
                                stmt.on_object + "'");
      }
      if (session.ctx_.current_user != auth::AuthManager::kDba &&
          session.ctx_.current_user != creator) {
        return Status::PermissionDenied(
            "only the creator or dba may grant/revoke on '" + stmt.on_object +
            "'");
      }
      std::vector<auth::Privilege> privs;
      for (const std::string& p : stmt.privileges) {
        if (p == "all") {
          privs = {auth::Privilege::kRetrieve, auth::Privilege::kAppend,
                   auth::Privilege::kDelete, auth::Privilege::kReplace,
                   auth::Privilege::kExecute};
          break;
        }
        EXODUS_ASSIGN_OR_RETURN(auth::Privilege priv, auth::ParsePrivilege(p));
        privs.push_back(priv);
      }
      for (auth::Privilege priv : privs) {
        for (const std::string& principal : stmt.principals) {
          if (stmt.kind == StmtKind::kGrant) {
            EXODUS_RETURN_IF_ERROR(
                auth_.Grant(stmt.on_object, priv, principal));
          } else {
            EXODUS_RETURN_IF_ERROR(
                auth_.Revoke(stmt.on_object, priv, principal));
          }
        }
      }
      r.message = (stmt.kind == StmtKind::kGrant ? "granted" : "revoked");
      break;
    }
    default:
      return Status::Internal("not an authorization statement");
  }
  LogDdl(stmt);
  return r;
}

Result<QueryResult> Database::ExecRetrieveInto(Session& session,
                                               const Stmt& stmt) {
  const std::string& name = stmt.into;
  const std::string type_name = name + "_row";
  if (catalog_.FindNamed(name) != nullptr || catalog_.HasType(name) ||
      catalog_.HasType(type_name)) {
    return Status::AlreadyExists("'" + name + "' (or its row type '" +
                                 type_name + "') already exists");
  }

  // Run the query itself.
  excess::StmtPtr plain = stmt.Clone();
  plain->into.clear();
  Executor exec(&session.ctx_);
  EXODUS_ASSIGN_OR_RETURN(QueryResult rows, exec.Execute(*plain));
  set_last_plan(exec.last_plan());

  // Column names: explicit label, else the final attribute of a path,
  // else col<i>; duplicates are an error.
  std::vector<std::string> columns;
  for (size_t i = 0; i < stmt.projections.size(); ++i) {
    const excess::Projection& p = stmt.projections[i];
    std::string col = p.label;
    if (col.empty() && p.expr->kind == ExprKind::kAttr) col = p.expr->name;
    if (col.empty() && p.expr->kind == ExprKind::kVar) col = p.expr->name;
    if (col.empty()) col = "col" + std::to_string(i + 1);
    for (const std::string& prev : columns) {
      if (prev == col) {
        return Status::TypeError(
            "retrieve into: duplicate result column '" + col +
            "'; label the projections");
      }
    }
    columns.push_back(std::move(col));
  }

  // Column types from the observed values (scalars, enums, ADTs and
  // references; composites are not supported in materialized rows).
  extra::TypeStore* store = catalog_.type_store();
  std::vector<const Type*> col_types(columns.size(), nullptr);
  for (const auto& row : rows.rows) {
    for (size_t c = 0; c < columns.size() && c < row.size(); ++c) {
      if (col_types[c] != nullptr) continue;
      const Value& v = row[c];
      switch (v.kind()) {
        case ValueKind::kNull:
          break;
        case ValueKind::kInt:
          col_types[c] = store->int8();
          break;
        case ValueKind::kFloat:
          col_types[c] = store->float8();
          break;
        case ValueKind::kBool:
          col_types[c] = store->boolean();
          break;
        case ValueKind::kString:
          col_types[c] = store->text();
          break;
        case ValueKind::kEnum:
          col_types[c] = v.enum_type();
          break;
        case ValueKind::kAdt: {
          const adt::AdtType* t = adts_.FindTypeById(v.adt_id());
          if (t != nullptr) {
            auto reg = catalog_.FindType(t->name);
            if (reg.ok()) col_types[c] = *reg;
          }
          break;
        }
        case ValueKind::kRef: {
          const object::HeapObject* obj = heap_.Get(v.AsRef());
          if (obj != nullptr) {
            col_types[c] = store->MakeRef(obj->type, /*owned=*/false);
          }
          break;
        }
        default:
          return Status::TypeError(
              "retrieve into supports scalar, enum, ADT and reference "
              "columns; column '" + columns[c] + "' is a " + v.ToString());
      }
    }
  }
  for (size_t c = 0; c < col_types.size(); ++c) {
    if (col_types[c] == nullptr) col_types[c] = store->text();  // all-null
  }

  // Synthesize the row type and the named set, recording replayable DDL.
  std::vector<extra::Attribute> attrs;
  for (size_t c = 0; c < columns.size(); ++c) {
    extra::Attribute a;
    a.name = columns[c];
    a.type = col_types[c];
    attrs.push_back(std::move(a));
  }
  EXODUS_ASSIGN_OR_RETURN(
      const Type* row_type,
      catalog_.type_store()->MakeTuple(type_name, {}, {}, std::move(attrs)));
  EXODUS_RETURN_IF_ERROR(catalog_.RegisterType(type_name, row_type));
  const Type* set_type =
      store->MakeSet(store->MakeRef(row_type, /*owned=*/true));
  EXODUS_RETURN_IF_ERROR(catalog_.CreateNamed(
      name, set_type, Value::EmptySet(), session.ctx_.current_user));
  {
    std::string ddl = "define type " + type_name + " (";
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) ddl += ", ";
      ddl += columns[c] + ": " + col_types[c]->ToString();
    }
    ddl += ")";
    ddl_log_.push_back(ddl);
    ddl_log_.push_back("create " + name + " : {" + type_name + "}");
  }

  // Materialize the rows as owned member objects.
  extra::NamedObject* named = catalog_.FindNamed(name);
  for (auto& row : rows.rows) {
    row.resize(columns.size());
    Oid oid = heap_.Allocate(row_type, std::move(row));
    EXODUS_RETURN_IF_ERROR(heap_.SetOwned(oid, object::kInvalidOid));
    heap_.Get(oid)->owner_extent = name;
    named->mutable_value()->mutable_set()->elems.push_back(Value::Ref(oid));
  }

  QueryResult result;
  result.affected = named->value().set().elems.size();
  result.message = "materialized " + std::to_string(result.affected) +
                   " row(s) into " + name;
  return result;
}

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

std::string Database::FormatValue(const Value& v, int depth) const {
  return FormatValueAt(v, depth, object::kMaxEpoch);
}

std::string Database::FormatValueAt(const Value& v, int depth,
                                    uint64_t epoch) const {
  switch (v.kind()) {
    case ValueKind::kRef: {
      const object::HeapObject* obj = heap_.GetVisible(v.AsRef(), epoch);
      if (obj == nullptr) return "null";
      std::string head =
          "<" + obj->type->name() + " #" + std::to_string(v.AsRef()) + ">";
      if (depth <= 0) return head;
      std::string out = head + "(";
      const auto& attrs = obj->type->attributes();
      for (size_t i = 0; i < attrs.size() && i < obj->fields.size(); ++i) {
        if (i > 0) out += ", ";
        out += attrs[i].name + " = " +
               FormatValueAt(obj->fields[i], depth - 1, epoch);
      }
      out += ")";
      return out;
    }
    case ValueKind::kTuple: {
      const auto& td = v.tuple();
      std::string out = "(";
      for (size_t i = 0; i < td.fields.size(); ++i) {
        if (i > 0) out += ", ";
        if (td.type != nullptr && i < td.type->attributes().size()) {
          out += td.type->attributes()[i].name + " = ";
        }
        out += FormatValueAt(td.fields[i], depth, epoch);
      }
      out += ")";
      return out;
    }
    case ValueKind::kSet: {
      std::string out = "{";
      for (size_t i = 0; i < v.set().elems.size(); ++i) {
        if (i > 0) out += ", ";
        out += FormatValueAt(v.set().elems[i], depth, epoch);
      }
      return out + "}";
    }
    case ValueKind::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < v.array().elems.size(); ++i) {
        if (i > 0) out += ", ";
        out += FormatValueAt(v.array().elems[i], depth, epoch);
      }
      return out + "]";
    }
    default:
      return v.ToString();
  }
}

std::string Database::Format(const QueryResult& result, int depth) const {
  std::string out;
  if (!result.columns.empty()) {
    out += util::Join(result.columns, " | ");
    out += "\n";
    for (const auto& row : result.rows) {
      std::vector<std::string> cells;
      cells.reserve(row.size());
      for (const Value& v : row) cells.push_back(FormatValue(v, depth));
      out += util::Join(cells, " | ");
      out += "\n";
    }
  }
  if (!result.message.empty()) {
    out += result.message;
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Persistence: checkpoint images (wal/wal_format.h)
// ---------------------------------------------------------------------------

Status Database::Save(const std::string& path) {
  // Save is a snapshot reader like any other: shared lock + pinned
  // epoch give a consistent image while snapshot writers keep
  // committing (their new versions are simply above the pin).
  std::shared_lock<std::shared_mutex> lock(exec_mu_);
  excess::SnapshotPin pin(controller_.get());
  return SaveLocked(path, pin.epoch(), /*wal_lsn=*/0);
}

Status Database::SaveLocked(const std::string& path, uint64_t epoch,
                            uint64_t wal_lsn) {
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return Status::IoError("cannot create image '" + tmp +
                           "': " + std::strerror(errno));
  }
  Status st = WriteImage(out, tmp, epoch, wal_lsn);
  // The checkpoint contract (truncate the WAL only once the image is
  // durable) needs a real fdatasync, not just buffered writes.
  if (st.ok() && ::fdatasync(::fileno(out)) != 0) {
    st = Status::IoError("fdatasync of image '" + tmp +
                         "' failed: " + std::strerror(errno));
  }
  if (std::fclose(out) != 0 && st.ok()) {
    st = Status::IoError("cannot close image '" + tmp + "'");
  }
  if (st.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::IoError("cannot rename image '" + tmp + "' to '" + path +
                         "': " + std::strerror(errno));
  }
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  return wal::SyncParentDir(path);
}

Status Database::WriteImage(std::FILE* out, const std::string& name,
                            uint64_t epoch, uint64_t wal_lsn) {
  wal::ImageWriter writer(out, name);
  storage::Serializer serializer(&catalog_, &adts_);
  EXODUS_RETURN_IF_ERROR(writer.Begin(wal_lsn));

  std::string rec;
  for (const std::string& ddl : ddl_log_) {
    rec.assign(1, wal::kImageDdl);
    storage::Serializer::PutString(ddl, &rec);
    EXODUS_RETURN_IF_ERROR(writer.Append(rec));
  }

  Status heap_status = Status::OK();
  heap_.ForEachVisible(epoch, [&](Oid oid, const object::HeapObject& obj) {
    if (!heap_status.ok()) return;
    rec.assign(1, wal::kImageHeap);
    storage::Serializer::PutU64(oid, &rec);
    storage::Serializer::PutString(obj.type->name(), &rec);
    rec.push_back(obj.owned ? 1 : 0);
    storage::Serializer::PutU64(obj.owner_object, &rec);
    storage::Serializer::PutString(obj.owner_extent, &rec);
    storage::Serializer::PutU64(obj.fields.size(), &rec);
    for (const Value& f : obj.fields) {
      heap_status = serializer.EncodeTo(f, &rec);
      if (!heap_status.ok()) return;
    }
    heap_status = writer.Append(rec);
  });
  EXODUS_RETURN_IF_ERROR(heap_status);

  for (const auto& [name, named] : catalog_.named_objects()) {
    rec.assign(1, wal::kImageNamed);
    storage::Serializer::PutString(name, &rec);
    EXODUS_RETURN_IF_ERROR(serializer.EncodeTo(named.ValueAt(epoch), &rec));
    EXODUS_RETURN_IF_ERROR(writer.Append(rec));
  }
  return writer.Finish();
}

Result<std::unique_ptr<Database>> Database::Load(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::NotFound("cannot open image '" + path +
                            "': " + std::strerror(errno));
  }
  return ReadImage(in, path);
}

Result<std::unique_ptr<Database>> Database::LoadImage(
    const std::string& image) {
  // Read-only stream over the bytes in place.
  std::FILE* in = image.empty() ? nullptr
                                : ::fmemopen(const_cast<char*>(image.data()),
                                             image.size(), "rb");
  if (in == nullptr) return Status::IoError("empty in-memory image");
  return ReadImage(in, "in-memory image");
}

Result<std::unique_ptr<Database>> Database::ReadImage(
    std::FILE* in, const std::string& name) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> closer(in, &std::fclose);
  wal::ImageReader reader(in, name);
  EXODUS_ASSIGN_OR_RETURN(uint64_t wal_lsn, reader.Begin());
  auto db = std::make_unique<Database>();
  db->recovered_lsn_.store(wal_lsn, std::memory_order_release);
  storage::Serializer serializer(&db->catalog_, &db->adts_);
  // Records arrive in category order: schema DDL (types, creates,
  // functions, indexes, auth) is replayed first; the objects that
  // replay created are then discarded and the saved heap restored
  // exactly, followed by the named-object values.
  bool heap_cleared = false;
  auto restore = [&](const std::string& rec) -> Status {
    if (rec[0] != wal::kImageDdl && !heap_cleared) {
      db->heap_.Clear();
      heap_cleared = true;
    }
    size_t pos = 1;
    if (rec[0] == wal::kImageDdl) {
      EXODUS_ASSIGN_OR_RETURN(std::string text,
                              storage::Serializer::GetString(rec, &pos));
      return db->Execute(text).status();
    }
    if (rec[0] == wal::kImageNamed) {
      EXODUS_ASSIGN_OR_RETURN(std::string name,
                              storage::Serializer::GetString(rec, &pos));
      EXODUS_ASSIGN_OR_RETURN(Value v, serializer.DecodeFrom(rec, &pos));
      extra::NamedObject* named = db->catalog_.FindNamed(name);
      if (named == nullptr) {
        return Status::IoError("names unknown object '" + name + "'");
      }
      named->Reset(std::move(v));
      return Status::OK();
    }
    EXODUS_ASSIGN_OR_RETURN(uint64_t oid,
                            storage::Serializer::GetU64(rec, &pos));
    EXODUS_ASSIGN_OR_RETURN(std::string type_name,
                            storage::Serializer::GetString(rec, &pos));
    if (pos >= rec.size()) return Status::IoError("truncated heap record");
    bool owned = rec[pos++] != 0;
    EXODUS_ASSIGN_OR_RETURN(uint64_t owner,
                            storage::Serializer::GetU64(rec, &pos));
    EXODUS_ASSIGN_OR_RETURN(std::string extent,
                            storage::Serializer::GetString(rec, &pos));
    EXODUS_ASSIGN_OR_RETURN(uint64_t nfields,
                            storage::Serializer::GetU64(rec, &pos));
    EXODUS_ASSIGN_OR_RETURN(const Type* type,
                            db->catalog_.FindType(type_name));
    std::vector<Value> fields;
    fields.reserve(std::min<uint64_t>(nfields, rec.size() - pos));
    for (uint64_t i = 0; i < nfields; ++i) {
      EXODUS_ASSIGN_OR_RETURN(Value f, serializer.DecodeFrom(rec, &pos));
      fields.push_back(std::move(f));
    }
    return db->heap_.Restore(oid, type, std::move(fields), owned, owner,
                             std::move(extent));
  };

  wal::WalRecord rec;  // reused across frames
  for (;;) {
    EXODUS_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
    if (!more) break;
    if (Status st = restore(rec.payload); !st.ok()) {
      return reader.Error(st.ToString());
    }
  }
  if (!heap_cleared) db->heap_.Clear();
  // Rebuild secondary indexes from the restored extents.
  EXODUS_RETURN_IF_ERROR(db->RebuildIndexes());
  return db;
}

Status Database::RebuildIndexes() {
  struct Spec {
    std::string name, set_name, attr;
    index::AccessMethodKind method;
  };
  std::vector<Spec> specs;
  for (const auto& [name, info] : indexes_.all()) {
    specs.push_back({info.name, info.set_name, info.attr, info.method});
  }
  for (const Spec& s : specs) {
    EXODUS_RETURN_IF_ERROR(indexes_.Drop(s.name));
    const extra::NamedObject* named = catalog_.FindNamed(s.set_name);
    if (named == nullptr) continue;
    const Type* elem = named->type->element_type()->target();
    EXODUS_ASSIGN_OR_RETURN(const extra::Attribute* attr,
                            elem->FindAttribute(s.attr));
    EXODUS_RETURN_IF_ERROR(
        indexes_.Create(s.name, s.set_name, s.attr, s.method, attr->type));
    index::IndexInfo* info = indexes_.Find(s.name);
    for (const Value& e : named->value().set().elems) {
      if (e.kind() != ValueKind::kRef) continue;
      const object::HeapObject* obj = heap_.Get(e.AsRef());
      if (obj == nullptr) continue;
      int ai = obj->type->AttributeIndex(s.attr);
      if (ai < 0) continue;
      const Value& key = obj->fields[static_cast<size_t>(ai)];
      if (key.is_null()) continue;
      EXODUS_RETURN_IF_ERROR(info->Insert(key, e.AsRef()));
    }
  }
  return Status::OK();
}

}  // namespace exodus
