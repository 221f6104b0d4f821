#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <utility>

#include "excess/database.h"
#include "excess/session.h"
#include "obs/wait_event.h"
#include "wal/wal_writer.h"

namespace exodus::server {

using excess::QueryResult;
using util::Result;
using util::Status;

namespace {

/// Payload budget of one WAL_RECORDS batch — well under the frame cap
/// even after framing overhead; a lagging replica just polls again.
constexpr size_t kWalTailBatchBytes = 4u << 20;  // 4 MiB

/// One admission permit, held for the scope of a request's execution.
class Permit {
 public:
  explicit Permit(std::counting_semaphore<>* admission)
      : admission_(admission) {
    admission_->acquire();
  }
  ~Permit() { admission_->release(); }
  Permit(const Permit&) = delete;
  Permit& operator=(const Permit&) = delete;

 private:
  std::counting_semaphore<>* admission_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Connection state
// ---------------------------------------------------------------------------

struct Server::Connection {
  int fd = -1;
  std::thread thread;
  /// Set by the serving thread on exit; the acceptor reaps done
  /// connections so a long-lived server does not accumulate them.
  std::atomic<bool> done{false};
  std::unique_ptr<Session> session;
  std::map<uint32_t, std::unique_ptr<PreparedStatement>> prepared;
  uint32_t next_handle = 1;
  /// This connection's replication slot, created by its first WAL_TAIL
  /// and advanced by each subsequent one: while it lives, checkpoints
  /// keep every WAL record above the replica's acknowledged position.
  std::shared_ptr<wal::WalWriter::Retainer> retainer;
  /// Touched only by this connection's serving thread.
  uint64_t queries = 0;
  uint64_t errors = 0;
};

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

Server::Server(Database* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      admission_(static_cast<std::ptrdiff_t>(
          std::min<size_t>(options_.workers,
                           std::counting_semaphore<>::max()))) {
  // The registry hands out stable pointers and the Database outlives the
  // Server, so the counters can be resolved once here. Two servers on
  // one database share the same series — they are one database's load.
  obs::MetricsRegistry* metrics = db_->metrics();
  counters_.connections_total =
      metrics->GetCounter("exodus_server_connections_total");
  counters_.connections_active =
      metrics->GetGauge("exodus_server_connections_active");
  counters_.queries_total = metrics->GetCounter("exodus_server_queries_total");
  counters_.errors_total = metrics->GetCounter("exodus_server_errors_total");
  counters_.latency = metrics->GetHistogram("exodus_server_latency_us");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (options_.workers == 0) {
    return Status::InvalidArgument(
        "workers must be at least 1: no request could ever execute");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("cannot parse bind address '" +
                                   options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::IoError("bind " + options_.host + ":" +
                                std::to_string(options_.port) + ": " +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status st = Status::IoError(std::string("listen: ") +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (stopping_.exchange(true)) {
    // A concurrent/second Stop still waits for the acceptor below via
    // joinable() checks; the destructor is the common second caller.
  }
  if (listen_fd_ >= 0) {
    // Wakes the blocking accept() (Linux returns EINVAL after shutdown
    // on a listening socket).
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    // SHUT_RD makes the connection's next (or pending) frame read see a
    // clean EOF; the request it is executing right now still finishes
    // and its response still flushes through the write half.
    if (!conn->done.load(std::memory_order_acquire)) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  // Journal note: Database flushes every journal append before it
  // returns, so draining the in-flight statements above is all the
  // "flush" a graceful shutdown needs.
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or unrecoverable) — stop accepting
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    ReapConnections();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    counters_.connections_total->Increment();
    counters_.connections_active->Add(1);
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }
}

void Server::ReapConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

Status Server::SendFrame(Connection* conn, MsgType type,
                         const std::string& body) {
  obs::WaitEventGuard wait(db_->wait_profile(),
                           obs::WaitEvent::kServerSend);
  return WriteFrame(conn->fd, type, body);
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

namespace {

void SendError(int fd, const Status& st) {
  ErrorPayload err = ErrorPayload::FromStatus(st);
  std::string body;
  err.EncodeTo(&body);
  (void)WriteFrame(fd, MsgType::kError, body);  // peer may be gone
}

void SendOk(int fd, const std::string& message) {
  std::string body;
  PutString(message, &body);
  (void)WriteFrame(fd, MsgType::kOk, body);
}

}  // namespace

void Server::ServeConnection(Connection* conn) {
  {
    // Every connection starts as the built-in dba until HELLO names a
    // user. CreateSession locks internally.
    auto session = db_->CreateSession();
    if (session.ok()) conn->session = std::move(*session);
  }
  if (conn->session == nullptr) {
    SendError(conn->fd, Status::Internal("cannot open a session"));
  } else {
    while (true) {
      Result<Frame> frame(Status::Internal("not read"));
      {
        // The connection thread blocking for the next request is the
        // `client_read` wait class. No statement is running on this
        // thread, so only the cumulative series move.
        obs::WaitEventGuard wait(db_->wait_profile(),
                                 obs::WaitEvent::kClientRead);
        frame = ReadFrame(conn->fd);
      }
      if (!frame.ok()) {
        // NotFound = the peer hung up between requests (normal). A
        // malformed or torn frame gets a best-effort error reply; both
        // close only this connection, never the server.
        if (frame.status().code() != util::StatusCode::kNotFound) {
          SendError(conn->fd, frame.status());
        }
        break;
      }
      if (!HandleFrame(conn, *frame)) break;
    }
  }
  ::close(conn->fd);
  conn->prepared.clear();
  conn->session.reset();
  counters_.connections_active->Add(-1);
  conn->done.store(true, std::memory_order_release);
}

bool Server::HandleFrame(Connection* conn, const Frame& frame) {
  // A request that does not decode: best-effort ERROR, then close.
  auto Malformed = [&](const Status& st) {
    SendError(conn->fd, st);
    return false;
  };
  WireReader r(frame.body);
  switch (frame.type) {
    case MsgType::kHello: {
      auto version = r.U8();
      auto user = version.ok() ? r.Str() : Result<std::string>(
                                               version.status());
      if (!user.ok()) return Malformed(user.status());
      if (*version != kProtocolVersion) {
        return Malformed(Status::InvalidArgument(
            "protocol version mismatch: server speaks " +
            std::to_string(kProtocolVersion) + ", client sent " +
            std::to_string(*version)));
      }
      auto session = db_->CreateSession(*user);
      // On failure the old session (dba) stays usable.
      if (!session.ok()) return FailRequest(conn, session.status());
      conn->prepared.clear();  // handles belong to the old session
      conn->session = std::move(*session);
      SendOk(conn->fd, "hello " + *user);
      return true;
    }

    case MsgType::kQuery: {
      auto text = r.Str();
      if (!text.ok()) return Malformed(text.status());
      // A multi-statement program answers with its last statement's
      // result (the convention of Database::Execute).
      return ExecuteAndReply(conn,
                             [&] { return conn->session->Execute(*text); });
    }

    case MsgType::kPrepare: {
      auto text = r.Str();
      if (!text.ok()) return Malformed(text.status());
      Result<std::unique_ptr<PreparedStatement>> stmt = [&] {
        Permit permit(&admission_);
        return conn->session->Prepare(*text);
      }();
      if (!stmt.ok()) return FailRequest(conn, stmt.status());
      uint32_t handle = conn->next_handle++;
      int param_count = (*stmt)->param_count();
      conn->prepared[handle] = std::move(*stmt);
      std::string body;
      PutU32(handle, &body);
      PutU32(static_cast<uint32_t>(param_count), &body);
      return SendFrame(conn, MsgType::kPrepared, body).ok();
    }

    case MsgType::kExecute: {
      auto handle = r.U32();
      if (!handle.ok()) return Malformed(handle.status());
      auto nparams = r.Count(1);  // every value has at least a tag byte
      if (!nparams.ok()) return Malformed(nparams.status());
      std::vector<object::Value> params;
      params.reserve(*nparams);
      for (uint32_t i = 0; i < *nparams; ++i) {
        auto v = GetValue(&r);
        if (!v.ok()) return Malformed(v.status());
        params.push_back(std::move(*v));
      }
      auto it = conn->prepared.find(*handle);
      if (it == conn->prepared.end()) {
        return FailRequest(conn, Status::NotFound("no prepared statement #" +
                                                  std::to_string(*handle)));
      }
      PreparedStatement* stmt = it->second.get();
      return ExecuteAndReply(conn, [&]() -> Result<QueryResult> {
        stmt->ClearBindings();
        for (size_t i = 0; i < params.size(); ++i) {
          EXODUS_RETURN_IF_ERROR(
              stmt->Bind(static_cast<int>(i + 1), std::move(params[i])));
        }
        return stmt->Execute();
      });
    }

    case MsgType::kCloseStmt: {
      auto handle = r.U32();
      if (!handle.ok()) return Malformed(handle.status());
      conn->prepared.erase(*handle);
      SendOk(conn->fd, "closed");
      return true;
    }

    case MsgType::kStats: {
      StatsPayload stats = BuildStats(*conn);
      std::string body;
      stats.EncodeTo(&body);
      return SendFrame(conn, MsgType::kStatsReply, body).ok();
    }

    case MsgType::kMetrics: {
      // Pure atomic reads — no database lock and no admission permit,
      // so a scrape never queues behind a long-running statement.
      std::string body;
      PutString(db_->metrics()->RenderPrometheus(), &body);
      return SendFrame(conn, MsgType::kMetricsReply, body).ok();
    }

    case MsgType::kActivity: {
      // Like kMetrics: takes no admission permit — an activity probe
      // must work precisely when every permit is held by the
      // statements being introspected.
      ActivityPayload p;
      for (const obs::ActivityRecord& rec : db_->sessions()->Snapshot()) {
        ActivityPayload::Entry e;
        e.session_id = rec.session_id;
        e.user = rec.user;
        e.active = rec.active ? 1 : 0;
        e.query_id = rec.query_id;
        e.statement = rec.statement;
        e.elapsed_us = rec.elapsed_us;
        e.phase = obs::StmtPhaseName(rec.phase);
        if (rec.wait != obs::WaitEvent::kNone) {
          e.wait = obs::WaitEventName(rec.wait);
        }
        e.rows = rec.rows;
        e.batches = rec.batches;
        e.morsels_done = rec.morsels_done;
        e.morsels_total = rec.morsels_total;
        p.entries.push_back(std::move(e));
      }
      std::string body;
      p.EncodeTo(&body);
      return SendFrame(conn, MsgType::kActivityReply, body).ok();
    }

    case MsgType::kWalTail: {
      auto after = r.U64();
      if (!after.ok()) return Malformed(after.status());
      wal::WalWriter* w = db_->wal();
      if (w == nullptr) {
        SendError(conn->fd,
                  Status::InvalidArgument(
                      "this server is not journaling; nothing to replicate"));
        return true;
      }
      // Register the replication slot before checking availability:
      // once the retainer exists, a concurrent checkpoint cannot drop
      // records above the replica's position, so a base at or below
      // `after` observed afterwards stays valid.
      bool need_snapshot = false;
      if (conn->retainer == nullptr) {
        conn->retainer = w->CreateRetainer(*after);
        need_snapshot = db_->wal_base_lsn() > *after;
        if (need_snapshot) conn->retainer.reset();
      } else {
        conn->retainer->Advance(*after);
      }
      if (need_snapshot) {
        // The replica predates the retained WAL: ship a checkpoint
        // image. Retried because a truncating checkpoint can land
        // between the image's cut and the slot registration.
        Result<WalSnapshotPayload> snap =
            [&]() -> Result<WalSnapshotPayload> {
          Permit permit(&admission_);
          for (int attempt = 0; attempt < 3; ++attempt) {
            WalSnapshotPayload p;
            EXODUS_ASSIGN_OR_RETURN(p.image,
                                    db_->ReplicaSnapshot(&p.snapshot_lsn));
            conn->retainer = w->CreateRetainer(p.snapshot_lsn);
            if (db_->wal_base_lsn() <= p.snapshot_lsn) return p;
            conn->retainer.reset();
          }
          return Status::Internal(
              "checkpoint truncation keeps outpacing the bootstrap "
              "snapshot; retry");
        }();
        if (!snap.ok()) return FailRequest(conn, snap.status());
        std::string body;
        snap->EncodeTo(&body);
        return SendFrame(conn, MsgType::kWalSnapshotReply, body).ok();
      }
      auto records = w->ReadAfter(*after, kWalTailBatchBytes);
      if (!records.ok()) return FailRequest(conn, records.status());
      WalRecordsPayload p;
      p.primary_durable_lsn = w->LastDurableLsn();
      p.records = std::move(*records);
      std::string body;
      p.EncodeTo(&body);
      return SendFrame(conn, MsgType::kWalRecordsReply, body).ok();
    }

    case MsgType::kBye:
      SendOk(conn->fd, "bye");
      return false;

    default:
      // An unknown type after a well-formed length prefix most likely
      // means the stream is out of sync — close rather than guess.
      return Malformed(Status::InvalidArgument(
          "unknown request type " +
          std::to_string(static_cast<uint8_t>(frame.type))));
  }
}

bool Server::FailRequest(Connection* conn, const Status& st) {
  ++conn->errors;
  counters_.errors_total->Increment();
  SendError(conn->fd, st);
  return true;
}

bool Server::ExecuteAndReply(
    Connection* conn, const std::function<Result<QueryResult>()>& run) {
  const auto started = std::chrono::steady_clock::now();
  Result<RowsPayload> payload = [&]() -> Result<RowsPayload> {
    Permit permit(&admission_);
    EXODUS_ASSIGN_OR_RETURN(QueryResult result, run());
    RowsPayload p;
    // Formatting resolves references through the heap; the session pins
    // a snapshot itself, since other connections may be mutating.
    p.rows = conn->session->FormatRows(result);
    p.columns = std::move(result.columns);
    p.message = std::move(result.message);
    p.affected = result.affected;
    return p;
  }();
  auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - started)
                    .count();
  counters_.latency->Record(static_cast<uint64_t>(micros));
  ++conn->queries;
  counters_.queries_total->Increment();
  if (!payload.ok()) return FailRequest(conn, payload.status());
  std::string body;
  payload->EncodeTo(&body);
  return SendFrame(conn, MsgType::kRows, body).ok();
}

StatsPayload Server::BuildStats(const Connection& conn) const {
  StatsPayload s;
  s.connections_total = counters_.connections_total->value();
  int64_t active = counters_.connections_active->value();
  s.connections_active = active > 0 ? static_cast<uint64_t>(active) : 0;
  s.queries_total = counters_.queries_total->value();
  s.errors_total = counters_.errors_total->value();
  s.p50_micros = counters_.latency->Percentile(0.50);
  s.p99_micros = counters_.latency->Percentile(0.99);
  excess::PlanCacheStats cache = db_->CacheStats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  s.cache_invalidations = cache.invalidations;
  s.cache_evictions = cache.evictions;
  s.connection_queries = conn.queries;
  s.connection_errors = conn.errors;
  if (wal::WalWriter* w = db_->wal()) {
    s.wal_last_lsn = w->LastAppendedLsn();
    s.wal_durable_lsn = w->LastDurableLsn();
    s.wal_fsyncs_total = w->counters().fsyncs;
  }
  if (db_->read_only()) {
    // The replicator publishes its position as plain gauges on the
    // database's registry; GetGauge is idempotent, so reading them
    // before the replicator's first round just yields zeros.
    s.replica_mode = 1;
    obs::MetricsRegistry* metrics = db_->metrics();
    s.replica_applied_lsn = static_cast<uint64_t>(
        metrics->GetGauge("exodus_replica_last_applied_lsn")->value());
    s.replica_lag_records = static_cast<uint64_t>(
        metrics->GetGauge("exodus_replica_lag_records")->value());
  }
  return s;
}

}  // namespace exodus::server
