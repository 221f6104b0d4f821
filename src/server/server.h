#ifndef EXODUS_SERVER_SERVER_H_
#define EXODUS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/protocol.h"
#include "util/result.h"
#include "util/status.h"

namespace exodus {
class Database;
namespace excess {
struct QueryResult;
}
}  // namespace exodus

namespace exodus::server {

struct ServerOptions {
  /// Interface to bind (IPv4 dotted quad). Loopback by default — this
  /// is a research engine, not a hardened network daemon.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// The most requests that execute at once (at least 1). Each
  /// connection executes its own requests on its own thread; beyond
  /// this many, a connection waits for an admission permit.
  size_t workers = 4;
};

/// Fixed power-of-two-bucket latency histogram (microseconds). The
/// server records into the database's metrics registry, so \stats and
/// the Prometheus exposition read the same buckets.
using LatencyHistogram = obs::Histogram;

/// Aggregate server counters — pointers into the owning Database's
/// MetricsRegistry (`exodus_server_*` series), so the same numbers feed
/// \stats and the \metrics exposition. All lock-free atomics underneath:
/// any connection's \stats reads while others execute.
struct ServerCounters {
  obs::Counter* connections_total = nullptr;
  obs::Gauge* connections_active = nullptr;
  obs::Counter* queries_total = nullptr;
  obs::Counter* errors_total = nullptr;
  obs::Histogram* latency = nullptr;
};

/// The networked front end of one Database: accepts TCP connections and
/// gives each its own thread and Session (so `range of` declarations and
/// the authenticated user stay per-connection). The connection thread
/// that reads a request also executes it, holding one of
/// `ServerOptions::workers` admission permits while it does; requests
/// that read only server state (STATS, METRICS, ACTIVITY) take no
/// permit. Isolation between statements is the Session layer's
/// concurrency regime (snapshot reads, latched extent writes).
///
///   exodus::Database db;
///   exodus::server::Server server(&db, {.port = 4077, .workers = 8});
///   auto st = server.Start();       // returns once listening
///   ...
///   server.Stop();                  // drain in-flight queries, join
///
/// Malformed frames and mid-query disconnects fail only their own
/// connection; the server (and the statements of other connections)
/// keep running.
class Server {
 public:
  Server(Database* db, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the acceptor thread. InvalidArgument
  /// when `workers` is 0 (no request could ever be admitted).
  util::Status Start();

  /// Graceful shutdown: stop accepting, let every in-flight request
  /// finish and its response flush, then join all threads. The journal
  /// needs no extra flushing — every append is durable when it returns.
  /// Idempotent.
  void Stop();

  /// The bound TCP port (after Start; resolves port 0 to the actual
  /// ephemeral port).
  uint16_t port() const { return port_; }

  const ServerCounters& counters() const { return counters_; }

  Database* database() { return db_; }

 private:
  struct Connection;

  void AcceptLoop();
  void ServeConnection(Connection* conn);

  /// Handles one decoded request frame; returns false when the
  /// connection should close (BYE, fatal protocol error).
  bool HandleFrame(Connection* conn, const Frame& frame);

  /// Counts a request that failed (connection and server error
  /// counters) and replies ERROR; the connection stays open (true).
  bool FailRequest(Connection* conn, const util::Status& st);

  /// The one execute-and-reply path QUERY and EXECUTE share: runs `run`
  /// and formats its rows under an admission permit, then records the
  /// latency, counts the request (and its error) and sends ROWS or
  /// ERROR. Returns false when the connection should close.
  bool ExecuteAndReply(
      Connection* conn,
      const std::function<util::Result<excess::QueryResult>()>& run);

  /// WriteFrame wrapped in a `server_send` wait guard: response
  /// flushing that blocks on the socket shows up in the wait profile.
  util::Status SendFrame(Connection* conn, MsgType type,
                         const std::string& body);

  StatsPayload BuildStats(const Connection& conn) const;

  /// Joins finished connection threads (called from the accept loop).
  void ReapConnections();

  Database* db_;
  ServerOptions options_;
  /// `options_.workers` permits; a connection holds one while it
  /// executes a request, which bounds how many execute at once.
  std::counting_semaphore<> admission_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  ServerCounters counters_;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace exodus::server

#endif  // EXODUS_SERVER_SERVER_H_
