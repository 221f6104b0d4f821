#ifndef EXODUS_SERVER_REPLICA_H_
#define EXODUS_SERVER_REPLICA_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "server/client.h"
#include "util/result.h"
#include "util/status.h"

namespace exodus {
class Database;
class Session;
}

namespace exodus::server {

struct ReplicatorOptions {
  /// The primary excess_server to tail (its regular query port).
  std::string primary_host = "127.0.0.1";
  uint16_t primary_port = 0;
  /// How often to poll WAL_TAIL when caught up. A round that returns a
  /// full batch polls again immediately.
  int poll_interval_ms = 100;
  /// User for the replication connection's HELLO.
  std::string user = "dba";
};

/// Journal-shipping read replica (docs/durability.md): owns a read-only
/// Database materialized from the primary's WAL and keeps it fresh by
/// polling WAL_TAIL on a background thread.
///
///   auto rep = Replicator::Bootstrap({.primary_port = 4077});
///   (*rep)->Start();
///   exodus::server::Server server((*rep)->database(), {...});  // serves reads
///
/// Bootstrap connects, fetches either the WAL from LSN 0 or — when the
/// primary's checkpoints have already truncated it — a consistent
/// snapshot image, and builds the local database. Start() then applies
/// each durable record in LSN order through a replication-apply session
/// (the only writer the read-only database accepts). The primary keeps
/// a per-connection retainer at the replica's acknowledged position, so
/// records never vanish under a connected replica; a replica that
/// reconnects after falling behind a checkpoint is re-bootstrapped by
/// the operator (restart), not silently diverged.
///
/// Position and lag are published on the replica database's metrics
/// registry (exodus_replica_* series), which both \metrics and the
/// serving server's \stats read.
class Replicator {
 public:
  /// Connects to the primary and builds the initial replica database.
  static util::Result<std::unique_ptr<Replicator>> Bootstrap(
      ReplicatorOptions options);

  ~Replicator();
  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Starts the background tailer thread. Idempotent.
  void Start();
  /// Stops and joins the tailer. Idempotent; the destructor calls it.
  void Stop();

  /// The read-only replica database (owned by this Replicator; valid
  /// until destruction).
  Database* database() { return db_.get(); }

  /// Highest LSN applied locally.
  uint64_t last_applied_lsn() const {
    return last_applied_.load(std::memory_order_acquire);
  }
  /// The primary's durable LSN as of the last round.
  uint64_t primary_durable_lsn() const {
    return primary_durable_.load(std::memory_order_acquire);
  }
  /// Records known durable on the primary but not yet applied here.
  uint64_t lag_records() const {
    uint64_t durable = primary_durable_lsn();
    uint64_t applied = last_applied_lsn();
    return durable > applied ? durable - applied : 0;
  }

  /// One synchronous tail round (also used by the background loop):
  /// fetches and applies everything durable on the primary right now.
  /// Tests call this directly for deterministic catch-up.
  util::Status PollOnce();

 private:
  Replicator(ReplicatorOptions options, std::unique_ptr<Database> db,
             std::unique_ptr<Client> client);

  void Loop();
  util::Status ApplyRecords(const WalRecordsPayload& batch);
  void PublishPosition();

  ReplicatorOptions options_;
  /// Declared before the session and thread: destroyed last.
  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> apply_session_;
  std::unique_ptr<Client> client_;

  std::atomic<uint64_t> last_applied_{0};
  std::atomic<uint64_t> primary_durable_{0};

  obs::Gauge* applied_gauge_ = nullptr;
  obs::Gauge* lag_gauge_ = nullptr;
  obs::Gauge* primary_durable_gauge_ = nullptr;
  obs::Counter* rounds_total_ = nullptr;
  obs::Counter* records_applied_total_ = nullptr;
  obs::Counter* apply_errors_total_ = nullptr;
  obs::Counter* reconnects_total_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread tailer_;
};

}  // namespace exodus::server

#endif  // EXODUS_SERVER_REPLICA_H_
