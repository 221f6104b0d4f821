#include "server/replica.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "excess/database.h"
#include "excess/session.h"
#include "wal/wal_format.h"

namespace exodus::server {

using util::Result;
using util::Status;

Result<std::unique_ptr<Replicator>> Replicator::Bootstrap(
    ReplicatorOptions options) {
  EXODUS_ASSIGN_OR_RETURN(
      std::unique_ptr<Client> client,
      Client::Connect(options.primary_host, options.primary_port,
                      options.user));
  EXODUS_ASSIGN_OR_RETURN(Client::WalTailReply first, client->WalTail(0));

  std::unique_ptr<Database> db;
  uint64_t applied = 0;
  if (first.is_snapshot) {
    // The primary's WAL no longer reaches back to LSN 0: materialize
    // from the shipped checkpoint image, then tail from its cut.
    auto loaded = Database::LoadImage(first.snapshot.image);
    if (!loaded.ok()) return loaded.status();
    db = std::move(*loaded);
    applied = first.snapshot.snapshot_lsn;
  } else {
    // The whole history is still in the WAL: replay from empty.
    db = std::make_unique<Database>();
  }
  db->SetReadOnly(true);

  std::unique_ptr<Replicator> rep(
      new Replicator(std::move(options), std::move(db), std::move(client)));
  auto session = rep->db_->CreateSession();
  if (!session.ok()) return session.status();
  rep->apply_session_ = std::move(*session);
  rep->apply_session_->set_replication_apply(true);
  rep->last_applied_.store(applied, std::memory_order_release);
  rep->db_->AdvanceRecoveredLsn(applied);
  if (first.is_snapshot) {
    rep->primary_durable_.store(applied, std::memory_order_release);
  } else {
    EXODUS_RETURN_IF_ERROR(rep->ApplyRecords(first.records));
  }
  rep->PublishPosition();
  return rep;
}

Replicator::Replicator(ReplicatorOptions options, std::unique_ptr<Database> db,
                       std::unique_ptr<Client> client)
    : options_(std::move(options)),
      db_(std::move(db)),
      client_(std::move(client)) {
  obs::MetricsRegistry* metrics = db_->metrics();
  applied_gauge_ = metrics->GetGauge("exodus_replica_last_applied_lsn");
  lag_gauge_ = metrics->GetGauge("exodus_replica_lag_records");
  primary_durable_gauge_ =
      metrics->GetGauge("exodus_replica_primary_durable_lsn");
  rounds_total_ = metrics->GetCounter("exodus_replica_rounds_total");
  records_applied_total_ =
      metrics->GetCounter("exodus_replica_records_applied_total");
  apply_errors_total_ =
      metrics->GetCounter("exodus_replica_apply_errors_total");
  reconnects_total_ = metrics->GetCounter("exodus_replica_reconnects_total");
}

Replicator::~Replicator() { Stop(); }

void Replicator::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (tailer_.joinable()) return;
  stop_ = false;
  tailer_ = std::thread(&Replicator::Loop, this);
}

void Replicator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (tailer_.joinable()) tailer_.join();
}

void Replicator::Loop() {
  std::string last_error;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_interval_ms),
                   [this] { return stop_; });
      if (stop_) return;
    }
    Status st = PollOnce();
    if (st.ok()) {
      last_error.clear();
    } else if (st.ToString() != last_error) {
      // Log each distinct failure once, not once per poll: a primary
      // that is down for a minute would otherwise flood stderr.
      last_error = st.ToString();
      std::fprintf(stderr, "replica: %s\n", last_error.c_str());
    }
  }
}

Status Replicator::PollOnce() {
  if (client_ == nullptr || !client_->connected()) {
    auto client = Client::Connect(options_.primary_host, options_.primary_port,
                                  options_.user);
    if (!client.ok()) return client.status();
    client_ = std::move(*client);
    reconnects_total_->Increment();
  }
  // Drain everything durable on the primary right now: a size-capped
  // batch is followed up immediately, the poll interval only paces the
  // caught-up case.
  for (;;) {
    auto reply = client_->WalTail(last_applied_lsn());
    if (!reply.ok()) return reply.status();
    rounds_total_->Increment();
    if (reply->is_snapshot) {
      // Our position predates the primary's retained WAL — possible
      // only after a disconnect spanning a checkpoint. Applying a
      // snapshot over live state is not supported; flag it loudly and
      // leave the (consistent, stale) replica serving.
      apply_errors_total_->Increment();
      PublishPosition();
      return Status::Internal(
          "replica fell behind the primary's retained WAL; restart the "
          "replica to re-bootstrap from a snapshot");
    }
    Status st = ApplyRecords(reply->records);
    PublishPosition();
    EXODUS_RETURN_IF_ERROR(st);
    if (reply->records.records.empty() ||
        last_applied_lsn() >= reply->records.primary_durable_lsn) {
      return Status::OK();
    }
  }
}

Status Replicator::ApplyRecords(const WalRecordsPayload& batch) {
  if (batch.primary_durable_lsn >
      primary_durable_.load(std::memory_order_relaxed)) {
    primary_durable_.store(batch.primary_durable_lsn,
                           std::memory_order_release);
  }
  for (const wal::WalRecord& rec : batch.records) {
    if (rec.lsn <= last_applied_lsn()) continue;
    if (rec.type == wal::RecordType::kStatement) {
      auto r = apply_session_->Execute(rec.payload);
      if (!r.ok()) {
        // Stop at the failed record rather than apply past it: a gap
        // would silently diverge the replica; a stall is visible (lag
        // grows, exodus_replica_apply_errors_total counts).
        apply_errors_total_->Increment();
        return Status::Internal(
            "replica apply failed at lsn " + std::to_string(rec.lsn) +
            " on '" + rec.payload + "': " + r.status().ToString());
      }
      records_applied_total_->Increment();
    }
    last_applied_.store(rec.lsn, std::memory_order_release);
    db_->AdvanceRecoveredLsn(rec.lsn);
  }
  return Status::OK();
}

void Replicator::PublishPosition() {
  applied_gauge_->Set(static_cast<int64_t>(last_applied_lsn()));
  primary_durable_gauge_->Set(static_cast<int64_t>(primary_durable_lsn()));
  lag_gauge_->Set(static_cast<int64_t>(lag_records()));
}

}  // namespace exodus::server
