// Live activity introspection: the session registry and its snapshots,
// statement text/progress publication, a stalled statement reporting
// its current wait event both locally and over the wire (the ACTIVITY
// message), per-statement wait folding into the trace / slow log /
// EXPLAIN ANALYZE, the ActivityPayload wire round-trip, and a
// register/unregister churn race (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "excess/database.h"
#include "excess/session.h"
#include "obs/wait_event.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace exodus {
namespace {

void MustExecute(Database* db, const std::string& text) {
  auto r = db->Execute(text);
  ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n  in: " << text;
}

/// Polls `pred` for up to ~5 s; true iff it held at some point.
bool EventuallyTrue(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// ---------------------------------------------------------------------------
// SessionRegistry basics
// ---------------------------------------------------------------------------

TEST(SessionRegistryTest, RegisterUnregisterSnapshot) {
  obs::SessionRegistry reg;
  obs::ActivitySlot* a = reg.Register("alice");
  obs::ActivitySlot* b = reg.Register("bob");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_LT(a->session_id, b->session_id);  // ids are monotone
  EXPECT_EQ(reg.size(), 2u);

  auto records = reg.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].user, "alice");
  EXPECT_FALSE(records[0].active);
  EXPECT_EQ(records[1].user, "bob");

  reg.Unregister(a);
  EXPECT_EQ(reg.size(), 1u);
  records = reg.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].user, "bob");
  // A session id is never reused after unregister.
  obs::ActivitySlot* c = reg.Register("carol");
  EXPECT_GT(c->session_id, b->session_id);
  reg.Unregister(b);
  reg.Unregister(c);
  reg.Unregister(nullptr);  // harmless
  EXPECT_EQ(reg.size(), 0u);
}

// ---------------------------------------------------------------------------
// Database-level activity
// ---------------------------------------------------------------------------

TEST(ActivityTest, SessionsAppearAndDisappear) {
  Database db;
  // The string convenience API runs through the built-in default
  // session, which registers like any other.
  const size_t base = db.sessions()->size();
  ASSERT_GE(base, 1u);
  {
    auto session = db.CreateSession("dba");
    ASSERT_TRUE(session.ok());
    EXPECT_EQ(db.sessions()->size(), base + 1);
  }
  EXPECT_EQ(db.sessions()->size(), base);
}

TEST(ActivityTest, StatementTextIsPublishedAndTruncated) {
  Database db;
  MustExecute(&db, R"(
    define type Item (name: char[400], qty: int4)
    create Items : {Item}
  )");
  // A statement longer than the 256-byte publication bound.
  std::string stmt = "append to Items (qty = 1, name = \"" +
                     std::string(300, 'x') + "\")";
  ASSERT_GT(stmt.size(), obs::ActivitySlot::kMaxStatementBytes);
  MustExecute(&db, stmt);

  auto records = db.sessions()->Snapshot();
  ASSERT_FALSE(records.empty());
  const obs::ActivityRecord& rec = records.front();  // default session
  // Idle again, but the last statement stays readable, truncated.
  EXPECT_FALSE(rec.active);
  EXPECT_EQ(rec.phase, obs::StmtPhase::kIdle);
  EXPECT_EQ(rec.statement.size(), obs::ActivitySlot::kMaxStatementBytes);
  EXPECT_EQ(rec.statement.compare(0, 14, "append to Item"), 0)
      << rec.statement;
  EXPECT_GT(rec.query_id, 0u);
  std::string rendered = rec.ToString();
  EXPECT_NE(rendered.find("idle"), std::string::npos) << rendered;
}

TEST(ActivityTest, MorselProgressIsPublished) {
  Database db;
  MustExecute(&db, R"(
    define type Row (k: int4)
    create Rows : {Row}
  )");
  for (int i = 0; i < 100; ++i) {
    MustExecute(&db, "append to Rows (k = " + std::to_string(i) + ")");
  }
  auto session = db.CreateSession();
  ASSERT_TRUE(session.ok());
  (*session)->mutable_options()->batch_size = 16;  // ~7 morsels
  (*session)->mutable_options()->exec_threads = 4;
  auto r = (*session)->Execute("retrieve (R.k) from R in Rows");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 100u);

  // Progress counters survive statement end until the next statement.
  auto records = db.sessions()->Snapshot();
  const obs::ActivityRecord* rec = nullptr;
  for (const auto& candidate : records) {
    if (candidate.morsels_total > 0) rec = &candidate;
  }
  ASSERT_NE(rec, nullptr) << "no session took the parallel path";
  EXPECT_GE(rec->morsels_total, 2u);
  EXPECT_EQ(rec->morsels_done, rec->morsels_total);
  EXPECT_EQ(rec->rows, 100u);
  EXPECT_NE(rec->ToString().find("morsels="), std::string::npos);
}

// ---------------------------------------------------------------------------
// A stalled statement reports its wait — locally and over the wire
// ---------------------------------------------------------------------------

TEST(ActivityTest, StalledWriterReportsLatchWaitLocallyAndOverTheWire) {
  Database db;
  MustExecute(&db, R"(
    define type Item (name: char[25], qty: int4)
    create Items : {Item}
    append to Items (name = "seed", qty = 0)
    create user carey
    grant all on Items to carey
  )");
  db.SetSlowQueryThresholdMicros(0);
  std::mutex trace_mu;
  std::vector<std::string> trace_lines;
  db.SetTraceSink([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(trace_mu);
    trace_lines.push_back(line);
  });

  auto session = db.CreateSession("carey");
  ASSERT_TRUE(session.ok());

  server::Server srv(&db, {.port = 0, .workers = 2});
  ASSERT_TRUE(srv.Start().ok());
  auto client = server::Client::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Pose as a conflicting writer: hold the Items extent latch so the
  // append blocks inside AcquireExtentLatch.
  std::mutex* latch = db.concurrency()->ExtentLatch("Items");
  latch->lock();
  std::thread writer([&] {
    auto r = (*session)->Execute(
        "append to Items (name = \"blocked\", qty = 1)");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });

  // Locally: the session turns active with wait=mvcc_writer_latch.
  auto stalled = [&]() -> bool {
    for (const auto& rec : db.sessions()->Snapshot()) {
      if (rec.active && rec.wait == obs::WaitEvent::kMvccWriterLatch) {
        EXPECT_EQ(rec.user, "carey");
        // The extent latch is taken before the plan is built, so the
        // stalled statement is still in its parse phase.
        EXPECT_EQ(rec.phase, obs::StmtPhase::kParse);
        EXPECT_NE(rec.statement.find("append to Items"), std::string::npos);
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(EventuallyTrue(stalled)) << "append never showed its wait";

  // Over the wire: ACTIVITY shows the same stalled statement while it
  // is still blocked (the server answers off the worker pool).
  auto activity = (*client)->Activity();
  ASSERT_TRUE(activity.ok()) << activity.status().ToString();
  bool found = false;
  for (const auto& e : activity->entries) {
    if (e.active == 1 && e.wait == "mvcc_writer_latch") {
      EXPECT_EQ(e.user, "carey");
      EXPECT_NE(e.statement.find("append to Items"), std::string::npos);
      EXPECT_GT(e.elapsed_us, 0u);
      found = true;
    }
  }
  EXPECT_TRUE(found) << activity->ToString();

  latch->unlock();
  writer.join();
  (*client)->Close();
  srv.Stop();
  db.SetTraceSink(nullptr);
  db.SetSlowQueryThresholdMicros(-1);

  // The wait folded into the statement's profile counters...
  EXPECT_GE(db.wait_profile()->count(obs::WaitEvent::kMvccWriterLatch), 1u);

  // ...into the slow-query record (with session + dominant wait)...
  bool slow_found = false;
  for (const auto& rec : db.SlowQueries()) {
    if (rec.statement.find("append to Items (name = \"blocked\"") ==
        std::string::npos) {
      continue;
    }
    slow_found = true;
    EXPECT_EQ(rec.user, "carey");
    EXPECT_GT(rec.session_id, 0u);
    std::string rendered = rec.ToString();
    EXPECT_NE(rendered.find("session "), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("mostly mvcc_writer_latch"), std::string::npos)
        << rendered;
  }
  EXPECT_TRUE(slow_found);

  // ...and into the JSON trace line.
  bool trace_found = false;
  {
    std::lock_guard<std::mutex> lock(trace_mu);
    for (const auto& line : trace_lines) {
      if (line.find("blocked") == std::string::npos) continue;
      trace_found = true;
      EXPECT_NE(line.find("\"waits\":{"), std::string::npos) << line;
      EXPECT_NE(line.find("\"mvcc_writer_latch_us\":"), std::string::npos)
          << line;
      EXPECT_NE(line.find("\"session_id\":"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(trace_found);
}

TEST(ActivityTest, ExplainAnalyzePrintsWaitBreakdown) {
  Database db;
  MustExecute(&db, R"(
    define type Item (name: char[25], qty: int4)
    create Items : {Item}
  )");
  auto session = db.CreateSession();
  ASSERT_TRUE(session.ok());

  std::mutex* latch = db.concurrency()->ExtentLatch("Items");
  latch->lock();
  util::Result<std::string> text(util::Status::Internal("not run"));
  std::thread runner([&] {
    text = (*session)->Explain("append to Items (name = \"w\", qty = 1)",
                               /*analyze=*/true);
  });
  // Release only once the explain is visibly blocked on the latch, so
  // the wait is deterministic rather than a race with thread startup.
  ASSERT_TRUE(EventuallyTrue([&] {
    for (const auto& rec : db.sessions()->Snapshot()) {
      if (rec.active && rec.wait == obs::WaitEvent::kMvccWriterLatch) {
        return true;
      }
    }
    return false;
  }));
  latch->unlock();
  runner.join();

  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Waits:"), std::string::npos) << *text;
  EXPECT_NE(text->find("mvcc_writer_latch"), std::string::npos) << *text;
}

// ---------------------------------------------------------------------------
// ActivityPayload wire round-trip
// ---------------------------------------------------------------------------

TEST(ActivityPayloadTest, EncodeDecodeRoundTrip) {
  server::ActivityPayload payload;
  server::ActivityPayload::Entry a;
  a.session_id = 3;
  a.user = "carey";
  a.active = 1;
  a.query_id = 99;
  a.statement = "retrieve (E.name) from E in Employees";
  a.elapsed_us = 1234;
  a.phase = "execute";
  a.wait = "wal_fsync";
  a.rows = 17;
  a.batches = 2;
  a.morsels_done = 3;
  a.morsels_total = 8;
  server::ActivityPayload::Entry b;
  b.session_id = 4;
  b.user = "dba";
  b.phase = "idle";
  payload.entries = {a, b};

  std::string body;
  payload.EncodeTo(&body);
  server::WireReader r(body);
  auto decoded = server::ActivityPayload::Decode(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->entries.size(), 2u);
  const auto& d = decoded->entries[0];
  EXPECT_EQ(d.session_id, 3u);
  EXPECT_EQ(d.user, "carey");
  EXPECT_EQ(d.active, 1);
  EXPECT_EQ(d.query_id, 99u);
  EXPECT_EQ(d.statement, a.statement);
  EXPECT_EQ(d.elapsed_us, 1234u);
  EXPECT_EQ(d.phase, "execute");
  EXPECT_EQ(d.wait, "wal_fsync");
  EXPECT_EQ(d.rows, 17u);
  EXPECT_EQ(d.batches, 2u);
  EXPECT_EQ(d.morsels_done, 3u);
  EXPECT_EQ(d.morsels_total, 8u);
  EXPECT_EQ(decoded->entries[1].user, "dba");
  EXPECT_EQ(decoded->entries[1].active, 0);

  std::string rendered = decoded->ToString();
  EXPECT_NE(rendered.find("session 3 [carey] active"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("wait=wal_fsync"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("morsels=3/8"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("session 4 [dba] idle"), std::string::npos)
      << rendered;

  server::ActivityPayload empty;
  std::string empty_body;
  empty.EncodeTo(&empty_body);
  server::WireReader er(empty_body);
  auto edecoded = server::ActivityPayload::Decode(&er);
  ASSERT_TRUE(edecoded.ok());
  EXPECT_TRUE(edecoded->entries.empty());
  EXPECT_EQ(edecoded->ToString(), "no sessions\n");

  // Truncated bodies fail cleanly instead of reading out of bounds.
  server::WireReader tr(body, /*pos=*/0);
  std::string truncated = body.substr(0, body.size() / 2);
  server::WireReader tr2(truncated);
  EXPECT_FALSE(server::ActivityPayload::Decode(&tr2).ok());
}

// ---------------------------------------------------------------------------
// Session churn: register/unregister racing snapshots (TSan target)
// ---------------------------------------------------------------------------

TEST(ActivityTest, SessionChurnRacesSnapshotsCleanly) {
  Database db;
  MustExecute(&db, R"(
    define type Item (name: char[25], qty: int4)
    create Items : {Item}
    append to Items (name = "a", qty = 1)
  )");

  std::atomic<bool> stop{false};
  // Churners: create a session, run one statement, destroy it.
  std::vector<std::thread> churners;
  for (int t = 0; t < 3; ++t) {
    churners.emplace_back([&db, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto session = db.CreateSession();
        if (!session.ok()) continue;
        auto r = (*session)->Execute("retrieve (I.qty) from I in Items");
        EXPECT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  // Snapshotter: reads the registry (and every slot's strings) while
  // sessions come and go and statements publish into their slots.
  std::thread snapshotter([&db, &stop] {
    size_t max_seen = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto records = db.sessions()->Snapshot();
      max_seen = std::max(max_seen, records.size());
      for (const auto& rec : records) {
        (void)rec.ToString();
      }
    }
    EXPECT_GE(max_seen, 1u);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : churners) t.join();
  snapshotter.join();
  // Only the default session remains registered.
  EXPECT_EQ(db.sessions()->size(), 1u);
}

}  // namespace
}  // namespace exodus
