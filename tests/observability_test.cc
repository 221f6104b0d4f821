// Query-execution observability: the metrics registry and Prometheus
// exposition, histogram percentile math, per-operator runtime stats and
// EXPLAIN ANALYZE cardinalities, phase tracing with the JSON sink, the
// slow-query log, buffer-pool counters folded through Save/Load, and
// the kMetrics wire round-trip through a live server.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "excess/database.h"
#include "excess/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wait_event.h"
#include "server/client.h"
#include "server/server.h"

namespace exodus {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Extracts the value of series `name` (labels included) from a
/// Prometheus text exposition; UINT64_MAX when absent.
uint64_t MetricValue(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    if (line.size() > name.size() + 1 && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::stoull(line.substr(name.size() + 1));
    }
    pos = eol + 1;
  }
  return UINT64_MAX;
}

void MustExecute(Database* db, const std::string& text) {
  auto r = db->Execute(text);
  ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n  in: " << text;
}

/// The B14 hash-join workload at small scale: `employees` employees
/// over employees/10 departments, each employee matching exactly one
/// department.
void LoadJoinWorkload(Database* db, int employees) {
  MustExecute(db, R"(
    define type Department (id: int4, floor: int4)
    define type Employee (name: char[25], salary: float8, dept_id: int4)
    create Departments : {Department}
    create Employees : {Employee}
  )");
  const int departments = employees / 10;
  for (int i = 0; i < departments; ++i) {
    MustExecute(db, "append to Departments (id = " + std::to_string(i) +
                        ", floor = " + std::to_string(i % 5) + ")");
  }
  for (int i = 0; i < employees; ++i) {
    MustExecute(db, "append to Employees (name = \"e" + std::to_string(i) +
                        "\", salary = " + std::to_string(i % 500) +
                        ".0, dept_id = " + std::to_string(i % departments) +
                        ")");
  }
}

const char* kJoin =
    "retrieve (E.name, D.floor) from E in Employees, D in Departments "
    "where D.id = E.dept_id";

// ---------------------------------------------------------------------------
// Histogram percentile math (the old server LatencyHistogram, now
// obs::Histogram shared by server latency and statement latency)
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogramReportsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.ApproxSum(), 0u);
}

TEST(HistogramTest, SingleSampleLandsInItsBucket) {
  obs::Histogram h;
  h.Record(100);  // bucket [64, 128) -> upper bound 128
  EXPECT_EQ(h.TotalCount(), 1u);
  EXPECT_EQ(h.Percentile(0.0), 128u);
  EXPECT_EQ(h.Percentile(0.5), 128u);
  EXPECT_EQ(h.Percentile(1.0), 128u);
}

TEST(HistogramTest, ZeroGoesToBucketZero) {
  obs::Histogram h;
  h.Record(0);  // bucket 0 counts observations < 1
  EXPECT_EQ(h.Percentile(0.5), 1u);
}

TEST(HistogramTest, PowerOfTwoBoundariesAreExclusiveAbove) {
  // Bucket i covers [2^(i-1), 2^i): an exact power of two belongs to
  // the bucket whose *lower* bound it is.
  obs::Histogram h1;
  h1.Record(1);  // [1, 2) -> 2
  EXPECT_EQ(h1.Percentile(0.5), 2u);

  obs::Histogram h2;
  h2.Record(2);  // [2, 4) -> 4
  EXPECT_EQ(h2.Percentile(0.5), 4u);

  obs::Histogram h3;
  h3.Record(1024);  // [1024, 2048) -> 2048
  EXPECT_EQ(h3.Percentile(0.5), 2048u);

  obs::Histogram h4;
  h4.Record(1023);  // [512, 1024) -> 1024
  EXPECT_EQ(h4.Percentile(0.5), 1024u);
}

TEST(HistogramTest, TopBucketSaturates) {
  obs::Histogram h;
  h.Record(UINT64_MAX);
  h.Record(uint64_t{1} << 60);
  EXPECT_EQ(h.TotalCount(), 2u);
  const uint64_t top = obs::Histogram::BucketUpperBound(
      obs::Histogram::kBuckets - 1);
  EXPECT_EQ(h.Percentile(0.5), top);
  EXPECT_EQ(h.Percentile(1.0), top);
}

TEST(HistogramTest, PercentilesSplitAcrossBuckets) {
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(10);    // [8, 16)  -> 16
  for (int i = 0; i < 10; ++i) h.Record(5000);  // [4096, 8192) -> 8192
  EXPECT_EQ(h.TotalCount(), 100u);
  EXPECT_EQ(h.Percentile(0.50), 16u);
  EXPECT_EQ(h.Percentile(0.89), 16u);
  EXPECT_EQ(h.Percentile(0.99), 8192u);
}

// ---------------------------------------------------------------------------
// Wait profile: per-class count + time accounting and the RAII guard
// ---------------------------------------------------------------------------

TEST(WaitProfileTest, RecordAccumulatesCountAndHistogram) {
  obs::MetricsRegistry reg;
  obs::WaitProfile profile(&reg);
  profile.SetEnabled(true);
  profile.Record(obs::WaitEvent::kWalFsync, 2'500'000);  // 2500 us
  profile.Record(obs::WaitEvent::kWalFsync, 100'000);    // 100 us

  EXPECT_EQ(profile.count(obs::WaitEvent::kWalFsync), 2u);
  const obs::Histogram* h = profile.histogram(obs::WaitEvent::kWalFsync);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->TotalCount(), 2u);
  // Recorded in microseconds: 100 -> bucket [64, 128), 2500 -> [2048,
  // 4096); the histogram math is the shared power-of-two scheme.
  EXPECT_EQ(h->Percentile(0.0), 128u);
  EXPECT_EQ(h->Percentile(1.0), 4096u);

  std::string text = reg.RenderPrometheus();
  EXPECT_EQ(
      MetricValue(text, "exodus_wait_events_total{event=\"wal_fsync\"}"), 2u);
  EXPECT_EQ(
      MetricValue(text, "exodus_wait_time_us_count{event=\"wal_fsync\"}"),
      2u);
  // Every class is registered up front, untouched ones at zero.
  EXPECT_EQ(MetricValue(
                text, "exodus_wait_events_total{event=\"mvcc_writer_latch\"}"),
            0u);
}

TEST(WaitProfileTest, NoneAndDisabledAreNoOps) {
  obs::MetricsRegistry reg;
  obs::WaitProfile profile(&reg);
  profile.SetEnabled(true);
  profile.Record(obs::WaitEvent::kNone, 1'000'000);
  EXPECT_EQ(profile.count(obs::WaitEvent::kNone), 0u);

  profile.SetEnabled(false);
  profile.Record(obs::WaitEvent::kWalFsync, 1'000'000);
  EXPECT_EQ(profile.count(obs::WaitEvent::kWalFsync), 0u);
}

TEST(WaitProfileTest, EventNamesRoundTrip) {
  EXPECT_STREQ(obs::WaitEventName(obs::WaitEvent::kNone), "none");
  EXPECT_STREQ(obs::WaitEventName(obs::WaitEvent::kMvccWriterLatch),
               "mvcc_writer_latch");
  EXPECT_STREQ(obs::WaitEventName(obs::WaitEvent::kClientRead),
               "client_read");
}

TEST(WaitEventGuardTest, GuardsNestAndRestoreThePreviousWait) {
  obs::MetricsRegistry reg;
  obs::WaitProfile profile(&reg);
  obs::ActivitySlot slot;
  {
    obs::WaitEventGuard outer(&profile, obs::WaitEvent::kWalGroupCommit,
                              &slot);
    EXPECT_EQ(slot.wait.load(),
              static_cast<uint8_t>(obs::WaitEvent::kWalGroupCommit));
    {
      obs::WaitEventGuard inner(&profile, obs::WaitEvent::kWalFsync, &slot);
      EXPECT_EQ(slot.wait.load(),
                static_cast<uint8_t>(obs::WaitEvent::kWalFsync));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // The inner guard restored the outer wait and recorded its episode.
    EXPECT_EQ(slot.wait.load(),
              static_cast<uint8_t>(obs::WaitEvent::kWalGroupCommit));
    EXPECT_EQ(profile.count(obs::WaitEvent::kWalFsync), 1u);
    EXPECT_EQ(profile.count(obs::WaitEvent::kWalGroupCommit), 0u);
  }
  EXPECT_EQ(slot.wait.load(), 0u);  // back to kNone
  EXPECT_EQ(profile.count(obs::WaitEvent::kWalGroupCommit), 1u);
  // Both episodes accumulated per-statement time on the slot (the inner
  // one slept, so its class is measurably non-zero).
  EXPECT_GT(
      slot.wait_ns[static_cast<size_t>(obs::WaitEvent::kWalFsync) - 1].load(),
      0u);
}

TEST(WaitEventGuardTest, ReentrantSameClassEpisodesAccumulate) {
  obs::MetricsRegistry reg;
  obs::WaitProfile profile(&reg);
  obs::ActivitySlot slot;
  for (int i = 0; i < 3; ++i) {
    obs::WaitEventGuard g(&profile, obs::WaitEvent::kMvccWriterLatch, &slot);
  }
  {
    // Same class nested inside itself: restore keeps the outer value.
    obs::WaitEventGuard outer(&profile, obs::WaitEvent::kMvccWriterLatch,
                              &slot);
    {
      obs::WaitEventGuard inner(&profile, obs::WaitEvent::kMvccWriterLatch,
                                &slot);
    }
    EXPECT_EQ(slot.wait.load(),
              static_cast<uint8_t>(obs::WaitEvent::kMvccWriterLatch));
  }
  EXPECT_EQ(slot.wait.load(), 0u);
  EXPECT_EQ(profile.count(obs::WaitEvent::kMvccWriterLatch), 5u);
}

TEST(WaitEventGuardTest, DisabledOrNullProfileIsANoOp) {
  obs::MetricsRegistry reg;
  obs::WaitProfile profile(&reg);
  profile.SetEnabled(false);
  obs::ActivitySlot slot;
  {
    obs::WaitEventGuard g(&profile, obs::WaitEvent::kWalFsync, &slot);
    // Ablated: the guard publishes nothing, not even the current wait.
    EXPECT_EQ(slot.wait.load(), 0u);
  }
  EXPECT_EQ(profile.count(obs::WaitEvent::kWalFsync), 0u);
  EXPECT_EQ(
      slot.wait_ns[static_cast<size_t>(obs::WaitEvent::kWalFsync) - 1].load(),
      0u);
  {
    obs::WaitEventGuard g(nullptr, obs::WaitEvent::kWalFsync, &slot);
    EXPECT_EQ(slot.wait.load(), 0u);
  }
}

TEST(WaitEventGuardTest, ThreadLocalBindingNestsAndRestores) {
  EXPECT_EQ(obs::CurrentActivitySlot(), nullptr);
  obs::ActivitySlot slot;
  obs::MetricsRegistry reg;
  obs::WaitProfile profile(&reg);
  {
    obs::ActivityBinding binding(&slot);
    EXPECT_EQ(obs::CurrentActivitySlot(), &slot);
    {
      obs::ActivityBinding nested(nullptr);
      EXPECT_EQ(obs::CurrentActivitySlot(), nullptr);
      // A guard on an unbound thread records cumulative series only.
      obs::WaitEventGuard g(&profile, obs::WaitEvent::kServerSend);
      EXPECT_EQ(slot.wait.load(), 0u);
    }
    EXPECT_EQ(obs::CurrentActivitySlot(), &slot);
    // The slot-less guard still recorded its episode.
    EXPECT_EQ(profile.count(obs::WaitEvent::kServerSend), 1u);
    // A guard using the implicit binding publishes to the bound slot.
    {
      obs::WaitEventGuard g(&profile, obs::WaitEvent::kThreadPoolQueue);
      EXPECT_EQ(slot.wait.load(),
                static_cast<uint8_t>(obs::WaitEvent::kThreadPoolQueue));
    }
  }
  EXPECT_EQ(obs::CurrentActivitySlot(), nullptr);
}

// ---------------------------------------------------------------------------
// Metrics registry + exposition
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CountersAreStableAndNamed) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("test_total");
  c->Increment();
  c->Add(4);
  EXPECT_EQ(reg.GetCounter("test_total"), c);  // same pointer on re-get
  EXPECT_EQ(c->value(), 5u);
  reg.GetGauge("test_gauge")->Set(-3);
  std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE test_total counter"), std::string::npos);
  EXPECT_EQ(MetricValue(text, "test_total"), 5u);
  EXPECT_NE(text.find("test_gauge -3"), std::string::npos);
}

TEST(MetricsRegistryTest, CallbacksRenderLiveValues) {
  obs::MetricsRegistry reg;
  uint64_t source = 7;
  reg.RegisterCallback("live_total", "counter", [&] { return source; });
  EXPECT_EQ(MetricValue(reg.RenderPrometheus(), "live_total"), 7u);
  source = 8;
  EXPECT_EQ(MetricValue(reg.RenderPrometheus(), "live_total"), 8u);
}

TEST(MetricsRegistryTest, HistogramExpositionIsCumulative) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("lat_us");
  h->Record(3);   // [2, 4)
  h->Record(3);
  h->Record(100);  // [64, 128)
  std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE lat_us histogram"), std::string::npos);
  EXPECT_EQ(MetricValue(text, "lat_us_bucket{le=\"4\"}"), 2u);
  EXPECT_EQ(MetricValue(text, "lat_us_bucket{le=\"128\"}"), 3u);
  EXPECT_EQ(MetricValue(text, "lat_us_bucket{le=\"+Inf\"}"), 3u);
  EXPECT_EQ(MetricValue(text, "lat_us_count"), 3u);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE: per-step actuals match real cardinalities
// ---------------------------------------------------------------------------

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadJoinWorkload(&db_, 40);
    auto s = db_.CreateSession();
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    session_ = std::move(*s);
  }

  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_F(ObservabilityTest, ExplainAnalyzeHashJoinCardinalities) {
  auto text = session_->Explain(kJoin, /*analyze=*/true);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // 40 employees over 4 departments; every employee matches exactly one
  // department, so the join produces 40 rows.
  EXPECT_NE(text->find("HashJoin"), std::string::npos) << *text;
  EXPECT_NE(text->find("Scan Employees as E (actual: inv=1 examined=40 "
                       "produced=40"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("build=4"), std::string::npos) << *text;
  EXPECT_NE(text->find("hits=40"), std::string::npos) << *text;
  EXPECT_NE(text->find("Total: 40 row(s)"), std::string::npos) << *text;
  EXPECT_NE(text->find("Phases: bind"), std::string::npos) << *text;
}

TEST_F(ObservabilityTest, ExplainAnalyzeSelectiveFilter) {
  auto text = session_->Explain(
      "retrieve (E.name) from E in Employees where E.dept_id = 2", true);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // 40 employees, dept_id = i % 4: exactly 10 match.
  EXPECT_NE(text->find("examined=40"), std::string::npos) << *text;
  EXPECT_NE(text->find("produced=10"), std::string::npos) << *text;
  EXPECT_NE(text->find("Total: 10 row(s)"), std::string::npos) << *text;
}

TEST_F(ObservabilityTest, ExplainAnalyzeShowsStatementTail) {
  // Aggregation, sort and duplicate elimination run after the pipeline;
  // their time (with the row build) prints as one Finish: line right
  // after Total:.
  for (const char* q :
       {"retrieve (E.dept_id, count(E over E.dept_id)) from E in Employees",
        "retrieve (sum(E.salary)) from E in Employees",
        "retrieve (E.name) from E in Employees sort by E.name",
        "retrieve unique (E.dept_id) from E in Employees"}) {
    auto text = session_->Explain(q, /*analyze=*/true);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    const size_t total = text->find("Total: 40 row(s)");
    ASSERT_NE(total, std::string::npos) << q << "\n" << *text;
    EXPECT_EQ(text->find("\nFinish: ", total), text->find('\n', total))
        << q << "\n" << *text;
  }
  // A streaming projection has no tail.
  auto text = session_->Explain(kJoin, /*analyze=*/true);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text->find("Finish:"), std::string::npos) << *text;
}

TEST_F(ObservabilityTest, PlainExplainHasNoActuals) {
  auto text = session_->Explain(kJoin, /*analyze=*/false);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("HashJoin"), std::string::npos) << *text;
  EXPECT_EQ(text->find("actual:"), std::string::npos) << *text;
}

TEST_F(ObservabilityTest, ExplainReportsParseErrorPosition) {
  // Same code path for \explain and \explain analyze: raw text is
  // parsed directly, so error positions refer to the original input.
  auto text = session_->Explain("retrieve (E.name from E in Employees",
                                /*analyze=*/false);
  ASSERT_FALSE(text.ok());
  EXPECT_NE(text.status().message().find("line 1"), std::string::npos)
      << text.status().ToString();
}

TEST_F(ObservabilityTest, ExplainAnalyzeRejectsParameters) {
  auto text = session_->Explain(
      "retrieve (E.name) from E in Employees where E.salary > $1", true);
  ASSERT_FALSE(text.ok());
  EXPECT_NE(text.status().message().find("inline the values"),
            std::string::npos);
}

TEST_F(ObservabilityTest, ExplainDdlSaysNoPlan) {
  auto text = session_->Explain("create user bob", /*analyze=*/false);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("no plan"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-operator registry totals
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, OperatorTotalsAccumulateByKind) {
  std::string before = db_.metrics()->RenderPrometheus();
  uint64_t scan0 =
      MetricValue(before, "exodus_operator_rows_total{op=\"scan\"}");
  uint64_t join0 =
      MetricValue(before, "exodus_operator_invocations_total{op=\"hash_join\"}");
  ASSERT_NE(scan0, UINT64_MAX);
  ASSERT_NE(join0, UINT64_MAX);

  auto r = session_->Execute(kJoin);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 40u);

  std::string after = db_.metrics()->RenderPrometheus();
  // The scan side produced its 40 rows; the hash join was entered once
  // per scan row.
  EXPECT_EQ(MetricValue(after, "exodus_operator_rows_total{op=\"scan\"}"),
            scan0 + 40);
  EXPECT_EQ(MetricValue(after,
                        "exodus_operator_invocations_total{op=\"hash_join\"}"),
            join0 + 40);
  EXPECT_NE(MetricValue(after, "exodus_operator_time_ns_total{op=\"scan\"}"),
            UINT64_MAX);
}

TEST_F(ObservabilityTest, StatementSeriesAreMonotone) {
  std::string before = db_.metrics()->RenderPrometheus();
  uint64_t stmts0 = MetricValue(before, "exodus_statements_total");
  uint64_t errs0 = MetricValue(before, "exodus_statement_errors_total");

  ASSERT_TRUE(session_->Execute(kJoin).ok());
  ASSERT_FALSE(session_->Execute("retrieve (X.y) from X in Nowhere").ok());

  std::string after = db_.metrics()->RenderPrometheus();
  EXPECT_EQ(MetricValue(after, "exodus_statements_total"), stmts0 + 2);
  EXPECT_EQ(MetricValue(after, "exodus_statement_errors_total"), errs0 + 1);
  EXPECT_GE(MetricValue(after, "exodus_statement_latency_us_count"),
            stmts0 + 2);
}

TEST_F(ObservabilityTest, PlanCacheSeriesTrackCacheStats) {
  auto stmt = session_->Prepare(kJoin);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto stmt2 = session_->Prepare(kJoin);  // cache hit
  ASSERT_TRUE(stmt2.ok());

  std::string text = db_.metrics()->RenderPrometheus();
  auto stats = db_.CacheStats();
  EXPECT_EQ(MetricValue(text, "exodus_plan_cache_hits_total"), stats.hits);
  EXPECT_EQ(MetricValue(text, "exodus_plan_cache_misses_total"),
            stats.misses);
  EXPECT_GE(stats.hits, 1u);
}

// ---------------------------------------------------------------------------
// Phase tracing: JSON sink + slow-query log
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, TraceSinkReceivesJsonLines) {
  std::mutex mu;
  std::vector<std::string> lines;
  db_.SetTraceSink([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  ASSERT_TRUE(session_->Execute(kJoin).ok());
  ASSERT_FALSE(session_->Execute("retrieve (X.y) from X in Nowhere").ok());
  db_.SetTraceSink(nullptr);

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"query_id\":"), std::string::npos);
  EXPECT_NE(lines[0].find("\"session_id\":"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"statement\":\"retrieve (E.name, D.floor)"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"rows\":40"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"error\""), std::string::npos);

  // Query IDs are monotonically increasing.
  auto id_of = [](const std::string& line) {
    size_t p = line.find("\"query_id\":") + 11;
    return std::stoull(line.substr(p));
  };
  EXPECT_LT(id_of(lines[0]), id_of(lines[1]));
}

TEST_F(ObservabilityTest, TraceSinkEscapesStatementText) {
  std::vector<std::string> lines;
  db_.SetTraceSink([&](const std::string& line) { lines.push_back(line); });
  ASSERT_TRUE(session_
                  ->Execute("retrieve (E.name) from E in Employees "
                            "where E.name = \"e\\\\1\"")
                  .ok());
  db_.SetTraceSink(nullptr);
  ASSERT_EQ(lines.size(), 1u);
  // The quote and backslash inside the statement arrive escaped.
  EXPECT_NE(lines[0].find("\\\"e"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\\\\"), std::string::npos) << lines[0];
}

TEST_F(ObservabilityTest, SlowQueryLogCapturesAnnotatedPlan) {
  db_.SetSlowQueryThresholdMicros(0);  // everything is "slow"
  ASSERT_TRUE(session_->Execute(kJoin).ok());
  db_.SetSlowQueryThresholdMicros(-1);

  auto records = db_.SlowQueries();
  ASSERT_FALSE(records.empty());
  const obs::SlowQueryRecord& rec = records.back();
  EXPECT_NE(rec.statement.find("retrieve (E.name, D.floor)"),
            std::string::npos);
  EXPECT_EQ(rec.rows, 40u);
  EXPECT_NE(rec.annotated_plan.find("actual:"), std::string::npos)
      << rec.annotated_plan;
  std::string rendered = rec.ToString();
  EXPECT_NE(rendered.find("execute"), std::string::npos);
  EXPECT_NE(rendered.find(rec.statement), std::string::npos);

  uint64_t slow = MetricValue(db_.metrics()->RenderPrometheus(),
                              "exodus_slow_statements_total");
  EXPECT_GE(slow, 1u);
}

TEST_F(ObservabilityTest, SlowQueryLogOffByDefault) {
  ASSERT_TRUE(session_->Execute(kJoin).ok());
  EXPECT_TRUE(db_.SlowQueries().empty());
}

// ---------------------------------------------------------------------------
// kMetrics over the wire
// ---------------------------------------------------------------------------

TEST(ServerMetricsTest, MetricsRoundTripThroughServer) {
  Database db;
  LoadJoinWorkload(&db, 40);
  server::Server srv(&db, {.port = 0, .workers = 2});
  ASSERT_TRUE(srv.Start().ok());

  auto client = server::Client::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto scrape0 = (*client)->Metrics();
  ASSERT_TRUE(scrape0.ok()) << scrape0.status().ToString();
  uint64_t q0 = MetricValue(*scrape0, "exodus_server_queries_total");
  ASSERT_NE(q0, UINT64_MAX);

  auto rows = (*client)->Query(kJoin);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 40u);

  auto scrape1 = (*client)->Metrics();
  ASSERT_TRUE(scrape1.ok());
  // Server, statement, per-operator and plan-cache series are all in
  // one exposition, and the query moved the server counters.
  EXPECT_EQ(MetricValue(*scrape1, "exodus_server_queries_total"), q0 + 1);
  EXPECT_GE(MetricValue(*scrape1, "exodus_server_connections_total"), 1u);
  EXPECT_GE(MetricValue(*scrape1, "exodus_server_latency_us_count"), 1u);
  EXPECT_GE(MetricValue(*scrape1, "exodus_statements_total"), 1u);
  EXPECT_GE(MetricValue(*scrape1,
                        "exodus_operator_rows_total{op=\"scan\"}"),
            40u);
  EXPECT_NE(MetricValue(*scrape1, "exodus_plan_cache_misses_total"),
            UINT64_MAX);

  // \stats reads the same histogram the exposition renders.
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->queries_total, q0 + 1);
  EXPECT_GT(stats->p50_micros, 0u);

  (*client)->Close();
  srv.Stop();
}

}  // namespace
}  // namespace exodus
