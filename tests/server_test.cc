// The networked query server: wire protocol round-trips, the Client
// library, per-connection session isolation, prepared statements over
// the wire, error reporting with positions, malformed-frame and
// mid-query-disconnect robustness (including a seeded mutation run over
// one valid frame per request type), hostile counts in every payload
// decoder, the admission-permit bound on executing requests, rejection
// of bad `excess_server` flags, server counters, and the loopback
// integration load (8 connections x 200 mixed queries).

#include "server/server.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "excess/concurrency.h"
#include "excess/database.h"
#include "obs/wait_event.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/replica.h"
#include "wal/wal_format.h"

namespace exodus::server {
namespace {

using object::Value;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = db_.Execute(R"(
      define type Employee (name: char[25], age: int4, salary: float8)
      create Employees : {Employee}
      append to Employees (name = "ann", age = 25, salary = 10.0)
      append to Employees (name = "bob", age = 35, salary = 20.0)
      append to Employees (name = "cindy", age = 45, salary = 30.0)
      create user carey
    )");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ServerOptions options;
    options.port = 0;  // ephemeral
    options.workers = 4;
    server_ = std::make_unique<Server>(&db_, options);
    auto st = server_->Start();
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<Client> MustConnect(const std::string& user = "dba") {
    auto c = Client::Connect("127.0.0.1", server_->port(), user);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return c.ok() ? std::move(*c) : nullptr;
  }

  /// A raw TCP connection that has completed the HELLO handshake —
  /// for injecting hand-built (and malformed) frames.
  int RawConnect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << std::strerror(errno);
    std::string hello;
    PutU8(kProtocolVersion, &hello);
    PutString("dba", &hello);
    EXPECT_TRUE(WriteFrame(fd, MsgType::kHello, hello).ok());
    auto reply = ReadFrame(fd);
    EXPECT_TRUE(reply.ok() && reply->type == MsgType::kOk);
    return fd;
  }

  Database db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, BasicQuery) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  auto rows =
      client->Query("retrieve (E.name, E.age) from E in Employees "
                    "where E.age > 30");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->columns.size(), 2u);
  EXPECT_EQ(rows->columns[0], "E.name");
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[0][0], "\"bob\"");
  EXPECT_EQ(rows->rows[1][1], "45");
}

TEST_F(ServerTest, MutationThroughServer) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  auto r = client->Query(
      "append to Employees (name = \"dan\", age = 52, salary = 40.0)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->affected, 1u);
  auto rows = client->Query("retrieve (count(Employees))");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0], "4");
}

TEST_F(ServerTest, PrepareBindExecuteOverTheWire) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  auto stmt = client->Prepare(
      "retrieve (E.name) from E in Employees where E.age > $1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->param_count, 1u);

  auto rows = client->Execute(*stmt, {Value::Int(30)});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 2u);

  rows = client->Execute(*stmt, {Value::Int(40)});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0], "\"cindy\"");

  EXPECT_TRUE(client->CloseStatement(*stmt).ok());
  // Executing a closed handle is an application error, not a
  // connection error: the connection stays usable.
  auto gone = client->Execute(*stmt, {Value::Int(30)});
  EXPECT_FALSE(gone.ok());
  EXPECT_TRUE(client->connected());
  auto again = client->Query("retrieve (count(Employees))");
  EXPECT_TRUE(again.ok());
}

TEST_F(ServerTest, ErrorsCarryPositionAndKeepConnectionOpen) {
  auto client = MustConnect();
  ASSERT_TRUE(client != nullptr);
  auto bad = client->Query("retrieve (E.name) from E in Nowhere");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(client->connected());

  // Parse errors surface their line/column through the wire.
  auto syntax = client->Query("retrieve (((");
  ASSERT_FALSE(syntax.ok());
  EXPECT_NE(syntax.status().message().find("line"), std::string::npos)
      << syntax.status().ToString();

  auto ok = client->Query("retrieve (count(Employees))");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(ServerTest, SessionIsolationPerConnection) {
  auto a = MustConnect();
  auto b = MustConnect("carey");
  ASSERT_TRUE(a != nullptr && b != nullptr);

  // `range of` declared on connection A is invisible on connection B.
  auto r = a->Query("range of E is Employees");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto rows = a->Query("retrieve (E.name) where E.age > 40");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 1u);

  auto other = b->Query("retrieve (E.name) where E.age > 40");
  EXPECT_FALSE(other.ok());

  // ...and connection B really is `carey`: dropping someone else's
  // set is denied.
  auto denied = b->Query("drop Employees");
  EXPECT_FALSE(denied.ok());
  auto mine = a->Query("retrieve (count(Employees))");
  EXPECT_TRUE(mine.ok());
}

TEST_F(ServerTest, UnknownUserRejectedAtHello) {
  auto c = Client::Connect("127.0.0.1", server_->port(), "nobody");
  EXPECT_FALSE(c.ok());
}

TEST_F(ServerTest, StatsReportCountersAndCacheActivity) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 5; ++i) {
    auto r = client->Query("retrieve (count(Employees))");
    ASSERT_TRUE(r.ok());
  }
  auto bad = client->Query("retrieve (E.x) from E in Nope");
  EXPECT_FALSE(bad.ok());

  // Preparing the same text again is a plan-cache hit (the first
  // prepare was the miss).
  auto stmt = client->Prepare("retrieve (count(Employees))");
  ASSERT_TRUE(stmt.ok());
  auto stmt2 = client->Prepare("retrieve (count(Employees))");
  ASSERT_TRUE(stmt2.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->Execute(*stmt).ok());
  }

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->connections_total, 1u);
  EXPECT_GE(stats->connections_active, 1u);
  EXPECT_GE(stats->queries_total, 9u);
  EXPECT_GE(stats->errors_total, 1u);
  EXPECT_GE(stats->connection_queries, 9u);
  EXPECT_GE(stats->connection_errors, 1u);
  // Prepared executions hit the shared plan cache after the miss.
  EXPECT_GE(stats->cache_misses, 1u);
  EXPECT_GE(stats->cache_hits, 1u);
  // Five timed queries means percentiles are populated.
  EXPECT_GT(stats->p99_micros, 0u);
  EXPECT_LE(stats->p50_micros, stats->p99_micros);
}

TEST_F(ServerTest, MalformedFramesDoNotKillTheServer) {
  // Frame with an unknown message type.
  {
    int fd = RawConnect();
    EXPECT_TRUE(WriteFrame(fd, static_cast<MsgType>(0x7f), "junk").ok());
    auto reply = ReadFrame(fd);
    EXPECT_TRUE(reply.ok() && reply->type == MsgType::kError);
    ::close(fd);
  }
  // Truncated QUERY body (declared string length longer than payload).
  {
    int fd = RawConnect();
    std::string body;
    PutU32(1000, &body);
    body += "short";
    EXPECT_TRUE(WriteFrame(fd, MsgType::kQuery, body).ok());
    auto reply = ReadFrame(fd);
    EXPECT_TRUE(reply.ok() && reply->type == MsgType::kError);
    ::close(fd);
  }
  // EXECUTE whose parameter count claims four billion values in a
  // 13-byte frame: rejected before anything is allocated.
  {
    int fd = RawConnect();
    std::string body;
    PutU32(1, &body);
    PutU32(0xFFFFFFFFu, &body);
    EXPECT_TRUE(WriteFrame(fd, MsgType::kExecute, body).ok());
    auto reply = ReadFrame(fd);
    EXPECT_TRUE(reply.ok() && reply->type == MsgType::kError);
    ::close(fd);
  }
  // Oversized length prefix: the server must refuse, not allocate.
  {
    int fd = RawConnect();
    unsigned char huge[5] = {0x7f, 0xff, 0xff, 0xff,
                             static_cast<unsigned char>(MsgType::kQuery)};
    EXPECT_EQ(::send(fd, huge, sizeof(huge), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(huge)));
    ::close(fd);
  }
  // Garbage that is not even a frame header.
  {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_GT(::send(fd, "ab", 2, MSG_NOSIGNAL), 0);
    ::close(fd);
  }
  // After all that abuse, a well-behaved client still gets service.
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  auto rows = client->Query("retrieve (count(Employees))");
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
}

/// One valid request frame, with the body offsets of its u32 count and
/// length prefixes (the targets of count edits).
struct SeedFrame {
  MsgType type;
  std::string body;
  std::vector<size_t> u32_at;

  void U32(uint32_t v) {
    u32_at.push_back(body.size());
    PutU32(v, &body);
  }
  void Str(const std::string& v) {
    u32_at.push_back(body.size());
    PutString(v, &body);
  }
  void Val(const Value& v) {
    if (v.kind() == object::ValueKind::kString) {
      u32_at.push_back(body.size() + 1);  // after the tag byte
    }
    ASSERT_TRUE(PutValue(v, &body).ok());
  }
  std::string Wire() const {
    std::string out;
    PutU32(static_cast<uint32_t>(body.size() + 1), &out);
    PutU8(static_cast<uint8_t>(type), &out);
    return out + body;
  }
};

/// Applies one seeded mutation to a whole wire frame (length prefix,
/// type byte and body): bit flips, a truncation, an edit of a count or
/// length prefix, a replaced type byte, or inserted bytes.
std::string Mutate(const SeedFrame& seed, std::mt19937* rng) {
  std::string f = seed.Wire();
  auto pick = [&](size_t n) { return static_cast<size_t>((*rng)() % n); };
  switch (pick(5)) {
    case 0: {
      const size_t flips = 1 + pick(3);
      for (size_t i = 0; i < flips; ++i) {
        f[pick(f.size())] ^= static_cast<char>(1u << pick(8));
      }
      break;
    }
    case 1:
      f.resize(pick(f.size()));
      break;
    case 2: {
      // A count or length prefix (the frame header's included) set to
      // an edge value.
      static constexpr uint32_t kEdges[] = {0, 1, 2, 0xFF, 0x10000,
                                            0x7FFFFFFF, 0xFFFFFFFF};
      size_t at = 0;
      if (!seed.u32_at.empty() && pick(3) != 0) {
        at = 5 + seed.u32_at[pick(seed.u32_at.size())];
      }
      uint32_t v = pick(4) == 0 ? static_cast<uint32_t>((*rng)())
                                : kEdges[pick(std::size(kEdges))];
      std::string bytes;
      PutU32(v, &bytes);
      f.replace(at, 4, bytes);
      break;
    }
    case 3:
      f[4] = static_cast<char>((*rng)());  // the type byte
      break;
    default: {
      std::string junk(1 + pick(8), '\0');
      for (char& c : junk) c = static_cast<char>((*rng)());
      f.insert(pick(f.size() + 1), junk);
      break;
    }
  }
  return f;
}

/// Opens a fresh connection (which starts as dba, no HELLO), sends
/// `prefix` and then `bytes`, half-closes and reads until the server
/// closes. Empty on success; otherwise what went wrong.
std::string SendAndDrain(uint16_t port, const std::string& prefix,
                         const std::string& bytes) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "socket failed";
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string why;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    why = "connect refused: the server is gone";
  } else {
    std::string all = prefix + bytes;
    // A send may fail once the server has already rejected the frame.
    (void)::send(fd, all.data(), all.size(), MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
    const auto started = std::chrono::steady_clock::now();
    while (why.empty()) {
      auto frame = ReadFrame(fd);
      if (!frame.ok()) {
        // EOF, or a reset because the server closed with our bytes
        // unread: either way the server closed the connection — unless
        // the read merely timed out.
        if (std::chrono::steady_clock::now() - started >
            std::chrono::seconds(4)) {
          why = "the server neither replied nor closed the connection";
        }
        break;
      }
      const auto t = static_cast<uint8_t>(frame->type);
      if (t < static_cast<uint8_t>(MsgType::kOk) ||
          t > static_cast<uint8_t>(MsgType::kActivityReply)) {
        why = "reply of unknown type " + std::to_string(t);
      }
    }
  }
  ::close(fd);
  return why;
}

// Every request decoder turns hostile bytes into an ERROR reply or a
// closed connection, never a crash or a hang, and the server keeps
// serving. The run is seeded, so a failure replays.
TEST_F(ServerTest, SeededMutationsOfEveryRequestTypeAreSurvived) {
  std::vector<SeedFrame> corpus;
  auto add = [&](MsgType type) -> SeedFrame& {
    corpus.push_back(SeedFrame{type, {}, {}});
    return corpus.back();
  };
  {
    SeedFrame& f = add(MsgType::kHello);
    PutU8(kProtocolVersion, &f.body);
    f.Str("dba");
  }
  add(MsgType::kQuery).Str(
      "retrieve (E.name, E.age) from E in Employees where E.age > 30");
  add(MsgType::kPrepare).Str(
      "retrieve (E.name) from E in Employees where E.age > $1");
  {
    // Every value tag PutValue writes.
    SeedFrame& f = add(MsgType::kExecute);
    f.U32(1);
    f.U32(5);
    f.Val(Value::Null());
    f.Val(Value::Int(30));
    f.Val(Value::Float(1.5));
    f.Val(Value::Bool(true));
    f.Val(Value::String("ann"));
  }
  add(MsgType::kCloseStmt).U32(1);
  add(MsgType::kStats);
  add(MsgType::kBye);
  add(MsgType::kMetrics);
  add(MsgType::kActivity);
  PutU64(0, &add(MsgType::kWalTail).body);

  // EXECUTE and CLOSE_STMT follow a valid PREPARE, so handle 1 exists.
  SeedFrame prepare = corpus[2];
  const std::string prepared = prepare.Wire();

  std::mt19937 rng(20261020);
  constexpr int kMutations = 1000;
  for (int i = 0; i < kMutations; ++i) {
    const SeedFrame& seed = corpus[static_cast<size_t>(i) % corpus.size()];
    const std::string wire = Mutate(seed, &rng);
    const bool needs_handle =
        seed.type == MsgType::kExecute || seed.type == MsgType::kCloseStmt;

    // Every payload decoder returns a Status on the mutated body.
    const std::string body = wire.size() > 5 ? wire.substr(5) : "";
    {
      WireReader r(body);
      (void)RowsPayload::Decode(&r);
    }
    {
      WireReader r(body);
      (void)ErrorPayload::Decode(&r);
    }
    {
      WireReader r(body);
      (void)StatsPayload::Decode(&r);
    }
    {
      WireReader r(body);
      (void)WalSnapshotPayload::Decode(&r);
    }
    {
      WireReader r(body);
      (void)WalRecordsPayload::Decode(&r);
    }
    {
      WireReader r(body);
      (void)ActivityPayload::Decode(&r);
    }
    {
      WireReader r(body);
      while (GetValue(&r).ok()) {
      }
    }

    std::string why =
        SendAndDrain(server_->port(), needs_handle ? prepared : "", wire);
    ASSERT_EQ(why, "") << "mutation " << i << " of request type "
                       << static_cast<int>(seed.type);
    auto client = Client::Connect("127.0.0.1", server_->port(), "dba");
    ASSERT_TRUE(client.ok()) << "after mutation " << i << ": "
                             << client.status().ToString();
    auto rows = (*client)->Query("retrieve (count(Employees))");
    ASSERT_TRUE(rows.ok()) << "after mutation " << i << ": "
                           << rows.status().ToString();
  }
}

// Counts read from the wire cannot drive an allocation larger than the
// frame could hold: each decoder fails cleanly instead.
TEST(ProtocolTest, HostileCountsAreRejectedBeforeAllocating) {
  constexpr uint32_t kHuge = 0xFFFFFFFFu;
  auto rejects = [](const std::string& body,
                    const std::function<util::Status(WireReader*)>& decode) {
    WireReader r(body);
    return !decode(&r).ok();
  };
  auto rows = [](WireReader* r) { return RowsPayload::Decode(r).status(); };
  std::string body;
  PutU32(kHuge, &body);  // columns
  EXPECT_TRUE(rejects(body, rows));
  body.clear();
  PutU32(0, &body);
  PutU32(kHuge, &body);  // rows
  EXPECT_TRUE(rejects(body, rows));
  body.clear();
  PutU32(0, &body);
  PutU32(1, &body);
  PutU32(kHuge, &body);  // cells of row 0
  EXPECT_TRUE(rejects(body, rows));

  body.clear();
  PutU64(7, &body);
  PutU32(kHuge, &body);  // records
  EXPECT_TRUE(rejects(body, [](WireReader* r) {
    return WalRecordsPayload::Decode(r).status();
  }));

  body.clear();
  PutU32(kHuge, &body);  // sessions
  EXPECT_TRUE(rejects(body, [](WireReader* r) {
    return ActivityPayload::Decode(r).status();
  }));

  // A count the remaining bytes can hold still decodes.
  RowsPayload one;
  one.columns = {"a"};
  one.rows = {{"1"}};
  body.clear();
  one.EncodeTo(&body);
  WireReader r(body);
  auto decoded = RowsPayload::Decode(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->rows, one.rows);
}

TEST_F(ServerTest, MidQueryDisconnectIsSurvived) {
  for (int i = 0; i < 4; ++i) {
    int fd = RawConnect();
    std::string body;
    PutString("retrieve (E.name, E2.name) from E in Employees, "
              "E2 in Employees where E.age < E2.age",
              &body);
    EXPECT_TRUE(WriteFrame(fd, MsgType::kQuery, body).ok());
    // Vanish without reading the response.
    ::close(fd);
  }
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  auto rows = client->Query("retrieve (count(Employees))");
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
}

TEST_F(ServerTest, GracefulStopDrainsInFlightQueries) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::thread t([&] {
    started.store(true, std::memory_order_release);
    auto rows = client->Query(
        "retrieve (E.name, E2.name, E3.name) from E in Employees, "
        "E2 in Employees, E3 in Employees");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->rows.size(), 27u);
    done = true;
  });
  // Let the query reach the server before stopping: Stop must drain a
  // request the server has read, but one still in flight on the wire
  // when SHUT_RD lands is legitimately severed.
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->Stop();  // must drain, not sever, the in-flight query
  t.join();
  EXPECT_TRUE(done);
}

// The acceptance-criteria loopback load: 8 concurrent connections x
// 200 mixed queries each, zero protocol or execution failures.
TEST_F(ServerTest, LoopbackLoadEightByTwoHundred) {
  constexpr int kThreads = 8;
  constexpr int kQueries = 200;
  std::atomic<int> failures{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto c = Client::Connect("127.0.0.1", server_->port(), "dba");
      if (!c.ok()) {
        failures += kQueries;
        return;
      }
      auto client = std::move(*c);
      auto stmt = client->Prepare(
          "retrieve (E.name) from E in Employees where E.age > $1");
      if (!stmt.ok()) {
        failures += kQueries;
        return;
      }
      for (int i = 0; i < kQueries; ++i) {
        bool ok = false;
        switch (i % 4) {
          case 0: {
            auto r = client->Query(
                "retrieve (E.name, E.salary) from E in Employees "
                "where E.age >= 25");
            ok = r.ok() && r->rows.size() >= 3;
            break;
          }
          case 1: {
            auto r = client->Execute(*stmt, {Value::Int(20 + (i % 30))});
            ok = r.ok();
            break;
          }
          case 2: {
            auto r = client->Query("retrieve (count(Employees))");
            ok = r.ok() && !r->rows.empty();
            break;
          }
          case 3: {
            // An occasional mutation to exercise the exclusive path.
            auto r = client->Query(
                "append to Employees (name = \"w" + std::to_string(t) +
                "\", age = 30, salary = 1.0)");
            ok = r.ok() && r->affected == 1;
            break;
          }
        }
        if (ok) {
          ++completed;
        } else {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load(), kThreads * kQueries);

  // 8 x 50 appends landed exactly once each.
  auto check = MustConnect();
  ASSERT_NE(check, nullptr);
  auto rows = check->Query("retrieve (count(Employees))");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0], std::to_string(3 + kThreads * (kQueries / 4)));

  auto stats = check->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->queries_total,
            static_cast<uint64_t>(kThreads * kQueries));
}

// ---------------------------------------------------------------------------
// Journal-shipping replication
// ---------------------------------------------------------------------------

class ReplicaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal_ = ::testing::TempDir() + "/exodus_replica_test.log";
    checkpoint_ = ::testing::TempDir() + "/exodus_replica_test.ckpt";
    RemoveState();
  }
  void TearDown() override { RemoveState(); }

  void RemoveState() {
    auto segments = wal::ListSegments(journal_);
    if (segments.ok()) {
      for (const std::string& p : *segments) std::remove(p.c_str());
    }
    std::remove(journal_.c_str());
    std::remove(checkpoint_.c_str());
    std::remove((checkpoint_ + ".tmp").c_str());
  }

  std::unique_ptr<Replicator> MustBootstrap(uint16_t primary_port) {
    ReplicatorOptions ropts;
    ropts.primary_port = primary_port;
    auto rep = Replicator::Bootstrap(ropts);
    EXPECT_TRUE(rep.ok()) << rep.status().ToString();
    return rep.ok() ? std::move(*rep) : nullptr;
  }

  std::string journal_;
  std::string checkpoint_;
};

TEST_F(ReplicaTest, BootstrapFromWalCatchUpAndReadOnly) {
  Database primary_db;
  ASSERT_TRUE(primary_db.EnableJournal(journal_).ok());
  ASSERT_TRUE(primary_db
                  .Execute("define type T (x: int4)\n"
                           "create S : {T}\n"
                           "append to S (x = 1)")
                  .ok());
  ServerOptions popts;
  popts.port = 0;
  popts.workers = 2;
  Server primary(&primary_db, popts);
  ASSERT_TRUE(primary.Start().ok());

  // The whole history is still in the WAL: bootstrap replays it.
  auto rep = MustBootstrap(primary.port());
  ASSERT_NE(rep, nullptr);
  auto count = rep->database()->Execute("retrieve (count(V)) from V in S");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt(), 1);

  // New primary writes arrive on the next (deterministic) poll.
  ASSERT_TRUE(primary_db.Execute("append to S (x = 2)").ok());
  ASSERT_TRUE(primary_db.Execute("append to S (x = 3)").ok());
  auto st = rep->PollOnce();
  ASSERT_TRUE(st.ok()) << st.ToString();
  count = rep->database()->Execute("retrieve (count(V)) from V in S");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 3);
  EXPECT_EQ(rep->lag_records(), 0u);
  EXPECT_GE(rep->last_applied_lsn(), 5u);

  // Direct writes on the replica are rejected; reads are not.
  auto write = rep->database()->Execute("append to S (x = 99)");
  EXPECT_EQ(write.status().code(), util::StatusCode::kPermissionDenied);
  EXPECT_TRUE(rep->database()->Execute("retrieve (V.x) from V in S").ok());

  primary.Stop();
}

TEST_F(ReplicaTest, ReplicaServesQueriesAndStatsOverTheWire) {
  Database primary_db;
  ASSERT_TRUE(primary_db.EnableJournal(journal_).ok());
  ASSERT_TRUE(primary_db
                  .Execute("define type T (x: int4)\n"
                           "create S : {T}\n"
                           "append to S (x = 7)")
                  .ok());
  ServerOptions popts;
  popts.port = 0;
  popts.workers = 2;
  Server primary(&primary_db, popts);
  ASSERT_TRUE(primary.Start().ok());

  auto rep = MustBootstrap(primary.port());
  ASSERT_NE(rep, nullptr);
  ServerOptions ropts;
  ropts.port = 0;
  ropts.workers = 2;
  Server replica_server(rep->database(), ropts);
  ASSERT_TRUE(replica_server.Start().ok());

  auto client = Client::Connect("127.0.0.1", replica_server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto rows = (*client)->Query("retrieve (V.x) from V in S");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0], "7");

  // Writes through the replica server carry the read-only error code.
  auto write = (*client)->Query("append to S (x = 8)");
  EXPECT_EQ(write.status().code(), util::StatusCode::kPermissionDenied);

  // \stats flags replica mode and exposes position + lag.
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->replica_mode, 1u);
  EXPECT_GE(stats->replica_applied_lsn, 3u);
  EXPECT_EQ(stats->replica_lag_records, 0u);
  EXPECT_NE(stats->ToString().find("replica: applied lsn"),
            std::string::npos);

  // Lag is visible between a primary write and the next poll.
  ASSERT_TRUE(primary_db.Execute("append to S (x = 8)").ok());
  ASSERT_TRUE(rep->PollOnce().ok());
  stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->replica_lag_records, 0u);
  EXPECT_GE(stats->replica_applied_lsn, 4u);

  // The replica's metrics expose the exodus_replica_* series.
  auto metrics = (*client)->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("exodus_replica_last_applied_lsn"),
            std::string::npos);
  EXPECT_NE(metrics->find("exodus_replica_lag_records"), std::string::npos);

  replica_server.Stop();
  primary.Stop();
}

TEST_F(ReplicaTest, SnapshotBootstrapAfterCheckpointTruncation) {
  Database primary_db;
  ASSERT_TRUE(primary_db.EnableJournal(journal_).ok());
  ASSERT_TRUE(primary_db
                  .Execute("define type T (x: int4)\n"
                           "create S : {T}\n"
                           "append to S (x = 1)\n"
                           "append to S (x = 2)")
                  .ok());
  // The checkpoint truncates the WAL: LSNs 1..4 are no longer on disk,
  // so a fresh replica cannot replay from zero.
  ASSERT_TRUE(primary_db.Checkpoint(checkpoint_).ok());
  ASSERT_GT(primary_db.wal_base_lsn(), 0u);
  ASSERT_TRUE(primary_db.Execute("append to S (x = 3)").ok());

  ServerOptions popts;
  popts.port = 0;
  popts.workers = 2;
  Server primary(&primary_db, popts);
  ASSERT_TRUE(primary.Start().ok());

  auto rep = MustBootstrap(primary.port());
  ASSERT_NE(rep, nullptr);
  ASSERT_TRUE(rep->PollOnce().ok());
  auto sum = rep->database()->Execute("retrieve (sum(V.x)) from V in S");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->rows[0][0].AsInt(), 6);  // snapshot (1+2) + tailed (3)

  // The primary counted the snapshot bootstrap.
  EXPECT_NE(primary_db.metrics()->RenderPrometheus().find(
                "exodus_replica_snapshots_total"),
            std::string::npos);

  // Replication keeps flowing after the bootstrap.
  ASSERT_TRUE(primary_db.Execute("append to S (x = 10)").ok());
  ASSERT_TRUE(rep->PollOnce().ok());
  sum = rep->database()->Execute("retrieve (sum(V.x)) from V in S");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->rows[0][0].AsInt(), 16);
  EXPECT_EQ(rep->lag_records(), 0u);

  primary.Stop();
}

// ---------------------------------------------------------------------------
// Admission: at most `workers` requests execute at once
// ---------------------------------------------------------------------------

/// Polls `pred` for up to ~5 s; true iff it held at some point.
bool EventuallyTrue(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(ServerAdmissionTest, ZeroWorkersIsRejected) {
  Database db;
  Server srv(&db, {.port = 0, .workers = 0});
  EXPECT_EQ(srv.Start().code(), util::StatusCode::kInvalidArgument);
}

TEST(ServerAdmissionTest, OnePermitHoldsBackASecondRequest) {
  Database db;
  auto setup = db.Execute(R"(
    define type Item (name: char[25], qty: int4)
    create Items : {Item}
    append to Items (name = "seed", qty = 0)
    create user carey
    grant all on Items to carey
  )");
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  Server srv(&db, {.port = 0, .workers = 1});
  ASSERT_TRUE(srv.Start().ok());
  auto a = Client::Connect("127.0.0.1", srv.port(), "dba");
  auto b = Client::Connect("127.0.0.1", srv.port(), "carey");
  auto c = Client::Connect("127.0.0.1", srv.port(), "dba");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());

  // Connection A takes the only permit, then blocks on the Items latch
  // this test holds.
  std::mutex* latch = db.concurrency()->ExtentLatch("Items");
  latch->lock();
  std::thread ta([&] {
    auto r = (*a)->Query("append to Items (name = \"a\", qty = 1)");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  ASSERT_TRUE(EventuallyTrue([&] {
    for (const auto& rec : db.sessions()->Snapshot()) {
      if (rec.active && rec.wait == obs::WaitEvent::kMvccWriterLatch) {
        return true;
      }
    }
    return false;
  })) << "the append never blocked on the latch";

  // Connection B's retrieve needs no latch, but must wait for the permit:
  // it neither completes nor even starts.
  std::atomic<bool> b_done{false};
  std::thread tb([&] {
    auto r = (*b)->Query("retrieve (count(Items))");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    b_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(b_done.load());
  bool saw_b = false;
  for (const auto& rec : db.sessions()->Snapshot()) {
    if (rec.user != "carey") continue;
    saw_b = true;
    EXPECT_FALSE(rec.active) << "B's retrieve started without a permit";
  }
  EXPECT_TRUE(saw_b);

  // Permit-free requests still answer on a third connection.
  auto activity = (*c)->Activity();
  ASSERT_TRUE(activity.ok()) << activity.status().ToString();
  auto metrics = (*c)->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  latch->unlock();
  ta.join();
  tb.join();
  EXPECT_TRUE(b_done.load());
  auto count = (*c)->Query("retrieve (count(Items))");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0], "2");
  srv.Stop();
}

// ---------------------------------------------------------------------------
// excess_server flag parsing
// ---------------------------------------------------------------------------

/// Runs excess_server with `args` (stdout and stderr discarded) and
/// returns its exit code; -1 if it was still running after the deadline
/// (it is then killed) or died from a signal.
int RunServerBinary(const std::vector<std::string>& args) {
  // argv is built before fork: the child only makes async-signal-safe
  // calls until exec.
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(EXODUS_SERVER_BIN));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t child = ::fork();
  if (child == 0) {
    int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, 1);
    ::dup2(devnull, 2);
    ::execv(EXODUS_SERVER_BIN, argv.data());
    ::_exit(127);
  }
  if (child < 0) return -1;
  int status = 0;
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(child, &status, WNOHANG) == child) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(child, SIGKILL);
  ::waitpid(child, &status, 0);
  return -1;
}

TEST(ServerFlagsTest, BadNumericFlagsExitWithUsage) {
  // Each list starts with `--port 0`, so a server that wrongly accepts
  // the bad flag listens on an ephemeral port until it is killed.
  const std::vector<std::vector<std::string>> bad = {
      {"--port", "70000"},
      {"--port", "-1"},
      {"--port", "12ab"},
      {"--port", "0", "--workers", "abc"},
      {"--port", "0", "--workers", "0"},
      {"--port", "0", "--checkpoint-interval-ms", "0"},
      {"--port", "0", "--checkpoint-interval-ms", "-5"},
      {"--port", "0", "--checkpoint-interval-ms", "soon"},
  };
  for (const auto& args : bad) {
    std::string shown;
    for (const std::string& a : args) shown += a + " ";
    EXPECT_EQ(RunServerBinary(args), 2) << shown;
  }
}

TEST_F(ServerTest, HostPortParsing) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(ParseHostPort("10.1.2.3:4077", &host, &port).ok());
  EXPECT_EQ(host, "10.1.2.3");
  EXPECT_EQ(port, 4077);
  ASSERT_TRUE(ParseHostPort(":9999", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9999);
  ASSERT_TRUE(ParseHostPort("8080", &host, &port).ok());
  EXPECT_EQ(port, 8080);
  EXPECT_FALSE(ParseHostPort("host:", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("host:0", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("host:99999", &host, &port).ok());
}

}  // namespace
}  // namespace exodus::server
