// Logical journaling + recovery: mutating statements are appended
// durably; Recover() rebuilds from optional checkpoint + journal and
// tolerates a torn tail record (the crash case). Every way of issuing a
// statement (one-shot, escalated, prepared, explain analyze) journals
// it exactly once.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "excess/concurrency.h"
#include "excess/database.h"
#include "excess/session.h"
#include "wal/wal_format.h"
#include "wal/wal_reader.h"

namespace exodus {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal_ = ::testing::TempDir() + "/exodus_journal_test.log";
    checkpoint_ = ::testing::TempDir() + "/exodus_journal_test.ckpt";
    RemoveWal();
    std::remove(checkpoint_.c_str());
  }
  void TearDown() override {
    RemoveWal();
    std::remove(checkpoint_.c_str());
  }

  /// The journal is a WAL now: checkpoints rotate it into numbered
  /// segments, so a fresh test must clear all of them, not just the
  /// base file.
  void RemoveWal() {
    auto segments = wal::ListSegments(journal_);
    if (segments.ok()) {
      for (const std::string& path : *segments) std::remove(path.c_str());
    }
    std::remove(journal_.c_str());
  }

  void Must(Database* db, const std::string& q) {
    auto r = db->Execute(q);
    ASSERT_TRUE(r.ok()) << q << "\n -> " << r.status().ToString();
  }

  std::string journal_;
  std::string checkpoint_;
};

TEST_F(JournalTest, RecoverFromJournalAlone) {
  {
    Database db;
    ASSERT_TRUE(db.EnableJournal(journal_).ok());
    Must(&db, R"(
      define type Employee (name: char[25], salary: float8)
      create Employees : {Employee}
      append to Employees (name = "ann", salary = 10.0)
      append to Employees (name = "bob", salary = 20.0)
      replace E (salary = 11.0) from E in Employees where E.name = "ann"
    )");
    // db is destroyed without any checkpoint: "crash".
  }
  auto recovered = Database::Recover("", journal_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto r = (*recovered)->Execute(
      "retrieve (E.name, E.salary) from E in Employees sort by E.name");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsFloat(), 11.0);
  EXPECT_DOUBLE_EQ(r->rows[1][1].AsFloat(), 20.0);
}

TEST_F(JournalTest, RetrievesAreNotJournaled) {
  {
    Database db;
    ASSERT_TRUE(db.EnableJournal(journal_).ok());
    Must(&db, "define type T (x: int4)");
    Must(&db, "create S : {T}");
    for (int i = 0; i < 5; ++i) {
      Must(&db, "retrieve (count(V)) from V in S");
    }
  }
  std::FILE* f = std::fopen(journal_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(contents.find("retrieve"), std::string::npos);
  EXPECT_NE(contents.find("define type T"), std::string::npos);
}

TEST_F(JournalTest, CheckpointTruncatesJournal) {
  Database db;
  ASSERT_TRUE(db.EnableJournal(journal_).ok());
  Must(&db, R"(
    define type T (x: int4)
    create S : {T}
    append to S (x = 1)
  )");
  ASSERT_TRUE(db.Checkpoint(checkpoint_).ok());
  Must(&db, "append to S (x = 2)");

  // Recover = checkpoint (x=1) + post-checkpoint journal (x=2).
  auto recovered = Database::Recover(checkpoint_, journal_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto r = (*recovered)->Execute("retrieve (sum(V.x)) from V in S");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 3);
}

TEST_F(JournalTest, TornTailRecordIgnored) {
  {
    Database db;
    ASSERT_TRUE(db.EnableJournal(journal_).ok());
    Must(&db, "define type T (x: int4)");
    Must(&db, "create S : {T}");
    Must(&db, "append to S (x = 1)");
  }
  // Simulate a crash mid-append: write a truncated record.
  std::FILE* f = std::fopen(journal_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("999\nappend to S (x = ", f);
  std::fclose(f);

  auto recovered = Database::Recover("", journal_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto r = (*recovered)->Execute("retrieve (count(V)) from V in S");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

TEST_F(JournalTest, RecoveredDatabaseKeepsJournaling) {
  {
    Database db;
    ASSERT_TRUE(db.EnableJournal(journal_).ok());
    Must(&db, "define type T (x: int4)");
    Must(&db, "create S : {T}");
    Must(&db, "append to S (x = 1)");
  }
  {
    auto recovered = Database::Recover("", journal_);
    ASSERT_TRUE(recovered.ok());
    Must(recovered->get(), "append to S (x = 2)");
  }
  auto again = Database::Recover("", journal_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto r = (*again)->Execute("retrieve (sum(V.x)) from V in S");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 3);
}

TEST_F(JournalTest, SessionStateReplays) {
  {
    Database db;
    ASSERT_TRUE(db.EnableJournal(journal_).ok());
    Must(&db, R"(
      define type T (x: int4)
      create S : {T}
      append to S (x = 1)
      range of V is S
      create user bob
      set user dba
      grant retrieve on S to bob
    )");
  }
  auto recovered = Database::Recover("", journal_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // The session range declaration replayed.
  auto r = (*recovered)->Execute("retrieve (count(V))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
  // Grants replayed.
  Must(recovered->get(), "set user bob");
  Must(recovered->get(), "retrieve (count(V))");
}

/// The statement records of the WAL at `path`, in log order.
std::vector<std::string> StatementRecords(const std::string& path) {
  auto read = wal::WalReader::ReadAll(path);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  std::vector<std::string> out;
  if (!read.ok()) return out;
  for (const wal::WalRecord& rec : read->records) {
    if (rec.type == wal::RecordType::kStatement) out.push_back(rec.payload);
  }
  return out;
}

TEST_F(JournalTest, EveryStatementPathJournalsExactlyOnce) {
  std::vector<std::string> live;
  {
    Database db;
    ASSERT_TRUE(db.EnableJournal(journal_).ok());
    // Appending p1 and p3 to Loose as well re-tags their home extent to
    // Loose, so a write to them through Parts latches Parts but touches
    // objects of another extent: the snapshot attempt escalates to the
    // exclusive path.
    Must(&db, R"(
      define type Part (name: char[10])
      create Parts : {Part}
      create Loose : {ref Part}
      append to Parts (name = "p1")
      append to Parts (name = "p2")
      append to Parts (name = "p3")
    )");
    Must(&db,
         "append to Loose (P) from P in Parts "
         "where P.name = \"p1\" or P.name = \"p3\"");
    const size_t before = StatementRecords(journal_).size();
    std::atomic<uint64_t>& escalations = db.concurrency()->write_escalations;

    // One-shot append: no escalation.
    uint64_t esc0 = escalations.load();
    Must(&db, "append to Parts (name = \"a1\")");
    EXPECT_EQ(escalations.load(), esc0);

    // One-shot replace that escalates: rolled back, re-run exclusively,
    // journaled once.
    Must(&db,
         "replace P (name = \"r1\") from P in Parts where P.name = \"p1\"");
    EXPECT_EQ(escalations.load(), esc0 + 1);
    // The escalating attempt of a delete returns OK; it is still rolled
    // back unjournaled.
    Must(&db, "delete P from P in Parts where P.name = \"p3\"");
    EXPECT_EQ(escalations.load(), esc0 + 2);

    auto session = db.CreateSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    // Prepared replace: journaled with $1 substituted.
    auto replace = (*session)->Prepare(
        "replace P (name = $1) from P in Parts where P.name = \"p2\"");
    ASSERT_TRUE(replace.ok()) << replace.status().ToString();
    ASSERT_TRUE((*replace)->Bind(1, "b1").ok());
    auto r = (*replace)->Execute();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->affected, 1u);

    // Prepared DDL.
    auto ddl = (*session)->Prepare("define type Spare (x: int4)");
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
    ASSERT_TRUE((*ddl)->Execute().ok());

    // explain analyze executes — and journals — for real.
    auto explained =
        (*session)->Explain("append to Parts (name = \"e1\")", true);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();

    // A failing statement journals nothing.
    EXPECT_FALSE(db.Execute("append to Parts (nosuch = 1)").ok());

    std::vector<std::string> records = StatementRecords(journal_);
    ASSERT_EQ(records.size(), before + 6);
    const std::vector<std::pair<std::string, std::string>> expected = {
        {"append to Parts", "\"a1\""},
        {"replace P", "\"r1\""},
        {"delete P", "\"p3\""},
        {"replace P", "\"b1\""},
        {"define type Spare", "x"},
        {"append to Parts", "\"e1\""},
    };
    for (size_t i = 0; i < expected.size(); ++i) {
      const std::string& rec = records[before + i];
      EXPECT_EQ(rec.rfind(expected[i].first, 0), 0u) << rec;
      EXPECT_NE(rec.find(expected[i].second), std::string::npos) << rec;
      EXPECT_EQ(rec.find('$'), std::string::npos) << rec;
    }

    auto names = db.Execute("retrieve (P.name) from P in Parts sort by P.name");
    ASSERT_TRUE(names.ok()) << names.status().ToString();
    for (const auto& row : names->rows) live.push_back(row[0].AsString());
  }
  EXPECT_EQ(live, (std::vector<std::string>{"a1", "b1", "e1", "r1"}));

  auto recovered = Database::Recover("", journal_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto names = (*recovered)->Execute(
      "retrieve (P.name) from P in Parts sort by P.name");
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  std::vector<std::string> rebuilt;
  for (const auto& row : names->rows) rebuilt.push_back(row[0].AsString());
  EXPECT_EQ(rebuilt, live);
  // The prepared DDL replayed too.
  Must(recovered->get(), "create Spares : {Spare}");
}

TEST_F(JournalTest, DoubleEnableRejected) {
  Database db;
  ASSERT_TRUE(db.EnableJournal(journal_).ok());
  EXPECT_EQ(db.EnableJournal(journal_).code(),
            util::StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace exodus
