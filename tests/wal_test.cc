// The WAL subsystem in isolation: record framing and CRC verification,
// torn-tail tolerance vs. mid-stream corruption, empty segments,
// rotation boundaries, group-commit fsync accounting, retainers and
// ReadAfter, and LSN resumption across reopen.

#include "wal/wal_writer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "wal/wal_format.h"
#include "wal/wal_reader.h"

namespace exodus::wal {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "/exodus_wal_test.log";
    RemoveAll();
  }
  void TearDown() override { RemoveAll(); }

  void RemoveAll() {
    auto segments = ListSegments(base_);
    if (segments.ok()) {
      for (const std::string& p : *segments) std::remove(p.c_str());
    }
    std::remove(base_.c_str());
  }

  std::string Slurp(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
  }

  void Spit(const std::string& path, const std::string& contents) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(contents.data(), 1, contents.size(), f),
              contents.size());
    std::fclose(f);
  }

  std::string base_;
};

TEST_F(WalTest, AppendAndReadBack) {
  auto writer = WalWriter::Open(base_, 1);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (int i = 0; i < 3; ++i) {
    auto lsn = (*writer)->Append(RecordType::kStatement,
                                 "stmt " + std::to_string(i),
                                 Durability::kSync);
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ((*writer)->LastDurableLsn(), 3u);
  writer->reset();

  auto scan = WalReader::ReadAll(base_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan->tail_torn);
  ASSERT_EQ(scan->records.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(scan->records[i].lsn, i + 1);
    EXPECT_EQ(scan->records[i].payload, "stmt " + std::to_string(i));
  }
}

TEST_F(WalTest, TornTailToleratedAndTruncatedOnReopen) {
  {
    auto writer = WalWriter::Open(base_, 1);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        (*writer)->Append(RecordType::kStatement, "a", Durability::kSync).ok());
    ASSERT_TRUE(
        (*writer)->Append(RecordType::kStatement, "b", Durability::kSync).ok());
  }
  // A crash mid-append leaves a partial record: a header promising more
  // bytes than exist.
  std::string full = Slurp(base_);
  std::string torn;
  EncodeRecord(3, RecordType::kStatement, "truncated-me", &torn);
  Spit(base_, full + torn.substr(0, torn.size() - 5));

  auto scan = WalReader::ReadAll(base_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->tail_torn);
  ASSERT_EQ(scan->records.size(), 2u);

  // Reopen truncates the torn bytes and resumes the LSN sequence at 3.
  auto writer = WalWriter::Open(base_, 1);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  auto lsn =
      (*writer)->Append(RecordType::kStatement, "c", Durability::kSync);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
  writer->reset();
  auto rescan = WalReader::ReadAll(base_);
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan->tail_torn);
  ASSERT_EQ(rescan->records.size(), 3u);
  EXPECT_EQ(rescan->records[2].payload, "c");
}

TEST_F(WalTest, CorruptionMidFileIsAnErrorNotATruncation) {
  std::string contents;
  EncodeRecord(1, RecordType::kStatement, "first", &contents);
  size_t second_start = contents.size();
  EncodeRecord(2, RecordType::kStatement, "second", &contents);
  EncodeRecord(3, RecordType::kStatement, "third", &contents);
  // Flip one payload byte of the middle record: its CRC fails while a
  // valid record follows, so this is corruption, not a torn tail.
  contents[second_start + kRecordHeaderBytes] ^= 0x40;
  Spit(base_, contents);

  auto scan = WalReader::ReadAll(base_);
  EXPECT_FALSE(scan.ok());
}

TEST_F(WalTest, CorruptFinalRecordIsATornTail) {
  std::string contents;
  EncodeRecord(1, RecordType::kStatement, "first", &contents);
  size_t second_start = contents.size();
  EncodeRecord(2, RecordType::kStatement, "second", &contents);
  contents[second_start + kRecordHeaderBytes] ^= 0x40;
  Spit(base_, contents);

  auto scan = WalReader::ReadAll(base_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->tail_torn);
  ASSERT_EQ(scan->records.size(), 1u);
}

TEST_F(WalTest, EmptySegmentIsAValidWal) {
  Spit(base_, "");
  auto scan = WalReader::ReadAll(base_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records.size(), 0u);
  EXPECT_FALSE(scan->tail_torn);

  auto writer = WalWriter::Open(base_, 1);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  auto lsn = (*writer)->Append(RecordType::kStatement, "x", Durability::kSync);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 1u);
}

TEST_F(WalTest, RotationKeepsTheLsnSequenceContinuous) {
  WalWriter::Options opts;
  opts.segment_bytes = 64;  // a couple of records per segment
  auto writer = WalWriter::Open(base_, 1, opts);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*writer)
                    ->Append(RecordType::kStatement,
                             "statement number " + std::to_string(i),
                             Durability::kSync)
                    .ok());
  }
  EXPECT_GE((*writer)->counters().rotations, 2u);
  writer->reset();

  auto segments = ListSegments(base_);
  ASSERT_TRUE(segments.ok());
  EXPECT_GE(segments->size(), 3u);

  // The scan stitches segments back into one continuous sequence.
  auto scan = WalReader::ReadAll(base_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->records.size(), 10u);
  for (size_t i = 0; i < scan->records.size(); ++i) {
    EXPECT_EQ(scan->records[i].lsn, i + 1);
  }
}

TEST_F(WalTest, ExplicitRotateCutsAndResumes) {
  auto writer = WalWriter::Open(base_, 1);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      (*writer)->Append(RecordType::kStatement, "a", Durability::kSync).ok());
  ASSERT_TRUE(
      (*writer)->Append(RecordType::kStatement, "b", Durability::kSync).ok());
  auto cut = (*writer)->Rotate();
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  EXPECT_EQ(*cut, 2u);
  auto lsn = (*writer)->Append(RecordType::kStatement, "c", Durability::kSync);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);

  // Records above the cut live in the new segment and survive a drop.
  ASSERT_TRUE((*writer)->DropSegmentsBelow(*cut).ok());
  auto rest = (*writer)->ReadAfter(*cut, 1u << 20);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  ASSERT_EQ(rest->size(), 1u);
  EXPECT_EQ((*rest)[0].payload, "c");
}

TEST_F(WalTest, RetainersHoldTheDropFloor) {
  WalWriter::Options opts;
  opts.segment_bytes = 32;
  auto writer = WalWriter::Open(base_, 1, opts);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*writer)
                    ->Append(RecordType::kStatement,
                             "record " + std::to_string(i), Durability::kSync)
                    .ok());
  }
  auto retainer = (*writer)->CreateRetainer(2);
  EXPECT_EQ((*writer)->RetainedFloor(), 2u);

  // The drop keeps everything above the retainer despite the higher cut.
  auto cut = (*writer)->Rotate();
  ASSERT_TRUE(cut.ok());
  ASSERT_TRUE((*writer)->DropSegmentsBelow(*cut).ok());
  auto rest = (*writer)->ReadAfter(2, 1u << 20);
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest->size(), 6u);
  EXPECT_EQ((*rest)[0].lsn, 3u);

  // Advance never lowers; releasing the retainer releases the floor.
  retainer->Advance(1);
  EXPECT_EQ((*writer)->RetainedFloor(), 2u);
  retainer->Advance(7);
  EXPECT_EQ((*writer)->RetainedFloor(), 7u);
  retainer.reset();
  EXPECT_EQ((*writer)->RetainedFloor(), UINT64_MAX);
}

TEST_F(WalTest, ReadAfterRespectsTheByteBudget) {
  auto writer = WalWriter::Open(base_, 1);
  ASSERT_TRUE(writer.ok());
  const std::string payload(100, 'x');
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        (*writer)->Append(RecordType::kStatement, payload, Durability::kSync)
            .ok());
  }
  auto first = (*writer)->ReadAfter(0, 250);
  ASSERT_TRUE(first.ok());
  ASSERT_GE(first->size(), 1u);
  ASSERT_LT(first->size(), 6u);
  auto rest = (*writer)->ReadAfter(first->back().lsn, 1u << 20);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(first->size() + rest->size(), 6u);
  EXPECT_EQ(rest->back().lsn, 6u);
}

TEST_F(WalTest, SyncModeFsyncsEveryAppend) {
  auto writer = WalWriter::Open(base_, 1);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        (*writer)->Append(RecordType::kStatement, "s", Durability::kSync).ok());
  }
  auto c = (*writer)->counters();
  EXPECT_EQ(c.appends, 20u);
  // Sequentially, every record pays its own fdatasync (the flusher may
  // occasionally pick one up first, but never batches two: the next
  // append only starts after the previous one returned durable).
  EXPECT_EQ(c.fsyncs, 20u);
}

TEST_F(WalTest, GroupCommitIsDurableAndBatches) {
  auto writer = WalWriter::Open(base_, 1);
  ASSERT_TRUE(writer.ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto lsn = (*writer)->Append(
            RecordType::kStatement,
            "t" + std::to_string(t) + " i" + std::to_string(i),
            Durability::kGroup);
        if (!lsn.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto c = (*writer)->counters();
  EXPECT_EQ(c.appends, static_cast<uint64_t>(kThreads * kPerThread));
  // Every acknowledged append is durable...
  EXPECT_EQ((*writer)->LastDurableLsn(),
            static_cast<uint64_t>(kThreads * kPerThread));
  // ...and group commit never costs more than one fsync per record.
  EXPECT_LE(c.fsyncs, c.appends);
  EXPECT_EQ(c.batch_records, c.appends);
  writer->reset();

  auto scan = WalReader::ReadAll(base_);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < scan->records.size(); ++i) {
    EXPECT_EQ(scan->records[i].lsn, i + 1);  // no gaps, no duplicates
  }
}

TEST_F(WalTest, AsyncAppendsBecomeDurableOnFlush) {
  auto writer = WalWriter::Open(base_, 1);
  ASSERT_TRUE(writer.ok());
  auto lsn = (*writer)->Append(RecordType::kStatement, "deferred",
                               Durability::kAsync);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ((*writer)->LastAppendedLsn(), 1u);
  ASSERT_TRUE((*writer)->Flush().ok());
  EXPECT_EQ((*writer)->LastDurableLsn(), 1u);
}

TEST_F(WalTest, OpenHonorsMinNextLsn) {
  {
    auto writer = WalWriter::Open(base_, 100);
    ASSERT_TRUE(writer.ok());
    auto lsn =
        (*writer)->Append(RecordType::kStatement, "x", Durability::kSync);
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 100u);
  }
  // Reopening resumes past what is on disk, even with a lower floor.
  auto writer = WalWriter::Open(base_, 1);
  ASSERT_TRUE(writer.ok());
  auto lsn = (*writer)->Append(RecordType::kStatement, "y", Durability::kSync);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 101u);
}

// The CRC-32 check value (IEEE 802.3 / zlib crc32 of "123456789").
TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

// Bit-at-a-time reference: the definition the table-driven Crc32 must
// reproduce for every length and alignment.
uint32_t ReferenceCrc32(const std::string& s) {
  uint32_t c = 0xffffffffu;
  for (unsigned char b : s) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  std::string data;
  uint32_t x = 12345;
  for (int i = 0; i < 80; ++i) {
    x = x * 1103515245u + 12345u;
    data.push_back(static_cast<char>(x >> 24));
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; start + len <= data.size(); ++len) {
      const std::string piece = data.substr(start, len);
      ASSERT_EQ(Crc32(data.data() + start, len), ReferenceCrc32(piece))
          << "start " << start << " len " << len;
    }
  }
}

TEST(Crc32Test, ChainedSeedContinuesThePrefix) {
  const std::string whole = "The quick brown fox jumps over the lazy dog";
  const uint32_t expected = Crc32(whole.data(), whole.size());
  EXPECT_EQ(expected, 0x414FA339u);
  for (size_t cut = 0; cut <= whole.size(); ++cut) {
    const uint32_t prefix = Crc32(whole.data(), cut);
    EXPECT_EQ(Crc32(whole.data() + cut, whole.size() - cut, prefix), expected)
        << "split at " << cut;
  }
}

// A record's bytes are fixed by the format: segments written by earlier
// builds must keep decoding.
TEST(WalFormatTest, RecordEncodingIsStable) {
  std::string out;
  EncodeRecord(7, RecordType::kStatement, "append to S (x = 1)", &out);
  std::string hex;
  char buf[3];
  for (unsigned char c : out) {
    std::snprintf(buf, sizeof buf, "%02x", c);
    hex += buf;
  }
  EXPECT_EQ(hex,
            "1300000032536347070000000000000001"
            "617070656e6420746f2053202878203d203129");
  size_t pos = 0;
  WalRecord rec;
  ASSERT_TRUE(DecodeRecord(out, &pos, &rec));
  EXPECT_EQ(rec.lsn, 7u);
  EXPECT_EQ(rec.payload, "append to S (x = 1)");
}

}  // namespace
}  // namespace exodus::wal
