// Checkpoint images (wal/wal_format.h): the framed format round-trips every
// record kind, and hostile bytes — any single-byte change, truncation,
// trailing garbage, an image in the retired paged format — make Load
// return a Status, never a crash or a Database.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "excess/database.h"
#include "wal/wal_format.h"

namespace exodus {
namespace {

using excess::QueryResult;

// One image holding every record kind: DDL with an index and a grant,
// heap objects with an `own ref` set and ADT (Date, Complex) values, and
// named scalars, refs and arrays.
constexpr const char* kSchemaAndData[] = {
    "define enum Color (red, green, blue)",
    "define type Department (name: char[20], floor: int4)",
    "define type Employee (name: char[25], salary: float8, hue: Color, "
    "hired: Date, spot: Complex, dept: ref Department, "
    "kids: {own ref Employee})",
    "create Departments : {Department}",
    "create Employees : {Employee}",
    "create index SalIdx on Employees (salary) using btree",
    "create user intern",
    "create group staff",
    "add user intern to group staff",
    "grant retrieve on Employees to staff",
    "append to Departments (name = \"Toys\", floor = 2)",
    "append to Employees (name = \"ann\", salary = 100.0, hue = red, "
    "hired = Date(\"3/1/1985\"), spot = Complex(1.5, -2.0), dept = D, "
    "kids = {(name = \"junior\", salary = 1.0), (name = \"kid\", "
    "salary = 2.0)}) from D in Departments",
    "create Today : Date = Date(\"7/6/1988\")",
    "create Star : ref Employee",
    "create Board : [3] ref Employee",
    "assign Star = E from E in Employees where E.name = \"ann\"",
    "assign Board[2] = E from E in Employees where E.name = \"ann\"",
};

// The first 8 KiB of the image the statements above produced in the
// retired slotted-page format: bytes [0, 96) and [6848, 8192), zeros
// between.
constexpr const char* kPagedHead =
    "1700c31af51f0b00c61f2f00871f3f00ef1e9800c31e2c009b1e28005b1e4000"
    "3e1e1d00211e1d00f81d2900c91d2f00981d3100731d2500491d2a00f21c5700"
    "991c5900431c56007a1bc900561b24002e1b2800081b2600f01a1800c31a2d00";
constexpr size_t kPagedTailStart = 6848;
constexpr const char* kPagedTail =
    "00000044014e0500000000000000546f64617906040000000000000044617465"
    "0800000000000000372f362f3139383844014e0400000000000000537461720a"
    "040000000000000044014e0900000000000000456d706c6f7965657308010000"
    "00000000000a040000000000000044014e0b000000000000004465706172746d"
    "656e74730801000000000000000a010000000000000044014e05000000000000"
    "00426f617264090300000000000000000a040000000000000000440148040000"
    "00000000000800000000000000456d706c6f7965650100000000000000000900"
    "000000000000456d706c6f796565730700000000000000040300000000000000"
    "616e6e020000000000005940050500000000000000436f6c6f72000000000000"
    "0000060400000000000000446174650800000000000000332f312f3139383506"
    "0700000000000000436f6d706c65780800000000000000312e35202d322e300a"
    "01000000000000000802000000000000000a02000000000000000a0300000000"
    "00000044014803000000000000000800000000000000456d706c6f7965650104"
    "0000000000000000000000000000000700000000000000040300000000000000"
    "6b69640200000000000000400000000008000000000000000044014802000000"
    "000000000800000000000000456d706c6f796565010400000000000000000000"
    "000000000007000000000000000406000000000000006a756e696f7202000000"
    "000000f03f0000000008000000000000000044014801000000000000000a0000"
    "00000000004465706172746d656e740100000000000000000b00000000000000"
    "4465706172746d656e74730200000000000000040400000000000000546f7973"
    "01020000000000000044014c1f0000000000000063726561746520426f617264"
    "203a205b335d2072656620456d706c6f79656544014c1a000000000000006372"
    "656174652053746172203a2072656620456d706c6f79656544014c2600000000"
    "00000063726561746520546f646179203a2044617465203d2044617465282237"
    "2f362f31393838222944014c24000000000000006772616e7420726574726965"
    "7665206f6e20456d706c6f7965657320746f20737461666644014c1e00000000"
    "000000616464207573657220696e7465726e20746f2067726f75702073746166"
    "6644014c12000000000000006372656174652067726f75702073746166664401"
    "4c1200000000000000637265617465207573657220696e7465726e44014c3500"
    "00000000000063726561746520696e6465782053616c496478206f6e20456d70"
    "6c6f79656573202873616c61727929207573696e6720627472656544014c1d00"
    "00000000000063726561746520456d706c6f79656573203a207b456d706c6f79"
    "65657d44014c2100000000000000637265617465204465706172746d656e7473"
    "203a207b4465706172746d656e747d44014c8d00000000000000646566696e65"
    "207479706520456d706c6f79656520286e616d653a20636861725b32355d2c20"
    "73616c6172793a20666c6f6174382c206875653a20436f6c6f722c2068697265"
    "643a20446174652c2073706f743a20436f6d706c65782c20646570743a207265"
    "66204465706172746d656e742c206b6964733a207b6f776e2072656620456d70"
    "6c6f7965657d2944014c3400000000000000646566696e652074797065204465"
    "706172746d656e7420286e616d653a20636861725b32305d2c20666c6f6f723a"
    "20696e74342944014c2400000000000000646566696e6520656e756d20436f6c"
    "6f7220287265642c20677265656e2c20626c7565294401570000000000000000";

std::string Unhex(const char* hex) {
  std::string out;
  for (const char* p = hex; p[0] != '\0' && p[1] != '\0'; p += 2) {
    out.push_back(static_cast<char>(std::stoi(std::string(p, 2), nullptr, 16)));
  }
  return out;
}

class ImageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/exodus_image_test.ckpt";
    for (const char* stmt : kSchemaAndData) {
      auto r = db_.Execute(stmt);
      ASSERT_TRUE(r.ok()) << stmt << " -> " << r.status().ToString();
    }
    ASSERT_TRUE(db_.Save(path_).ok());
    image_ = Slurp(path_);
    ASSERT_FALSE(image_.empty());
  }
  void TearDown() override {
    ::chmod(path_.c_str(), 0644);
    std::remove(path_.c_str());
    ::rmdir((path_ + ".tmp").c_str());
  }

  static std::string Slurp(const std::string& path) {
    std::string out;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
  }

  static void Spit(const std::string& path, const std::string& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  // Byte offsets at which each frame of `image_` starts, plus its end.
  std::vector<size_t> FrameBoundaries() const {
    std::vector<size_t> out{0};
    size_t pos = 0;
    wal::WalRecord rec;
    while (pos < image_.size() && wal::DecodeRecord(image_, &pos, &rec)) {
      out.push_back(pos);
    }
    EXPECT_EQ(pos, image_.size());
    return out;
  }

  // The bytes must not load; the refusal names an offset.
  static void ExpectRejected(const std::string& bytes,
                             const std::string& what) {
    auto r = Database::LoadImage(bytes);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), util::StatusCode::kIoError) << what;
  }

  // Frames `records` as an image, each frame holding at most
  // `max_frame_payload` bytes.
  static std::string Encode(const std::vector<std::string>& records,
                            size_t max_frame_payload = wal::kMaxRecordPayload) {
    char* buf = nullptr;
    size_t size = 0;
    std::FILE* out = ::open_memstream(&buf, &size);
    wal::ImageWriter writer(out, "test", max_frame_payload);
    EXPECT_TRUE(writer.Begin(0).ok());
    for (const std::string& rec : records) {
      EXPECT_TRUE(writer.Append(rec).ok());
    }
    EXPECT_TRUE(writer.Finish().ok());
    std::fclose(out);
    std::string image(buf, size);
    std::free(buf);
    return image;
  }

  // The reader's verdict on an image: "ok" or the first error. The
  // records read are stored in `*records` when given.
  static std::string Verdict(std::string image,
                             std::vector<std::string>* records = nullptr) {
    std::FILE* in = ::fmemopen(image.data(), image.size(), "rb");
    if (in == nullptr) return "cannot open";
    wal::ImageReader reader(in, "test");
    util::Status st = reader.Begin().status();
    wal::WalRecord rec;
    while (st.ok()) {
      auto more = reader.Next(&rec);
      st = more.status();
      if (!st.ok() || !*more) break;
      if (records != nullptr) records->push_back(rec.payload);
    }
    std::fclose(in);
    return st.ok() ? std::string("ok") : st.message();
  }

  // Splits `image` into its encoded frames.
  static std::vector<std::string> Frames(const std::string& image) {
    std::vector<std::string> out;
    size_t pos = 0;
    wal::WalRecord rec;
    while (pos < image.size()) {
      const size_t start = pos;
      if (!wal::DecodeRecord(image, &pos, &rec)) break;
      out.push_back(image.substr(start, pos - start));
    }
    return out;
  }

  Database db_;
  std::string path_;
  std::string image_;
};

QueryResult Must(Database* db, const std::string& q) {
  auto r = db->Execute(q);
  EXPECT_TRUE(r.ok()) << q << "\n -> " << r.status().ToString();
  return r.ok() ? *r : QueryResult{};
}

TEST_F(ImageTest, EveryRecordKindRoundTrips) {
  for (bool from_file : {true, false}) {
    auto loaded =
        from_file ? Database::Load(path_) : Database::LoadImage(image_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    Database* db = loaded->get();
    QueryResult r = Must(db, R"(
      retrieve (E.name, E.hue, E.hired, E.spot, E.dept.name)
      from E in Employees where E.salary > 50.0)");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].AsString(), "ann");
    EXPECT_EQ(r.rows[0][1].ToString(), "red");
    EXPECT_EQ(r.rows[0][2].ToString(), "3/1/1985");
    EXPECT_EQ(r.rows[0][4].AsString(), "Toys");
    EXPECT_NE(db->last_plan().find("IndexScan"), std::string::npos)
        << db->last_plan();
    r = Must(db, "retrieve (K.name) from E in Employees, K in E.kids "
                 "where E.name = \"ann\"");
    EXPECT_EQ(r.rows.size(), 2u);
    r = Must(db, "retrieve (Today, Star.name, Board[2].salary)");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].ToString(), "7/6/1988");
    EXPECT_EQ(r.rows[0][1].AsString(), "ann");
    EXPECT_EQ(db->heap()->live_count(), db_.heap()->live_count());
    Must(db, "set user intern");
    Must(db, "retrieve (E.name) from E in Employees");
  }
}

TEST_F(ImageTest, FramesAreSequencedImageRecords) {
  std::vector<size_t> bounds = FrameBoundaries();
  ASSERT_GE(bounds.size(), 3u);  // header, records, trailer
  size_t pos = 0;
  wal::WalRecord rec;
  for (uint64_t seq = 1; pos < image_.size(); ++seq) {
    ASSERT_TRUE(wal::DecodeRecord(image_, &pos, &rec));
    EXPECT_EQ(rec.lsn, seq);
    EXPECT_EQ(rec.type, wal::RecordType::kImage);
  }
  EXPECT_EQ(rec.payload[0], 'T');
}

TEST_F(ImageTest, EverySingleByteChangeIsRejected) {
  for (size_t i = 0; i < image_.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string bad = image_;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      ExpectRejected(bad, "byte " + std::to_string(i) + " ^ " +
                              std::to_string(mask));
    }
  }
}

TEST_F(ImageTest, TruncationIsRejected) {
  std::vector<size_t> bounds = FrameBoundaries();
  bounds.pop_back();  // the full image
  for (size_t cut : bounds) {
    ExpectRejected(image_.substr(0, cut), "cut at boundary " +
                                              std::to_string(cut));
  }
  std::mt19937 rng(20260417);
  for (int i = 0; i < 200; ++i) {
    const size_t cut = 1 + rng() % (image_.size() - 1);
    ExpectRejected(image_.substr(0, cut), "cut at " + std::to_string(cut));
  }
  // A truncated file on disk fails the same way.
  Spit(path_, image_.substr(0, image_.size() / 2));
  auto r = Database::Load(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ImageTest, TrailingBytesAreRejected) {
  std::vector<size_t> bounds = FrameBoundaries();
  const std::string last_frame =
      image_.substr(bounds[bounds.size() - 2]);
  for (const std::string& extra :
       {std::string(1, '\0'), std::string("garbage"), last_frame,
        std::string(4096, '\0')}) {
    auto r = Database::LoadImage(image_ + extra);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("after the trailer"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(ImageTest, PagedImageIsUnsupported) {
  std::string paged = Unhex(kPagedHead);
  paged.resize(kPagedTailStart, '\0');
  paged += Unhex(kPagedTail);
  ASSERT_EQ(paged.size(), 8192u);
  Spit(path_, paged);
  auto r = Database::Load(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unsupported image format"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(ImageTest, CategoryOrderAndTrailerAreEnforced) {
  auto has = [](const std::string& text, const std::string& part) {
    return text.find(part) != std::string::npos;
  };
  EXPECT_EQ(Verdict(Encode({"Lx", "Lx", "Hx", "Nx"})), "ok");
  EXPECT_TRUE(has(Verdict(Encode({"Nx", "Lx"})), "out of order"));
  EXPECT_TRUE(has(Verdict(Encode({"Hx", "Nx", "Hx"})), "out of order"));
  EXPECT_TRUE(has(Verdict(Encode({"X"})), "unknown record category"));
  EXPECT_TRUE(has(Verdict(Encode({""})), "unknown record category"));
  // A trailer in the middle, or one with a wrong count, is corruption.
  EXPECT_TRUE(has(Verdict(Encode({"T"})), "bad trailer"));
  EXPECT_TRUE(has(Verdict(Encode({std::string("T\x05\0\0\0\0\0\0\0", 9)})),
                  "bad trailer"));
  // An image with no records is a valid, empty database.
  EXPECT_TRUE(Database::LoadImage(Encode({})).ok());
}

TEST_F(ImageTest, OversizedRecordsSpanFrames) {
  // A record larger than one frame holds goes out as kImagePart frames
  // ending in one kImage frame and is joined on read, so records of any
  // size round-trip. A 100-byte frame cap stands in for the 64 MiB one.
  const std::vector<std::string> records = {
      "L" + std::string(299, 'a'), "Hy", "H" + std::string(99, 'b'),
      "N" + std::string(250, 'c')};
  const std::string image = Encode(records, 100);
  std::vector<std::string> read;
  ASSERT_EQ(Verdict(image, &read), "ok");
  EXPECT_EQ(read, records);

  // header, 3 + 1 + 1 + 3 record frames, trailer
  const std::vector<std::string> frames = Frames(image);
  ASSERT_EQ(frames.size(), 10u);
  std::string types;
  for (const std::string& frame : frames) {
    size_t pos = 0;
    wal::WalRecord rec;
    ASSERT_TRUE(wal::DecodeRecord(frame, &pos, &rec));
    EXPECT_LE(rec.payload.size(), 100u);
    types += rec.type == wal::RecordType::kImagePart ? 'p' : 'i';
  }
  EXPECT_EQ(types, "ippiiippii");

  for (size_t i = 0; i < image.size(); ++i) {
    std::string bad = image;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    EXPECT_NE(Verdict(bad), "ok") << "byte " << i;
  }
  size_t cut = 0;
  for (size_t f = 0; f + 1 < frames.size(); ++f) {
    cut += frames[f].size();
    EXPECT_NE(Verdict(image.substr(0, cut)), "ok") << "cut after frame " << f;
  }
  // A split record that runs into the trailer swallows it.
  std::string unfinished = frames[0];
  wal::EncodeRecord(2, wal::RecordType::kImagePart, "Lx", &unfinished);
  unfinished += Frames(Encode({"Lx"}))[2];
  EXPECT_NE(Verdict(unfinished).find("without a trailer"), std::string::npos)
      << Verdict(unfinished);
}

TEST_F(ImageTest, FailedSaveKeepsThePreviousImage) {
  Must(&db_, "append to Departments (name = \"Later\", floor = 9)");
  // A directory where the temp file should go makes the write fail.
  ASSERT_EQ(::mkdir((path_ + ".tmp").c_str(), 0755), 0);
  EXPECT_FALSE(db_.Save(path_).ok());
  struct stat st;
  EXPECT_EQ(::stat((path_ + ".tmp").c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  EXPECT_EQ(Slurp(path_), image_);
  auto loaded = Database::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  QueryResult r =
      Must(loaded->get(), "retrieve (D.name) from D in Departments");
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(ImageTest, ReadOnlyImageLoads) {
  ASSERT_EQ(::chmod(path_.c_str(), 0444), 0);
  auto loaded = Database::Load(path_);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

}  // namespace
}  // namespace exodus
