#include "wal/wal_format.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>

namespace exodus::wal {

using util::Result;
using util::Status;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

namespace {

// Slicing-by-8 tables: entries[0] is the classic byte-at-a-time table;
// entries[k][b] is the CRC of byte b followed by k zero bytes, so eight
// input bytes fold into the register with eight independent lookups.
struct Crc32Table {
  uint32_t entries[8][256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xff] ^ (prev >> 8);
      }
    }
  }
};

const Crc32Table& Table() {
  static const Crc32Table table;
  return table;
}

void PutU32Le(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void PutU64Le(uint64_t v, std::string* out) {
  PutU32Le(static_cast<uint32_t>(v & 0xffffffffu), out);
  PutU32Le(static_cast<uint32_t>(v >> 32), out);
}

uint32_t GetU32Le(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

uint64_t GetU64Le(const char* p) {
  return static_cast<uint64_t>(GetU32Le(p)) |
         static_cast<uint64_t>(GetU32Le(p + 4)) << 32;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const auto& t = Table().entries;
  uint32_t c = seed ^ 0xffffffffu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = c ^ GetU32Le(reinterpret_cast<const char*>(p));
    const uint32_t hi = GetU32Le(reinterpret_cast<const char*>(p + 4));
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

void EncodeRecord(uint64_t lsn, RecordType type, std::string_view payload,
                  std::string* out) {
  // CRC covers lsn | type | payload, exactly as laid out on disk; the
  // chained seed checksums the payload where it lies.
  std::string covered;
  PutU64Le(lsn, &covered);
  covered.push_back(static_cast<char>(type));
  const uint32_t crc = Crc32(payload.data(), payload.size(),
                             Crc32(covered.data(), covered.size()));

  out->reserve(out->size() + kRecordHeaderBytes + payload.size());
  PutU32Le(static_cast<uint32_t>(payload.size()), out);
  PutU32Le(crc, out);
  out->append(covered);
  out->append(payload);
}

bool DecodeRecord(const std::string& buf, size_t* pos, WalRecord* out) {
  const size_t start = *pos;
  if (buf.size() - start < kRecordHeaderBytes) return false;
  const char* p = buf.data() + start;
  const uint32_t len = GetU32Le(p);
  if (len > kMaxRecordPayload) return false;
  if (buf.size() - start < kRecordHeaderBytes + len) return false;
  const uint32_t crc = GetU32Le(p + 4);
  // The CRC-covered region (lsn + type + payload) sits contiguously
  // after the 8-byte (len, crc) prefix.
  if (Crc32(p + 8, 9 + len) != crc) return false;
  out->lsn = GetU64Le(p + 8);
  out->type = static_cast<RecordType>(static_cast<unsigned char>(p[16]));
  out->payload.assign(p + kRecordHeaderBytes, len);
  *pos = start + kRecordHeaderBytes + len;
  return true;
}

// ---------------------------------------------------------------------------
// Segment naming
// ---------------------------------------------------------------------------

std::string SegmentPath(const std::string& base_path, uint64_t seq) {
  if (seq == 0) return base_path;
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, ".%06llu",
                static_cast<unsigned long long>(seq));
  return base_path + suffix;
}

uint64_t SegmentSeq(const std::string& base_path,
                    const std::string& segment_path) {
  if (segment_path.size() <= base_path.size() + 1) return 0;
  return std::strtoull(segment_path.c_str() + base_path.size() + 1, nullptr,
                       10);
}

Result<std::vector<std::string>> ListSegments(const std::string& base_path) {
  // Split into directory + file prefix.
  std::string dir = ".";
  std::string prefix = base_path;
  if (size_t slash = base_path.rfind('/'); slash != std::string::npos) {
    dir = base_path.substr(0, slash);
    prefix = base_path.substr(slash + 1);
  }

  std::vector<std::pair<uint64_t, std::string>> found;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    // No directory at all means no WAL yet — not an error.
    return std::vector<std::string>{};
  }
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == prefix) {
      found.emplace_back(0, base_path);
      continue;
    }
    // "<prefix>.NNNNNN" with an all-digit suffix.
    if (name.size() <= prefix.size() + 1 ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name[prefix.size()] != '.') {
      continue;
    }
    const std::string suffix = name.substr(prefix.size() + 1);
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::strtoull(suffix.c_str(), nullptr, 10),
                       dir == "." ? name : dir + "/" + name);
  }
  ::closedir(d);

  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [seq, path] : found) out.push_back(std::move(path));
  return out;
}

Status SyncParentDir(const std::string& path) {
  std::string dir = ".";
  if (size_t slash = path.rfind('/'); slash != std::string::npos) {
    dir = path.substr(0, slash);
    if (dir.empty()) dir = "/";
  }
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open directory '" + dir +
                           "' for fsync: " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync of directory '" + dir +
                           "' failed: " + std::strerror(errno));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Checkpoint images
// ---------------------------------------------------------------------------

namespace {

/// Header payload prefix; a new layout gets a new version.
constexpr std::string_view kImageMagic = "EXODUS image v1\n";
constexpr char kImageTrailer = 'T';
/// Record categories in the only order an image may hold them.
constexpr std::string_view kImageCategoryOrder = "LHNT";

}  // namespace

Status ImageWriter::Begin(uint64_t cut_lsn) {
  std::string header(kImageMagic);
  PutU64Le(cut_lsn, &header);
  return WriteFrame(RecordType::kImage, header);
}

Status ImageWriter::Append(std::string_view record) {
  while (record.size() > max_frame_payload_) {
    EXODUS_RETURN_IF_ERROR(WriteFrame(RecordType::kImagePart,
                                      record.substr(0, max_frame_payload_)));
    record.remove_prefix(max_frame_payload_);
  }
  return WriteFrame(RecordType::kImage, record);
}

Status ImageWriter::WriteFrame(RecordType type, std::string_view payload) {
  frame_.clear();
  EncodeRecord(++frames_, type, payload, &frame_);
  if (std::fwrite(frame_.data(), 1, frame_.size(), out_) != frame_.size()) {
    return Status::IoError("cannot write image '" + name_ +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

Status ImageWriter::Finish() {
  std::string trailer(1, kImageTrailer);
  PutU64Le(frames_, &trailer);
  EXODUS_RETURN_IF_ERROR(WriteFrame(RecordType::kImage, trailer));
  if (std::fflush(out_) != 0) {
    return Status::IoError("cannot flush image '" + name_ +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

Status ImageReader::Error(const std::string& what) const {
  return Status::IoError("checkpoint image '" + name_ + "' at offset " +
                         std::to_string(offset_) + ": " + what);
}

Status ImageReader::ReadFrame(WalRecord* rec) {
  offset_ = next_offset_;
  frame_.resize(kRecordHeaderBytes);
  const size_t got = std::fread(frame_.data(), 1, kRecordHeaderBytes, in_);
  if (got != kRecordHeaderBytes) {
    if (std::ferror(in_)) return Error("read error");
    return Error(got == 0 ? "ends without a trailer" : "truncated frame");
  }
  // A first frame that is not an image header is another format (the
  // retired paged images began with a slotted page).
  if (frames_ == 0 && (GetU64Le(frame_.data() + 8) != 1 ||
                       frame_[16] != static_cast<char>(RecordType::kImage))) {
    return Error("unsupported image format");
  }
  const uint32_t len = GetU32Le(frame_.data());
  if (len > kMaxRecordPayload) {
    return Error("bad frame length " + std::to_string(len));
  }
  // Grow in chunks, so a corrupt length allocates no more than the
  // stream actually holds.
  while (frame_.size() < kRecordHeaderBytes + len) {
    const size_t have = frame_.size();
    const size_t chunk =
        std::min<size_t>(kRecordHeaderBytes + len - have, 1 << 16);
    frame_.resize(have + chunk);
    if (std::fread(frame_.data() + have, 1, chunk, in_) != chunk) {
      return Error(std::ferror(in_) ? "read error" : "truncated frame");
    }
  }
  size_t pos = 0;
  if (!DecodeRecord(frame_, &pos, rec)) return Error("CRC mismatch");
  if (rec->lsn != frames_ + 1) {
    return Error("frame sequence break: expected " +
                 std::to_string(frames_ + 1) + ", found " +
                 std::to_string(rec->lsn));
  }
  if (rec->type != RecordType::kImage && rec->type != RecordType::kImagePart) {
    return Error("not an image frame");
  }
  ++frames_;
  next_offset_ = offset_ + frame_.size();
  return Status::OK();
}

Result<uint64_t> ImageReader::Begin() {
  WalRecord header;
  EXODUS_RETURN_IF_ERROR(ReadFrame(&header));
  const std::string& p = header.payload;
  if (p.size() != kImageMagic.size() + 8 ||
      p.compare(0, kImageMagic.size(), kImageMagic) != 0) {
    return Error("unsupported image format");
  }
  return GetU64Le(p.data() + kImageMagic.size());
}

Result<bool> ImageReader::Next(WalRecord* rec) {
  EXODUS_RETURN_IF_ERROR(ReadFrame(rec));
  while (rec->type == RecordType::kImagePart) {
    EXODUS_RETURN_IF_ERROR(ReadFrame(&part_));
    rec->payload += part_.payload;
    rec->type = part_.type;
  }
  const std::string& p = rec->payload;
  const size_t rank = p.empty() ? std::string_view::npos
                                : kImageCategoryOrder.find(p[0]);
  if (rank == std::string_view::npos) {
    return Error("unknown record category");
  }
  if (rank < category_rank_) return Error("record category out of order");
  category_rank_ = rank;
  if (p[0] != kImageTrailer) return true;

  if (p.size() != 9 || GetU64Le(p.data() + 1) != frames_ - 1) {
    return Error("bad trailer");
  }
  if (std::fgetc(in_) != EOF) {
    offset_ = next_offset_;
    return Error("bytes after the trailer");
  }
  if (std::ferror(in_)) return Error("read error");
  return false;
}

}  // namespace exodus::wal
