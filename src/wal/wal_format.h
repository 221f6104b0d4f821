#ifndef EXODUS_WAL_WAL_FORMAT_H_
#define EXODUS_WAL_WAL_FORMAT_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace exodus::wal {

/// The write-ahead log record format (docs/durability.md).
///
/// A WAL is a sequence of *segment* files. Segment 0 is the base path
/// itself (so a single-segment WAL is one ordinary file, as the legacy
/// logical journal was); rotated segments append a numeric suffix:
///
///   journal.log  journal.log.000001  journal.log.000002  ...
///
/// Each segment is a flat run of CRC-framed records:
///
///   +-----------+-----------+-----------+---------+----------------+
///   | u32 len   | u32 crc32 | u64 lsn   | u8 type | payload (len)  |
///   +-----------+-----------+-----------+---------+----------------+
///
/// All header integers are little-endian. `crc32` covers the lsn, the
/// type byte and the payload, so any torn or bit-flipped record fails
/// verification. LSNs are assigned sequentially starting at 1 and run
/// continuously across segment boundaries; a record whose LSN breaks
/// the sequence is treated as corruption.
///
/// Durability of the *file format* is torn-tail tolerant: a crash can
/// leave at most one partial record at the end of the newest segment,
/// which readers silently discard (the statement it framed was never
/// acknowledged). Corruption anywhere else is an error, not a silent
/// truncation.

/// What a WAL record frames.
enum class RecordType : uint8_t {
  /// One replayable EXCESS statement (UTF-8 text payload).
  kStatement = 1,
  /// One frame of a checkpoint image (below); never in a WAL.
  kImage = 2,
  /// A leading piece of a checkpoint-image record too large for one
  /// frame; the record continues in the next frame. Never in a WAL.
  kImagePart = 3,
};

/// Fixed per-record header size: len + crc + lsn + type.
constexpr size_t kRecordHeaderBytes = 4 + 4 + 8 + 1;

/// Sanity cap on one record's payload; anything larger in a header
/// means the stream is corrupt. Larger image records are split across
/// frames (kImagePart).
constexpr uint32_t kMaxRecordPayload = 64u << 20;  // 64 MiB

/// One decoded WAL record.
struct WalRecord {
  uint64_t lsn = 0;
  RecordType type = RecordType::kStatement;
  std::string payload;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `data`, seeded so
/// that crc of the empty string is 0. Chainable: passing the CRC of a
/// prefix as `seed` continues it, so
/// Crc32(b, nb, Crc32(a, na)) == Crc32(a ++ b). Slicing-by-8 tables,
/// no dependencies.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// Appends the on-disk encoding of one record to `out`.
void EncodeRecord(uint64_t lsn, RecordType type, std::string_view payload,
                  std::string* out);

/// Attempts to decode one record from `buf` at `*pos`.
///
/// Returns true and advances `*pos` past the record when a complete,
/// CRC-valid record is present. Returns false — leaving `*pos` at the
/// record start — when the bytes from `*pos` do not form a valid
/// record, whether truncated (torn tail) or corrupt; callers decide
/// which of the two it is from context (tail of the newest segment vs
/// anywhere else).
bool DecodeRecord(const std::string& buf, size_t* pos, WalRecord* out);

/// The path of segment `seq` of the WAL at `base_path` (seq 0 is the
/// base path itself).
std::string SegmentPath(const std::string& base_path, uint64_t seq);

/// Lists the existing segment files of the WAL at `base_path`, ordered
/// by sequence number. Missing low segments (dropped by checkpoints)
/// are fine; the result may be empty when no WAL exists yet.
util::Result<std::vector<std::string>> ListSegments(
    const std::string& base_path);

/// The sequence number encoded in a segment path (0 for the base path).
uint64_t SegmentSeq(const std::string& base_path,
                    const std::string& segment_path);

/// fsync() of the directory containing `path`, making a just-created,
/// renamed or unlinked directory entry durable.
util::Status SyncParentDir(const std::string& path);

/// A checkpoint image (docs/durability.md) is a run of kImage records
/// whose lsn is the frame's sequence number, from 1: a header
/// (magic/version + u64 WAL cut LSN), then records led by a category
/// byte — all kImageDdl, then kImageHeap, then kImageNamed — then a
/// trailer ('T' + u64 count of the frames before it). A record larger
/// than one frame holds is written as kImagePart frames ending in one
/// kImage frame, so records of any size round-trip. An image is
/// renamed into place only once complete, so unlike a WAL its reader
/// has no torn-tail tolerance: every bad frame is an error.
inline constexpr char kImageDdl = 'L';
inline constexpr char kImageHeap = 'H';
inline constexpr char kImageNamed = 'N';

/// Streams an image's frames to `out` (owned by the caller).
class ImageWriter {
 public:
  /// `max_frame_payload` (at most kMaxRecordPayload) bounds each
  /// frame; records above it are split.
  ImageWriter(std::FILE* out, std::string name,
              size_t max_frame_payload = kMaxRecordPayload)
      : out_(out),
        name_(std::move(name)),
        max_frame_payload_(
            std::clamp<size_t>(max_frame_payload, 1, kMaxRecordPayload)) {}

  /// Writes the header: the image subsumes WAL records <= `cut_lsn`.
  util::Status Begin(uint64_t cut_lsn);
  /// Writes one record, in as many frames as its size needs.
  util::Status Append(std::string_view record);
  /// Writes the trailer and flushes `out`.
  util::Status Finish();

 private:
  util::Status WriteFrame(RecordType type, std::string_view payload);

  std::FILE* out_;
  std::string name_;
  size_t max_frame_payload_;
  uint64_t frames_ = 0;
  std::string frame_;  ///< Reused encode buffer.
};

/// Reads an image back from `in` (owned by the caller), checking every
/// frame as it streams through one reused buffer.
class ImageReader {
 public:
  ImageReader(std::FILE* in, std::string name)
      : in_(in), name_(std::move(name)) {}

  /// Reads the header; returns the WAL cut LSN.
  util::Result<uint64_t> Begin();
  /// Reads the next record into `rec->payload`, joining a split
  /// record's frames. Returns false once the trailer has been checked
  /// and found to end the stream.
  util::Result<bool> Next(WalRecord* rec);
  /// An IoError naming the image and the offset of the frame last read.
  util::Status Error(const std::string& what) const;

 private:
  util::Status ReadFrame(WalRecord* rec);

  std::FILE* in_;
  std::string name_;
  uint64_t offset_ = 0;       ///< Start of the frame last read.
  uint64_t next_offset_ = 0;  ///< Start of the next frame.
  uint64_t frames_ = 0;
  size_t category_rank_ = 0;
  std::string frame_;  ///< Reused read buffer.
  WalRecord part_;     ///< Reused buffer for the frames of a split record.
};

}  // namespace exodus::wal

#endif  // EXODUS_WAL_WAL_FORMAT_H_
