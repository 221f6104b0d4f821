#ifndef EXODUS_SERVER_PROTOCOL_H_
#define EXODUS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "object/value.h"
#include "util/result.h"
#include "util/status.h"
#include "wal/wal_format.h"

/// The EXCESS wire protocol (see docs/server_protocol.md).
///
/// Every message is one length-prefixed frame:
///
///   uint32 payload_length (big-endian)  |  payload
///
/// where payload[0] is the message type and the rest is the typed body.
/// All integers are big-endian; strings are a uint32 byte length
/// followed by raw bytes; floats travel as IEEE-754 bit patterns.
///
/// The protocol is deliberately small: requests carry either statement
/// text or a prepared-statement handle plus scalar parameter values;
/// responses carry a status, a result table (column names + rows of
/// formatted cells), or an error with code and source position.
namespace exodus::server {

/// Protocol revision; sent by the client in HELLO and checked by the
/// server (a mismatch is a clean ERROR, not a hang). Version 2 added
/// WAL_TAIL and the durability/replica fields of StatsPayload; version
/// 3 added ACTIVITY (live session introspection).
constexpr uint8_t kProtocolVersion = 3;

/// Upper bound on a frame payload. Anything larger is treated as a
/// malformed frame and fails the connection without allocating.
constexpr uint32_t kMaxFramePayload = 16u << 20;  // 16 MiB

/// Upper bound on a WAL_SNAPSHOT reply: a checkpoint image travels as
/// one frame, which can legitimately exceed kMaxFramePayload. Only the
/// replication client reads frames under this larger cap.
constexpr uint32_t kMaxSnapshotPayload = 256u << 20;  // 256 MiB

enum class MsgType : uint8_t {
  // Requests (client -> server).
  kHello = 0x01,     // u8 version, string user
  kQuery = 0x02,     // string statement-or-program text
  kPrepare = 0x03,   // string statement text (may contain $n)
  kExecute = 0x04,   // u32 handle, u32 nparams, nparams * value
  kCloseStmt = 0x05, // u32 handle
  kStats = 0x06,     // (empty)
  kBye = 0x07,       // (empty)
  kMetrics = 0x08,   // (empty)
  kWalTail = 0x09,   // u64 after_lsn — see WalRecordsPayload
  kActivity = 0x0A,  // (empty) — see ActivityPayload

  // Responses (server -> client).
  kOk = 0x81,          // string message
  kRows = 0x82,        // result table, see RowsPayload
  kError = 0x83,       // u8 code, string message, u32 line, u32 column
  kPrepared = 0x84,    // u32 handle, u32 param_count
  kStatsReply = 0x85,  // see StatsPayload
  kMetricsReply = 0x86,  // string: Prometheus text exposition
  kWalSnapshotReply = 0x87,  // see WalSnapshotPayload (bootstrap)
  kWalRecordsReply = 0x88,   // see WalRecordsPayload (incremental)
  kActivityReply = 0x89,     // see ActivityPayload
};

/// True if `t` is one of the defined request types.
bool IsRequestType(uint8_t t);

// ---------------------------------------------------------------------------
// Body primitives
// ---------------------------------------------------------------------------

void PutU8(uint8_t v, std::string* out);
void PutU32(uint32_t v, std::string* out);
void PutU64(uint64_t v, std::string* out);
void PutI64(int64_t v, std::string* out);
void PutF64(double v, std::string* out);
void PutString(const std::string& s, std::string* out);

/// Sequential decoder over one frame body. Every getter fails with
/// InvalidArgument on truncated input instead of reading out of bounds,
/// so malformed frames surface as clean errors.
class WireReader {
 public:
  explicit WireReader(const std::string& buf, size_t pos = 0)
      : buf_(buf), pos_(pos) {}

  util::Result<uint8_t> U8();
  util::Result<uint32_t> U32();
  util::Result<uint64_t> U64();
  util::Result<int64_t> I64();
  util::Result<double> F64();
  util::Result<std::string> Str();
  /// A u32 element count, rejected when the bytes left in the frame
  /// cannot hold that many elements of at least `min_bytes_each` bytes —
  /// so a hostile count never drives an allocation.
  util::Result<uint32_t> Count(size_t min_bytes_each);

  bool AtEnd() const { return pos_ >= buf_.size(); }
  size_t pos() const { return pos_; }

 private:
  const std::string& buf_;
  size_t pos_;
};

// ---------------------------------------------------------------------------
// Scalar parameter values
// ---------------------------------------------------------------------------

/// Encodes a scalar Value (null / int / float / bool / string) for a
/// prepared-statement EXECUTE request. Composite values are rejected —
/// the wire protocol binds scalars only.
util::Status PutValue(const object::Value& v, std::string* out);

/// Decodes one scalar value written by PutValue.
util::Result<object::Value> GetValue(WireReader* r);

// ---------------------------------------------------------------------------
// Structured payloads
// ---------------------------------------------------------------------------

/// The RESULT table of a query: column names plus rows of cells already
/// formatted server-side (references resolved through the heap), the
/// statement message and the affected-row count.
struct RowsPayload {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  std::string message;
  uint64_t affected = 0;

  void EncodeTo(std::string* out) const;
  static util::Result<RowsPayload> Decode(WireReader* r);

  /// Plain-text rendering (mirrors QueryResult::ToString).
  std::string ToString() const;
};

/// An ERROR response: the util::StatusCode, the message, and the source
/// position when the message carries one (0 = unknown).
struct ErrorPayload {
  uint8_t code = 0;
  std::string message;
  uint32_t line = 0;
  uint32_t column = 0;

  void EncodeTo(std::string* out) const;
  static util::Result<ErrorPayload> Decode(WireReader* r);

  /// Rebuilds a util::Status carrying the original code and message.
  util::Status ToStatus() const;
  /// Builds the payload from a non-OK status, extracting "line L,
  /// column C" position info when present in the message.
  static ErrorPayload FromStatus(const util::Status& s);
};

/// The STATS response: aggregate server counters, latency percentiles
/// from the server's fixed histogram, the database plan-cache counters,
/// durability/replication state, and the requesting connection's own
/// counters.
struct StatsPayload {
  uint64_t connections_total = 0;
  uint64_t connections_active = 0;
  uint64_t queries_total = 0;
  uint64_t errors_total = 0;
  uint64_t p50_micros = 0;
  uint64_t p99_micros = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  uint64_t cache_evictions = 0;
  uint64_t connection_queries = 0;
  uint64_t connection_errors = 0;
  /// WAL position on a journaling primary (all zero when journaling is
  /// off): last staged LSN, last fsynced LSN, fsync count.
  uint64_t wal_last_lsn = 0;
  uint64_t wal_durable_lsn = 0;
  uint64_t wal_fsyncs_total = 0;
  /// 1 when the server is a read-only replica; then the apply position
  /// and its lag behind the primary's durable LSN, in records.
  uint64_t replica_mode = 0;
  uint64_t replica_applied_lsn = 0;
  uint64_t replica_lag_records = 0;

  void EncodeTo(std::string* out) const;
  static util::Result<StatsPayload> Decode(WireReader* r);

  std::string ToString() const;
};

/// A WAL_SNAPSHOT response: bootstrap for a replica whose position
/// predates the primary's retained WAL. The image is a complete
/// checkpoint (Database::Save format) subsuming every record with LSN
/// at or below `snapshot_lsn`; the replica loads it, then tails from
/// `snapshot_lsn`.
struct WalSnapshotPayload {
  uint64_t snapshot_lsn = 0;
  std::string image;

  void EncodeTo(std::string* out) const;
  static util::Result<WalSnapshotPayload> Decode(WireReader* r);
};

/// A WAL_RECORDS response: the batch of durable journal records after
/// the requested LSN (possibly empty — the replica is caught up), plus
/// the primary's current durable LSN so the replica can compute lag.
struct WalRecordsPayload {
  uint64_t primary_durable_lsn = 0;
  std::vector<wal::WalRecord> records;

  void EncodeTo(std::string* out) const;
  static util::Result<WalRecordsPayload> Decode(WireReader* r);
};

/// The ACTIVITY response (protocol v3): one entry per live session —
/// pg_stat_activity for EXODUS. Phase and wait travel as their label
/// strings, so old clients render entries from newer servers without
/// knowing the enum.
struct ActivityPayload {
  struct Entry {
    uint64_t session_id = 0;
    std::string user;
    uint8_t active = 0;
    uint64_t query_id = 0;
    std::string statement;  ///< truncated server-side
    uint64_t elapsed_us = 0;
    std::string phase;  ///< "idle" | "parse" | "bind" | "optimize" | "execute"
    std::string wait;   ///< current wait-event name, "" when running
    uint64_t rows = 0;
    uint64_t batches = 0;
    uint64_t morsels_done = 0;
    uint64_t morsels_total = 0;
  };
  std::vector<Entry> entries;

  void EncodeTo(std::string* out) const;
  static util::Result<ActivityPayload> Decode(WireReader* r);

  /// Plain-text rendering (one block per session, `\activity`).
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Frame I/O over a connected socket
// ---------------------------------------------------------------------------

struct Frame {
  MsgType type;
  std::string body;
};

/// Writes one frame (length prefix + type byte + body). Fails with
/// IoError if the peer is gone.
util::Status WriteFrame(int fd, MsgType type, const std::string& body);

/// Reads one frame. A clean EOF before any byte yields NotFound (the
/// peer hung up between requests); anything else short or oversized is
/// IoError / InvalidArgument.
util::Result<Frame> ReadFrame(int fd,
                              uint32_t max_payload = kMaxFramePayload);

}  // namespace exodus::server

#endif  // EXODUS_SERVER_PROTOCOL_H_
