#include "server/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace exodus::server {

using object::Value;
using object::ValueKind;
using util::Result;
using util::Status;

bool IsRequestType(uint8_t t) {
  return t >= static_cast<uint8_t>(MsgType::kHello) &&
         t <= static_cast<uint8_t>(MsgType::kActivity);
}

// ---------------------------------------------------------------------------
// Body primitives
// ---------------------------------------------------------------------------

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

void PutF64(double v, std::string* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

void PutString(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

Result<uint8_t> WireReader::U8() {
  if (pos_ + 1 > buf_.size()) {
    return Status::InvalidArgument("truncated frame: expected u8");
  }
  return static_cast<uint8_t>(buf_[pos_++]);
}

Result<uint32_t> WireReader::U32() {
  if (pos_ + 4 > buf_.size()) {
    return Status::InvalidArgument("truncated frame: expected u32");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | static_cast<uint8_t>(buf_[pos_++]);
  }
  return v;
}

Result<uint64_t> WireReader::U64() {
  if (pos_ + 8 > buf_.size()) {
    return Status::InvalidArgument("truncated frame: expected u64");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<uint8_t>(buf_[pos_++]);
  }
  return v;
}

Result<int64_t> WireReader::I64() {
  EXODUS_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> WireReader::F64() {
  EXODUS_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> WireReader::Str() {
  EXODUS_ASSIGN_OR_RETURN(uint32_t len, U32());
  if (pos_ + len > buf_.size()) {
    return Status::InvalidArgument("truncated frame: string length " +
                                   std::to_string(len) +
                                   " exceeds remaining payload");
  }
  std::string s = buf_.substr(pos_, len);
  pos_ += len;
  return s;
}

Result<uint32_t> WireReader::Count(size_t min_bytes_each) {
  EXODUS_ASSIGN_OR_RETURN(uint32_t n, U32());
  if (n > (buf_.size() - pos_) / min_bytes_each) {
    return Status::InvalidArgument("truncated frame: count " +
                                   std::to_string(n) +
                                   " exceeds remaining payload");
  }
  return n;
}

// ---------------------------------------------------------------------------
// Scalar parameter values
// ---------------------------------------------------------------------------

namespace {

enum : uint8_t {
  kValNull = 0,
  kValInt = 1,
  kValFloat = 2,
  kValBool = 3,
  kValString = 4,
};

}  // namespace

Status PutValue(const Value& v, std::string* out) {
  switch (v.kind()) {
    case ValueKind::kNull:
      PutU8(kValNull, out);
      return Status::OK();
    case ValueKind::kInt:
      PutU8(kValInt, out);
      PutI64(v.AsInt(), out);
      return Status::OK();
    case ValueKind::kFloat:
      PutU8(kValFloat, out);
      PutF64(v.AsFloat(), out);
      return Status::OK();
    case ValueKind::kBool:
      PutU8(kValBool, out);
      PutU8(v.AsBool() ? 1 : 0, out);
      return Status::OK();
    case ValueKind::kString:
      PutU8(kValString, out);
      PutString(v.AsString(), out);
      return Status::OK();
    default:
      return Status::InvalidArgument(
          "only scalar parameter values (null/int/float/bool/string) can "
          "travel on the wire");
  }
}

Result<Value> GetValue(WireReader* r) {
  EXODUS_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  switch (tag) {
    case kValNull:
      return Value::Null();
    case kValInt: {
      EXODUS_ASSIGN_OR_RETURN(int64_t v, r->I64());
      return Value::Int(v);
    }
    case kValFloat: {
      EXODUS_ASSIGN_OR_RETURN(double v, r->F64());
      return Value::Float(v);
    }
    case kValBool: {
      EXODUS_ASSIGN_OR_RETURN(uint8_t v, r->U8());
      return Value::Bool(v != 0);
    }
    case kValString: {
      EXODUS_ASSIGN_OR_RETURN(std::string v, r->Str());
      return Value::String(std::move(v));
    }
    default:
      return Status::InvalidArgument("unknown wire value tag " +
                                     std::to_string(tag));
  }
}

// ---------------------------------------------------------------------------
// RowsPayload
// ---------------------------------------------------------------------------

void RowsPayload::EncodeTo(std::string* out) const {
  PutU32(static_cast<uint32_t>(columns.size()), out);
  for (const std::string& c : columns) PutString(c, out);
  PutU32(static_cast<uint32_t>(rows.size()), out);
  for (const auto& row : rows) {
    PutU32(static_cast<uint32_t>(row.size()), out);
    for (const std::string& cell : row) PutString(cell, out);
  }
  PutString(message, out);
  PutU64(affected, out);
}

Result<RowsPayload> RowsPayload::Decode(WireReader* r) {
  RowsPayload p;
  EXODUS_ASSIGN_OR_RETURN(uint32_t ncols, r->Count(4));
  p.columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    EXODUS_ASSIGN_OR_RETURN(std::string c, r->Str());
    p.columns.push_back(std::move(c));
  }
  EXODUS_ASSIGN_OR_RETURN(uint32_t nrows, r->Count(4));
  p.rows.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    EXODUS_ASSIGN_OR_RETURN(uint32_t ncells, r->Count(4));
    std::vector<std::string> row;
    row.reserve(ncells);
    for (uint32_t j = 0; j < ncells; ++j) {
      EXODUS_ASSIGN_OR_RETURN(std::string cell, r->Str());
      row.push_back(std::move(cell));
    }
    p.rows.push_back(std::move(row));
  }
  EXODUS_ASSIGN_OR_RETURN(p.message, r->Str());
  EXODUS_ASSIGN_OR_RETURN(p.affected, r->U64());
  return p;
}

std::string RowsPayload::ToString() const {
  std::string out;
  if (!columns.empty()) {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i > 0) out += " | ";
      out += columns[i];
    }
    out += "\n";
    for (const auto& row : rows) {
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) out += " | ";
        out += row[i];
      }
      out += "\n";
    }
  }
  if (!message.empty()) {
    out += message;
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// ErrorPayload
// ---------------------------------------------------------------------------

void ErrorPayload::EncodeTo(std::string* out) const {
  PutU8(code, out);
  PutString(message, out);
  PutU32(line, out);
  PutU32(column, out);
}

Result<ErrorPayload> ErrorPayload::Decode(WireReader* r) {
  ErrorPayload p;
  EXODUS_ASSIGN_OR_RETURN(p.code, r->U8());
  EXODUS_ASSIGN_OR_RETURN(p.message, r->Str());
  EXODUS_ASSIGN_OR_RETURN(p.line, r->U32());
  EXODUS_ASSIGN_OR_RETURN(p.column, r->U32());
  return p;
}

Status ErrorPayload::ToStatus() const {
  util::StatusCode sc = static_cast<util::StatusCode>(code);
  if (sc == util::StatusCode::kOk) sc = util::StatusCode::kInternal;
  return Status(sc, message);
}

ErrorPayload ErrorPayload::FromStatus(const Status& s) {
  ErrorPayload p;
  p.code = static_cast<uint8_t>(s.code());
  p.message = s.message();
  // Parser errors carry "... at line L, column C"; surface the position
  // as structured fields so clients can point at the offending token.
  const std::string& m = p.message;
  size_t at = m.rfind("line ");
  if (at != std::string::npos) {
    const char* cp = m.c_str() + at + 5;
    char* end = nullptr;
    unsigned long line = std::strtoul(cp, &end, 10);
    if (end != cp && line > 0) {
      size_t col_at = m.find("column ", static_cast<size_t>(end - m.c_str()));
      if (col_at != std::string::npos) {
        const char* cc = m.c_str() + col_at + 7;
        char* cend = nullptr;
        unsigned long col = std::strtoul(cc, &cend, 10);
        if (cend != cc && col > 0) {
          p.line = static_cast<uint32_t>(line);
          p.column = static_cast<uint32_t>(col);
        }
      }
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// StatsPayload
// ---------------------------------------------------------------------------

void StatsPayload::EncodeTo(std::string* out) const {
  PutU64(connections_total, out);
  PutU64(connections_active, out);
  PutU64(queries_total, out);
  PutU64(errors_total, out);
  PutU64(p50_micros, out);
  PutU64(p99_micros, out);
  PutU64(cache_hits, out);
  PutU64(cache_misses, out);
  PutU64(cache_invalidations, out);
  PutU64(cache_evictions, out);
  PutU64(connection_queries, out);
  PutU64(connection_errors, out);
  PutU64(wal_last_lsn, out);
  PutU64(wal_durable_lsn, out);
  PutU64(wal_fsyncs_total, out);
  PutU64(replica_mode, out);
  PutU64(replica_applied_lsn, out);
  PutU64(replica_lag_records, out);
}

Result<StatsPayload> StatsPayload::Decode(WireReader* r) {
  StatsPayload p;
  EXODUS_ASSIGN_OR_RETURN(p.connections_total, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.connections_active, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.queries_total, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.errors_total, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.p50_micros, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.p99_micros, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.cache_hits, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.cache_misses, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.cache_invalidations, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.cache_evictions, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.connection_queries, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.connection_errors, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.wal_last_lsn, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.wal_durable_lsn, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.wal_fsyncs_total, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.replica_mode, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.replica_applied_lsn, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.replica_lag_records, r->U64());
  return p;
}

std::string StatsPayload::ToString() const {
  std::string out;
  out += "server: " + std::to_string(connections_active) + " active / " +
         std::to_string(connections_total) + " total connection(s), " +
         std::to_string(queries_total) + " quer(ies), " +
         std::to_string(errors_total) + " error(s)\n";
  out += "latency: p50 " + std::to_string(p50_micros) + "us, p99 " +
         std::to_string(p99_micros) + "us\n";
  out += "plan cache: " + std::to_string(cache_hits) + " hit(s), " +
         std::to_string(cache_misses) + " miss(es), " +
         std::to_string(cache_invalidations) + " invalidation(s), " +
         std::to_string(cache_evictions) + " eviction(s)\n";
  if (wal_last_lsn > 0 || wal_fsyncs_total > 0) {
    out += "durability: wal last " + std::to_string(wal_last_lsn) +
           ", durable " + std::to_string(wal_durable_lsn) + ", " +
           std::to_string(wal_fsyncs_total) + " fsync(s)\n";
  }
  if (replica_mode != 0) {
    out += "replica: applied lsn " + std::to_string(replica_applied_lsn) +
           ", lag " + std::to_string(replica_lag_records) + " record(s)\n";
  }
  out += "this connection: " + std::to_string(connection_queries) +
         " quer(ies), " + std::to_string(connection_errors) + " error(s)\n";
  return out;
}

// ---------------------------------------------------------------------------
// WAL replication payloads
// ---------------------------------------------------------------------------

void WalSnapshotPayload::EncodeTo(std::string* out) const {
  PutU64(snapshot_lsn, out);
  PutString(image, out);
}

Result<WalSnapshotPayload> WalSnapshotPayload::Decode(WireReader* r) {
  WalSnapshotPayload p;
  EXODUS_ASSIGN_OR_RETURN(p.snapshot_lsn, r->U64());
  EXODUS_ASSIGN_OR_RETURN(p.image, r->Str());
  return p;
}

void WalRecordsPayload::EncodeTo(std::string* out) const {
  PutU64(primary_durable_lsn, out);
  PutU32(static_cast<uint32_t>(records.size()), out);
  for (const wal::WalRecord& rec : records) {
    PutU64(rec.lsn, out);
    PutU8(static_cast<uint8_t>(rec.type), out);
    PutString(rec.payload, out);
  }
}

Result<WalRecordsPayload> WalRecordsPayload::Decode(WireReader* r) {
  WalRecordsPayload p;
  EXODUS_ASSIGN_OR_RETURN(p.primary_durable_lsn, r->U64());
  // lsn, type, payload length.
  EXODUS_ASSIGN_OR_RETURN(uint32_t count, r->Count(8 + 1 + 4));
  p.records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    wal::WalRecord rec;
    EXODUS_ASSIGN_OR_RETURN(rec.lsn, r->U64());
    EXODUS_ASSIGN_OR_RETURN(uint8_t type, r->U8());
    rec.type = static_cast<wal::RecordType>(type);
    EXODUS_ASSIGN_OR_RETURN(rec.payload, r->Str());
    p.records.push_back(std::move(rec));
  }
  return p;
}

void ActivityPayload::EncodeTo(std::string* out) const {
  PutU32(static_cast<uint32_t>(entries.size()), out);
  for (const Entry& e : entries) {
    PutU64(e.session_id, out);
    PutString(e.user, out);
    PutU8(e.active, out);
    PutU64(e.query_id, out);
    PutString(e.statement, out);
    PutU64(e.elapsed_us, out);
    PutString(e.phase, out);
    PutString(e.wait, out);
    PutU64(e.rows, out);
    PutU64(e.batches, out);
    PutU64(e.morsels_done, out);
    PutU64(e.morsels_total, out);
  }
}

Result<ActivityPayload> ActivityPayload::Decode(WireReader* r) {
  ActivityPayload p;
  // Seven u64s, one u8 and four string lengths.
  EXODUS_ASSIGN_OR_RETURN(uint32_t count, r->Count(7 * 8 + 1 + 4 * 4));
  p.entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Entry e;
    EXODUS_ASSIGN_OR_RETURN(e.session_id, r->U64());
    EXODUS_ASSIGN_OR_RETURN(e.user, r->Str());
    EXODUS_ASSIGN_OR_RETURN(e.active, r->U8());
    EXODUS_ASSIGN_OR_RETURN(e.query_id, r->U64());
    EXODUS_ASSIGN_OR_RETURN(e.statement, r->Str());
    EXODUS_ASSIGN_OR_RETURN(e.elapsed_us, r->U64());
    EXODUS_ASSIGN_OR_RETURN(e.phase, r->Str());
    EXODUS_ASSIGN_OR_RETURN(e.wait, r->Str());
    EXODUS_ASSIGN_OR_RETURN(e.rows, r->U64());
    EXODUS_ASSIGN_OR_RETURN(e.batches, r->U64());
    EXODUS_ASSIGN_OR_RETURN(e.morsels_done, r->U64());
    EXODUS_ASSIGN_OR_RETURN(e.morsels_total, r->U64());
    p.entries.push_back(std::move(e));
  }
  return p;
}

std::string ActivityPayload::ToString() const {
  if (entries.empty()) return "no sessions\n";
  std::string out;
  for (const Entry& e : entries) {
    out += "session " + std::to_string(e.session_id) + " [" + e.user + "] " +
           (e.active != 0 ? "active" : "idle");
    if (e.active == 0 && e.statement.empty()) {
      out += "\n";
      continue;
    }
    out += " #" + std::to_string(e.query_id);
    if (e.active != 0) {
      out += " " + std::to_string(e.elapsed_us) + "us";
      out += " phase=" + e.phase;
      if (!e.wait.empty()) out += " wait=" + e.wait;
    }
    out += " rows=" + std::to_string(e.rows);
    if (e.morsels_total > 0) {
      out += " morsels=" + std::to_string(e.morsels_done) + "/" +
             std::to_string(e.morsels_total);
    }
    if (!e.statement.empty()) out += "\n  " + e.statement;
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

namespace {

/// Writes all of buf, retrying on EINTR / partial writes. MSG_NOSIGNAL
/// turns a dead peer into EPIPE instead of killing the process.
Status WriteFully(int fd, const char* buf, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd, buf + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) return Status::IoError("send wrote nothing");
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly len bytes. `*clean_eof` is set when the peer closed
/// before the first byte.
Status ReadFully(int fd, char* buf, size_t len, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::recv(fd, buf + off, len - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      if (off == 0 && clean_eof != nullptr) *clean_eof = true;
      return Status::IoError("peer closed connection mid-frame");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, MsgType type, const std::string& body) {
  std::string frame;
  frame.reserve(5 + body.size());
  PutU32(static_cast<uint32_t>(body.size() + 1), &frame);
  PutU8(static_cast<uint8_t>(type), &frame);
  frame.append(body);
  return WriteFully(fd, frame.data(), frame.size());
}

Result<Frame> ReadFrame(int fd, uint32_t max_payload) {
  char header[4];
  bool clean_eof = false;
  Status st = ReadFully(fd, header, sizeof(header), &clean_eof);
  if (!st.ok()) {
    if (clean_eof) return Status::NotFound("peer disconnected");
    return st;
  }
  uint32_t len = 0;
  for (char c : header) len = (len << 8) | static_cast<uint8_t>(c);
  if (len == 0) {
    return Status::InvalidArgument("malformed frame: empty payload");
  }
  if (len > max_payload) {
    return Status::InvalidArgument("malformed frame: payload of " +
                                   std::to_string(len) +
                                   " bytes exceeds the protocol maximum");
  }
  std::string payload(len, '\0');
  EXODUS_RETURN_IF_ERROR(ReadFully(fd, payload.data(), len, nullptr));
  Frame f;
  f.type = static_cast<MsgType>(static_cast<uint8_t>(payload[0]));
  f.body = payload.substr(1);
  return f;
}

}  // namespace exodus::server
