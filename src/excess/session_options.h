#ifndef EXODUS_EXCESS_SESSION_OPTIONS_H_
#define EXODUS_EXCESS_SESSION_OPTIONS_H_

#include <cstdlib>
#include <string>

#include "util/status.h"
#include "wal/durability.h"

namespace exodus::excess {

/// How a session's statements interact with concurrent statements.
enum class IsolationMode {
  /// MVCC snapshot isolation (the default): plain retrieves pin a
  /// snapshot epoch and run lock-free against object versions visible
  /// at that epoch; eligible mutations copy-on-write under a
  /// per-extent latch and publish atomically at commit. DDL and
  /// non-extent mutations still take the short exclusive section.
  kSnapshot,
  /// The legacy database-wide reader/writer lock: every mutation runs
  /// exclusively and mutates in place. Kept as the differential oracle
  /// for parity tests and as an escape hatch.
  kLocked,
};

/// All per-session execution knobs in one value object: optimizer rule
/// switches, executor (batch) knobs and the concurrency mode — seeded
/// from the environment in one place (FromEnv), validated in one place
/// (Validate) and fingerprinted into Session::CacheKey in one place
/// (Fingerprint).
struct SessionOptions {
  static constexpr int kDefaultBatchSize = 1024;
  /// Upper bound on rows per batch; larger requests are clamped so a
  /// pipeline's scratch columns stay cache-resident.
  static constexpr int kMaxBatchSize = 4096;

  // --- optimizer rule switches (ablation hooks, EXPERIMENTS.md B11) ---
  /// Attach conjuncts at the earliest loop level (off: all predicates
  /// are evaluated only at the innermost level).
  bool predicate_pushdown = true;
  /// Greedy variable ordering by access quality and cardinality (off:
  /// binder order, honoring only dependency constraints).
  bool join_reordering = true;
  /// Access-path selection through secondary indexes (off: always scan).
  bool use_indexes = true;
  /// Hash-based equi-joins (off: nested loop).
  bool hash_join = true;

  // --- executor knobs ---
  /// Rows per RowBatch. Values < 1 are rejected at execution time;
  /// values above kMaxBatchSize are clamped (the clamp is surfaced in
  /// `\explain` output and logged once per process).
  int batch_size = kDefaultBatchSize;
  /// Worker threads for morsel-driven intra-query parallelism. 0 (the
  /// default) resolves to hardware concurrency at execution time; 1
  /// pins the serial batch path — the differential oracle for the
  /// parallel executor. Values < 0 are rejected at execution time.
  int exec_threads = 0;

  // --- concurrency ---
  IsolationMode isolation = IsolationMode::kSnapshot;

  // --- durability ---
  /// When a journaled statement's WAL append is considered committed:
  /// sync (fdatasync inline), group (share the flusher's next fsync;
  /// the default) or async (ack once staged). Only meaningful when the
  /// database journals (Database::EnableJournal).
  wal::Durability durability = wal::Durability::kGroup;

  /// Reads EXODUS_BATCH_SIZE, EXODUS_EXEC_THREADS, EXODUS_ISOLATION (locked/snapshot) and
  /// EXODUS_DURABILITY (sync/group/async). A non-numeric
  /// EXODUS_BATCH_SIZE / EXODUS_EXEC_THREADS is ignored; numeric
  /// values are taken verbatim (including invalid ones, which
  /// execution rejects with a clear error rather than silently
  /// correcting).
  static SessionOptions FromEnv() {
    SessionOptions o;
    if (const char* b = std::getenv("EXODUS_BATCH_SIZE")) {
      char* end = nullptr;
      long n = std::strtol(b, &end, 10);
      if (end != b && *end == '\0') o.batch_size = static_cast<int>(n);
    }
    if (const char* t = std::getenv("EXODUS_EXEC_THREADS")) {
      char* end = nullptr;
      long n = std::strtol(t, &end, 10);
      if (end != t && *end == '\0') o.exec_threads = static_cast<int>(n);
    }
    if (const char* i = std::getenv("EXODUS_ISOLATION")) {
      const std::string mode(i);
      if (mode == "locked") o.isolation = IsolationMode::kLocked;
      else if (mode == "snapshot") o.isolation = IsolationMode::kSnapshot;
    }
    if (const char* d = std::getenv("EXODUS_DURABILITY")) {
      wal::ParseDurability(d, &o.durability);  // unknown names keep default
    }
    return o;
  }

  /// The validity rules options carry, checked when a plan runs so a
  /// bad `set batchsize` fails the statement, not the setter.
  util::Status Validate() const {
    if (batch_size < 1) {
      return util::Status::OutOfRange("batch_size must be >= 1 (got " +
                                      std::to_string(batch_size) + ")");
    }
    if (exec_threads < 0) {
      return util::Status::OutOfRange(
          "exec_threads must be >= 0 (got " +
          std::to_string(exec_threads) + ")");
    }
    return util::Status::OK();
  }

  /// Deterministic encoding of every option that may change a plan or
  /// the prepared state cached alongside it — the single options
  /// contributor to Session::CacheKey.
  std::string Fingerprint() const {
    std::string f;
    f += static_cast<char>('0' + ((predicate_pushdown ? 1 : 0) |
                                  (join_reordering ? 2 : 0) |
                                  (use_indexes ? 4 : 0) |
                                  (hash_join ? 8 : 0)));
    f += ':';
    f += std::to_string(batch_size);
    f += isolation == IsolationMode::kSnapshot ? ":s" : ":l";
    f += ":t";
    f += std::to_string(exec_threads);
    // `durability` is deliberately NOT fingerprinted: it changes when a
    // commit is acknowledged, never the plan tree or prepared state, so
    // sessions with different durability share cached plans.
    return f;
  }
};

}  // namespace exodus::excess

#endif  // EXODUS_EXCESS_SESSION_OPTIONS_H_
