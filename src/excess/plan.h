#ifndef EXODUS_EXCESS_PLAN_H_
#define EXODUS_EXCESS_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "excess/ast.h"
#include "excess/binder.h"
#include "object/value.h"

namespace exodus::excess {

/// The unit of data flow in the batch executor: a window of
/// binding rows in columnar layout. cols[k] holds the values bound to
/// the k-th plan step's variable, one entry per row, so per-expression
/// work runs as tight loops over flat Value arrays instead of
/// name-resolving through a binding stack row by row.
struct RowBatch {
  size_t rows = 0;
  /// One column per already-bound plan step (cols.size() == the depth of
  /// the pipeline that produced this batch); every column has exactly
  /// `rows` entries.
  std::vector<std::vector<object::Value>> cols;

  void Clear() {
    rows = 0;
    for (auto& c : cols) c.clear();
  }
};

/// One level of the nested-loop pipeline. Steps run outermost-first;
/// step i may reference variables bound by steps 0..i-1.
struct PlanStep {
  enum class Kind {
    kScan,       // full scan of a named collection
    kIndexScan,  // index-assisted access to a named collection
    kUnnest,     // iterate a range expression (nested set / array / path)
    kHashJoin,   // build a hash table over the step's collection once,
                 // probe it with key expressions over earlier steps
  };

  Kind kind = Kind::kUnnest;
  int var_id = 0;
  std::string var_name;

  // kScan / kIndexScan / kHashJoin (build side is a named collection)
  std::string named_collection;

  // kIndexScan
  std::string index_name;
  /// "=", "<", "<=", ">", ">=" — the predicate the index satisfies.
  std::string key_op;
  /// Key expression, evaluated in the environment of earlier steps.
  ExprPtr key;

  // kUnnest / kHashJoin (build side is a variable-free range expression)
  ExprPtr range;

  // kHashJoin: the consumed equality conjuncts, split by side. Parallel
  // vectors: build_keys[i] references only this step's variable,
  // probe_keys[i] is evaluated in the environment of earlier steps. A
  // row joins when every pair compares equal under '=' semantics (NULL
  // keys never join; int/float compare numerically).
  std::vector<ExprPtr> build_keys;
  std::vector<ExprPtr> probe_keys;

  /// Conjuncts that become checkable once this step's variable is bound.
  std::vector<ExprPtr> filters;

  std::string Describe() const;
};

/// Runtime actuals of one plan step during one execution. Row counters
/// are exact; wall time is sampled (every batch while the step has
/// expanded fewer than kTimingSampleEvery batches, then one in
/// kTimingSampleEvery) and extrapolated, keeping the always-on
/// instrumentation cost to a few clock reads per thousand rows.
struct StepRuntime {
  /// One-in-N batch timing sample rate (power of two).
  static constexpr uint64_t kTimingSampleEvery = 64;

  /// Times the step was entered (= surviving rows of the outer steps;
  /// 1 for the outermost step).
  uint64_t invocations = 0;
  /// Elements considered: scanned/unnested elements, index postings,
  /// hash-bucket candidates probed.
  uint64_t rows_examined = 0;
  /// Rows that passed this step's filters and were handed to the next
  /// step (or to the output row for the innermost step).
  uint64_t rows_produced = 0;
  /// kHashJoin: rows inserted into the build table (once per execution).
  uint64_t build_rows = 0;
  /// kHashJoin: probe matches confirmed by key equality.
  uint64_t probe_hits = 0;
  /// RowBatch windows this step expanded. Each batch accounts for
  /// `rows` invocations at once, so `invocations` counts parent rows.
  uint64_t batches = 0;
  /// Sampled inclusive wall time (this step plus everything nested
  /// under it) and the number of invocations that were actually timed.
  uint64_t sampled_ns = 0;
  uint64_t timed_invocations = 0;
  /// Morsel pipeline only: distinct workers that executed this step
  /// (0 on the serial path, so serial `\explain analyze` output is
  /// byte-identical to the pre-parallel format).
  uint64_t workers = 0;

  /// True when this batch should be timed: samples *batches* (first 64,
  /// then one in 64). Timed batches add their row count to
  /// `timed_invocations`, so EstimatedTimeNs' extrapolation
  /// (sampled_ns * invocations / timed_invocations) rescales per-batch
  /// samples to all invocations.
  bool ShouldTimeBatch() const {
    return batches <= kTimingSampleEvery ||
           (batches & (kTimingSampleEvery - 1)) == 0;
  }

  /// Extrapolated inclusive wall time over all invocations.
  uint64_t EstimatedTimeNs() const {
    if (timed_invocations == 0) return 0;
    return static_cast<uint64_t>(
        static_cast<double>(sampled_ns) *
        (static_cast<double>(invocations) /
         static_cast<double>(timed_invocations)));
  }
};

/// Per-execution actuals of a whole plan (EXPLAIN ANALYZE, slow-query
/// log). Lives outside the shared immutable Plan: each Executor keeps
/// its own instance, so cached plans stay safe to execute concurrently.
struct PlanRuntime {
  std::vector<StepRuntime> steps;
  /// Binding rows that survived the full pipeline.
  uint64_t rows_out = 0;
  /// Unsampled wall time of the whole plan execution.
  uint64_t total_ns = 0;
  /// Retrieves with a query-level aggregate, `sort by` or `unique`: the
  /// wall time from the end of the pipeline to the finished result
  /// (aggregation, sort, duplicate elimination, row build).
  bool has_finish = false;
  uint64_t finish_ns = 0;
  /// Morsel pipeline: morsels the driving scan was split into and the
  /// workers that claimed at least one (both 0 on the serial path).
  uint64_t morsels = 0;
  uint64_t parallel_workers = 0;
  /// When SessionOptions::batch_size exceeded kMaxBatchSize, the value the
  /// caller asked for (0 = no clamp). Surfaces the silent clamp in
  /// `\explain analyze`.
  int clamped_batch_size = 0;

  void Reset(size_t step_count) {
    steps.assign(step_count, StepRuntime{});
    rows_out = 0;
    total_ns = 0;
    has_finish = false;
    finish_ns = 0;
    morsels = 0;
    parallel_workers = 0;
    clamped_batch_size = 0;
  }
};

/// An executable plan for the range/predicate part of one statement.
struct Plan {
  std::vector<PlanStep> steps;
  /// Variable-free conjuncts, evaluated once before the loops.
  std::vector<ExprPtr> constant_filters;
  /// var_step[var_id] = index of the step binding that query variable
  /// (-1 if unplaced). Lets the batch executor materialize rows in
  /// BoundQuery::vars order straight from batch columns, without name
  /// lookups per row.
  std::vector<int> var_step;

  /// Human-readable plan, one step per line (used by tests and EXPLAIN-
  /// style debugging). With a runtime whose step count matches, each
  /// step line is annotated with its actuals (EXPLAIN ANALYZE).
  std::string Explain(const PlanRuntime* runtime = nullptr) const;
};

}  // namespace exodus::excess

#endif  // EXODUS_EXCESS_PLAN_H_
