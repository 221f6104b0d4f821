// Morsel-driven intra-query parallelism. The driving extent scan of a
// batch plan is partitioned into batch_cap_-aligned morsels; workers
// (pool tasks plus the statement thread) claim morsels from one atomic
// counter and run the RunStepBatched pipeline over them with worker-
// local Executor/Env state, sharing the statement's snapshot epoch and
// eagerly-built read-only join tables. Pipeline breakers merge single-
// threaded: per-worker partial aggregates in executor_batch.cc, and
// per-morsel output columns concatenated in morsel order here so row
// order matches the serial path bit for bit. With exec_threads = 1 the
// scheduler declines every statement, which makes the serial pipeline
// the differential oracle for this file.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <thread>

#include "excess/executor.h"
#include "util/thread_pool.h"

namespace exodus::excess {

using extra::Type;
using object::Value;
using object::ValueKind;
using util::Result;
using util::Status;

int Executor::ResolveExecThreads() const {
  int t = ctx_->options.exec_threads;
  if (t == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    t = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return t;
}

void Executor::RunOnWorkers(int total, const std::function<void(int)>& fn) {
  util::ThreadPool* pool = ctx_->exec_pool;
  std::mutex mu;
  std::condition_variable cv;
  int pending = total - 1;
  for (int i = 1; i < total; ++i) {
    const bool submitted =
        pool != nullptr && pool->Submit([&fn, &mu, &cv, &pending, i] {
          fn(i);
          // Notify while holding the lock: the statement thread destroys
          // mu/cv (stack locals) as soon as it observes pending == 0, so
          // the final decrement must not become visible before this
          // worker is done touching the condition variable.
          std::lock_guard<std::mutex> lk(mu);
          --pending;
          cv.notify_one();
        });
    if (!submitted) {
      // Pool unavailable (shutdown): degrade to inline execution.
      fn(i);
      std::lock_guard<std::mutex> lk(mu);
      --pending;
    }
  }
  fn(0);
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&pending] { return pending == 0; });
}

Result<bool> Executor::TryRunPlanParallel(const Plan& plan,
                                          const BoundQuery& query, Env* env,
                                          const RowEmit& emit, RowBatch* out) {
  const int workers = ResolveExecThreads();
  if (workers <= 1 || ctx_->exec_pool == nullptr || ctx_->call_depth > 0) {
    return false;
  }
  if (plan.steps.empty() || plan.steps[0].kind != PlanStep::Kind::kScan) {
    return false;  // only extent scans drive morsels today
  }
  const size_t cap = batch_cap_;  // validated by RunPlanBatched

  const extra::NamedObject* named =
      ctx_->catalog->FindNamed(plan.steps[0].named_collection);
  if (named == nullptr) return false;  // serial path reports NotFound
  const Value& nv = NamedValue(named);
  const std::vector<Value>* elems = nullptr;
  bool skip_nulls = false;
  if (nv.kind() == ValueKind::kSet) {
    elems = &nv.set().elems;
  } else if (nv.kind() == ValueKind::kArray) {
    elems = &nv.array().elems;
    skip_nulls = true;  // array holes
  } else {
    return false;
  }
  const size_t n = elems->size();
  const size_t mcount = (n + cap - 1) / cap;
  if (mcount < 2) return false;  // one morsel == the serial path

  if (ctx_->activity != nullptr) {
    // Publish the morsel denominator before dispatch so \activity shows
    // done/total progress for the whole parallel phase.
    ctx_->activity->morsels_total.store(mcount, std::memory_order_relaxed);
    ctx_->activity->morsels_done.store(0, std::memory_order_relaxed);
  }
  const uint64_t t0 = obs::MonotonicNowNs();

  // Pipeline breaker 1 — hash joins: build every table eagerly on the
  // statement thread (chunk-parallel for large build sides) so workers
  // share them read-only. The serial path builds lazily on first probe;
  // the only observable difference at threads > 1 is build_rows > 0 for
  // joins whose probe side turns out empty.
  std::vector<JoinHashTable> tables(plan.steps.size());
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    if (plan.steps[s].kind != PlanStep::Kind::kHashJoin) continue;
    EXODUS_RETURN_IF_ERROR(
        BuildJoinHashTable(plan.steps[s], &tables[s], env, workers));
    run_stats_.steps[s].build_rows = tables[s].elements.size();
  }

  // One output buffer per morsel, shaped like `out` (the sink appends
  // to existing columns).
  std::vector<RowBatch> morsel_out(mcount);
  for (RowBatch& mo : morsel_out) mo.cols.resize(out->cols.size());

  const PlanStep& step0 = plan.steps[0];
  const std::vector<std::string> names0 = {step0.var_name};

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  Status first_err = Status::OK();
  size_t first_err_morsel = static_cast<size_t>(-1);

  const int total = std::min<int>(workers, static_cast<int>(mcount));
  std::vector<PlanRuntime> worker_stats(total);
  std::vector<uint64_t> claimed(total, 0);

  RunOnWorkers(total, [&](int widx) {
    // Worker-local context: shares catalog/heap/indexes/txn pointers and
    // the statement's snapshot epoch (the session's SnapshotPin covers
    // every worker), but owns call_depth, trace (off) and exec_pool
    // (null — no nested parallelism).
    ExecContext wctx = *ctx_;
    wctx.trace = nullptr;
    wctx.exec_pool = nullptr;
    Executor wexec(&wctx);
    wexec.current_query_ = &query;
    wexec.param_types_ = param_types_;
    wexec.batch_cap_ = batch_cap_;
    wexec.run_stats_.Reset(plan.steps.size());
    wexec.probe_scratch_.resize(plan.steps.size());
    Env wenv;
    wenv.stack = env->stack;
    wenv.params = env->params;

    auto run_morsel = [&](size_t m) -> Status {
      const size_t lo = m * cap;
      const size_t hi = std::min(n, lo + cap);
      RowBatch* mout = &morsel_out[m];
      BatchSink sink = [&](RowBatch& b) -> Status {
        return emit(&wexec, &wenv, b, mout);
      };
      StepRuntime& srt0 = wexec.run_stats_.steps[0];
      srt0.invocations += 1;
      ++srt0.batches;
      const bool timed = srt0.ShouldTimeBatch();
      const uint64_t m0 = timed ? obs::MonotonicNowNs() : 0;
      Status st = [&]() -> Status {
        RowBatch batch;
        batch.cols.resize(1);
        std::vector<Value>& c0 = batch.cols[0];
        c0.reserve(hi - lo);
        if (!skip_nulls) {
          c0.assign(elems->begin() + static_cast<ptrdiff_t>(lo),
                    elems->begin() + static_cast<ptrdiff_t>(hi));
          srt0.rows_examined += hi - lo;
        } else {
          for (size_t i = lo; i < hi; ++i) {
            const Value& e = (*elems)[i];
            if (e.is_null()) continue;  // array holes
            ++srt0.rows_examined;
            c0.push_back(e);
          }
        }
        batch.rows = c0.size();
        EXODUS_RETURN_IF_ERROR(
            wexec.ApplyStepFilters(step0, names0, &batch, &wenv));
        srt0.rows_produced += batch.rows;
        if (batch.rows == 0) return Status::OK();
        return wexec.RunStepBatched(plan, 1, batch, &wenv, &tables, sink);
      }();
      if (timed) {
        StepRuntime& srt = wexec.run_stats_.steps[0];
        srt.sampled_ns += obs::MonotonicNowNs() - m0;
        srt.timed_invocations += 1;
      }
      return st;
    };

    while (!failed.load(std::memory_order_relaxed)) {
      const size_t m = next.fetch_add(1, std::memory_order_relaxed);
      if (m >= mcount) break;
      ++claimed[static_cast<size_t>(widx)];
      Status st = run_morsel(m);
      if (st.ok() && wctx.activity != nullptr) {
        wctx.activity->morsels_done.fetch_add(1, std::memory_order_relaxed);
      }
      if (!st.ok()) {
        std::lock_guard<std::mutex> lk(err_mu);
        // Keep the error of the earliest morsel in row order, the
        // closest analogue of the serial path's first-error semantics.
        if (m < first_err_morsel) {
          first_err = std::move(st);
          first_err_morsel = m;
        }
        failed.store(true, std::memory_order_relaxed);
        break;
      }
    }
    worker_stats[static_cast<size_t>(widx)] = std::move(wexec.run_stats_);
  });

  // Fold per-worker counters into the statement's PlanRuntime — exact
  // totals, accumulated relaxed per worker and merged here once.
  run_stats_.morsels = mcount;
  for (int w = 0; w < total; ++w) {
    if (claimed[static_cast<size_t>(w)] > 0) ++run_stats_.parallel_workers;
    const PlanRuntime& ws = worker_stats[static_cast<size_t>(w)];
    run_stats_.rows_out += ws.rows_out;
    for (size_t s = 0; s < plan.steps.size(); ++s) {
      StepRuntime& dst = run_stats_.steps[s];
      const StepRuntime& src = ws.steps[s];
      dst.invocations += src.invocations;
      dst.rows_examined += src.rows_examined;
      dst.rows_produced += src.rows_produced;
      dst.probe_hits += src.probe_hits;
      dst.batches += src.batches;
      dst.sampled_ns += src.sampled_ns;
      dst.timed_invocations += src.timed_invocations;
      if (src.invocations > 0) ++dst.workers;
    }
  }
  if (ctx_->op_metrics != nullptr) {
    if (ctx_->op_metrics->morsels_total != nullptr) {
      ctx_->op_metrics->morsels_total->Add(mcount);
    }
    if (ctx_->op_metrics->parallel_queries != nullptr) {
      ctx_->op_metrics->parallel_queries->Add(1);
    }
    if (ctx_->op_metrics->parallel_ns != nullptr) {
      ctx_->op_metrics->parallel_ns->Add(obs::MonotonicNowNs() - t0);
    }
  }
  if (first_err_morsel != static_cast<size_t>(-1)) return first_err;

  // Order-stable concatenation: morsel columns in morsel order equal
  // the serial path's output order exactly (same batch boundaries, same
  // per-batch expansion, just distributed).
  size_t total_rows = 0;
  for (const RowBatch& mo : morsel_out) total_rows += mo.rows;
  for (size_t c = 0; c < out->cols.size(); ++c) {
    std::vector<Value>& dst = out->cols[c];
    dst.reserve(dst.size() + total_rows);
    for (RowBatch& mo : morsel_out) {
      dst.insert(dst.end(), std::make_move_iterator(mo.cols[c].begin()),
                 std::make_move_iterator(mo.cols[c].end()));
    }
  }
  out->rows += total_rows;
  return true;
}

}  // namespace exodus::excess
