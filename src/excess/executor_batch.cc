// The Executor's plan pipeline: plan steps exchange RowBatch windows in
// columnar layout, expressions evaluate a column at a time where they
// can, hash joins probe flat chained tables and query-level aggregates
// group over flat hash directories. This is the only execution engine;
// tests/reference_eval.h holds the naive nested-loop evaluator that
// batch_exec_test checks it against.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <mutex>
#include <optional>

#include "excess/executor.h"

namespace exodus::excess {

using extra::Type;
using object::Oid;
using object::Value;
using object::ValueKind;
using util::Result;
using util::Status;

void HashDirectory::Reserve(size_t n) {
  hashes_.reserve(n);
  next_.reserve(n);
  size_t buckets = 16;
  while (buckets < 2 * n) buckets <<= 1;
  if (buckets <= heads_.size()) return;
  // Regrow: re-chain every entry, front to back, into the new buckets.
  mask_ = buckets - 1;
  heads_.assign(buckets, -1);
  tails_.assign(buckets, -1);
  for (size_t e = 0; e < hashes_.size(); ++e) Link(static_cast<int32_t>(e));
}

int32_t HashDirectory::Insert(size_t h) {
  const int32_t e = static_cast<int32_t>(hashes_.size());
  hashes_.push_back(h);
  next_.push_back(-1);
  if (hashes_.size() * 2 > heads_.size()) {
    Reserve(hashes_.size());  // links e along with every other entry
  } else {
    Link(e);
  }
  return e;
}

void HashDirectory::Link(int32_t e) {
  const size_t b = Hash(e) & mask_;
  next_[static_cast<size_t>(e)] = -1;
  if (tails_[b] < 0) {
    heads_[b] = e;
  } else {
    next_[static_cast<size_t>(tails_[b])] = e;
  }
  tails_[b] = e;
}

const std::vector<Value>* Executor::AggColumns::Find(const Expr* node) const {
  for (size_t i = 0; i < nodes->size(); ++i) {
    if ((*nodes)[i] == node) return &cols[i];
  }
  return nullptr;
}

void Executor::NoteBatchClamp(int requested) {
  run_stats_.clamped_batch_size = requested;
  if (ctx_->op_metrics != nullptr &&
      ctx_->op_metrics->batch_clamped != nullptr) {
    ctx_->op_metrics->batch_clamped->Add(1);
  }
  static std::once_flag logged;
  std::call_once(logged, [requested] {
    std::fprintf(stderr,
                 "exodus: batch_size %d exceeds the maximum of %d and was "
                 "clamped (notice logged once per process)\n",
                 requested, SessionOptions::kMaxBatchSize);
  });
}

bool Executor::ReferencesBatchVar(const Expr& expr,
                                  const std::vector<std::string>& names,
                                  size_t depth) {
  if (expr.kind == ExprKind::kVar) {
    for (size_t k = 0; k < depth; ++k) {
      if (names[k] == expr.name) return true;
    }
    return false;
  }
  if (expr.base && ReferencesBatchVar(*expr.base, names, depth)) return true;
  for (const ExprPtr& a : expr.args) {
    if (a && ReferencesBatchVar(*a, names, depth)) return true;
  }
  for (const ExprPtr& o : expr.over) {
    if (o && ReferencesBatchVar(*o, names, depth)) return true;
  }
  for (const FromBinding& fb : expr.bindings) {
    if (fb.range && ReferencesBatchVar(*fb.range, names, depth)) return true;
  }
  if (expr.where && ReferencesBatchVar(*expr.where, names, depth)) return true;
  for (const auto& [n, e] : expr.fields) {
    if (e && ReferencesBatchVar(*e, names, depth)) return true;
  }
  return false;
}

Status Executor::ForEachRow(const std::vector<std::string>& names,
                            const RowBatch& b, Env* env,
                            const std::function<Status(size_t)>& body) {
  const size_t depth = b.cols.size();
  const size_t base = env->stack.size();
  for (size_t k = 0; k < depth; ++k) {
    env->stack.emplace_back(names[k], Value::Null());
  }
  Status st = Status::OK();
  for (size_t r = 0; r < b.rows && st.ok(); ++r) {
    for (size_t k = 0; k < depth; ++k) {
      env->stack[base + k].second = b.cols[k][r];
    }
    st = body(r);
  }
  env->stack.resize(base);
  return st;
}

Result<const std::vector<Value>*> Executor::EvalBatchCol(
    const Expr& expr, const std::vector<std::string>& names,
    const RowBatch& b, Env* env, std::vector<Value>* scratch) {
  if (expr.kind == ExprKind::kVar) {
    // Innermost binding wins, mirroring Env::Find's back-to-front scan.
    for (size_t k = b.cols.size(); k-- > 0;) {
      if (names[k] == expr.name) return &b.cols[k];
    }
  }
  if (expr.kind == ExprKind::kAggregate && agg_cols_ != nullptr) {
    const std::vector<Value>* col = agg_cols_->Find(&expr);
    if (col != nullptr) return col;
  }
  EXODUS_RETURN_IF_ERROR(EvalBatch(expr, names, b, env, scratch));
  return scratch;
}

Status Executor::EvalBatch(const Expr& expr,
                           const std::vector<std::string>& names,
                           const RowBatch& b, Env* env,
                           std::vector<Value>* out) {
  out->clear();
  if (b.rows == 0) return Status::OK();
  const size_t depth = b.cols.size();
  // Row-invariant expressions evaluate once and broadcast. This also
  // covers enum scoping (EnumType.label), named collections and
  // parameters, none of which involve batch variables.
  if (depth == 0 || !ReferencesBatchVar(expr, names, depth)) {
    EXODUS_ASSIGN_OR_RETURN(Value v, Eval(expr, env));
    out->assign(b.rows, v);
    return Status::OK();
  }
  out->reserve(b.rows);
  switch (expr.kind) {
    case ExprKind::kVar: {
      // Innermost binding wins, mirroring Env::Find's back-to-front scan.
      for (size_t k = depth; k-- > 0;) {
        if (names[k] == expr.name) {
          *out = b.cols[k];
          return Status::OK();
        }
      }
      // Over-approximation miss: the name is not actually a batch column.
      EXODUS_ASSIGN_OR_RETURN(Value v, Eval(expr, env));
      out->assign(b.rows, v);
      return Status::OK();
    }
    case ExprKind::kAttr: {
      // Derived attributes (EXCESS functions invoked without parens)
      // need per-row early/late binding dispatch — rowwise fallback.
      if (ctx_->functions->HasFunction(expr.name)) break;
      std::vector<Value> bases_scratch;
      EXODUS_ASSIGN_OR_RETURN(
          const std::vector<Value>* bases_ptr,
          EvalBatchCol(*expr.base, names, b, env, &bases_scratch));
      const std::vector<Value>& bases = *bases_ptr;
      // Attribute offsets are resolved once per distinct runtime type,
      // not once per row.
      const Type* cached_type = nullptr;
      int cached_idx = -1;
      for (size_t r = 0; r < b.rows; ++r) {
        const Value& bv = bases[r];
        if (bv.is_null()) {
          out->push_back(Value::Null());
          continue;
        }
        const Type* type = nullptr;
        const std::vector<Value>* fields = nullptr;
        if (bv.kind() == ValueKind::kRef) {
          const object::HeapObject* obj = ReadObject(bv.AsRef());
          if (obj == nullptr) {  // dangling ref ~ null (GEM)
            out->push_back(Value::Null());
            continue;
          }
          type = obj->type;
          fields = &obj->fields;
        } else if (bv.kind() == ValueKind::kTuple) {
          type = bv.tuple().type;
          fields = &bv.tuple().fields;
        } else if (bv.kind() == ValueKind::kAdt) {
          const adt::AdtFunction* fn =
              ctx_->adts->FindFunction(bv.adt_id(), expr.name);
          if (fn == nullptr) {
            return Status::NotFound("ADT has no function '" + expr.name +
                                    "'");
          }
          EXODUS_ASSIGN_OR_RETURN(Value v, fn->fn({bv}));
          out->push_back(std::move(v));
          continue;
        } else {
          return Status::TypeError("cannot select '." + expr.name +
                                   "' from a non-object value " +
                                   bv.ToString());
        }
        if (type == nullptr) {
          return Status::TypeError("cannot select attribute '" + expr.name +
                                   "' from an untyped tuple");
        }
        if (type != cached_type) {
          cached_type = type;
          cached_idx = type->AttributeIndex(expr.name);
        }
        if (cached_idx < 0) {
          return Status::NotFound("type " + type->ToString() +
                                  " has no attribute '" + expr.name + "'");
        }
        out->push_back(static_cast<size_t>(cached_idx) < fields->size()
                           ? (*fields)[static_cast<size_t>(cached_idx)]
                           : Value::Null());
      }
      return Status::OK();
    }
    case ExprKind::kBinary: {
      // and/or short-circuit per row (the right side must not be
      // evaluated for rows the left side decides) — rowwise fallback.
      if (expr.name == "and" || expr.name == "or") break;
      std::vector<Value> lhs_scratch;
      std::vector<Value> rhs_scratch;
      EXODUS_ASSIGN_OR_RETURN(
          const std::vector<Value>* lhs,
          EvalBatchCol(*expr.args[0], names, b, env, &lhs_scratch));
      EXODUS_ASSIGN_OR_RETURN(
          const std::vector<Value>* rhs,
          EvalBatchCol(*expr.args[1], names, b, env, &rhs_scratch));
      for (size_t r = 0; r < b.rows; ++r) {
        EXODUS_ASSIGN_OR_RETURN(Value v,
                                ApplyBinary(expr.name, (*lhs)[r], (*rhs)[r]));
        out->push_back(std::move(v));
      }
      return Status::OK();
    }
    case ExprKind::kUnary: {
      std::vector<Value> vals_scratch;
      EXODUS_ASSIGN_OR_RETURN(
          const std::vector<Value>* vals,
          EvalBatchCol(*expr.base, names, b, env, &vals_scratch));
      for (size_t r = 0; r < b.rows; ++r) {
        EXODUS_ASSIGN_OR_RETURN(Value v, ApplyUnary(expr.name, (*vals)[r]));
        out->push_back(std::move(v));
      }
      return Status::OK();
    }
    default:
      break;
  }
  // Calls, aggregates, quantifiers, collection literals, indexing:
  // evaluate per row with the batch variables bound in the environment
  // (a query-level aggregate reads that row of its column).
  return ForEachRow(names, b, env, [&](size_t r) -> Status {
    if (agg_cols_ != nullptr) agg_cols_->row = r;
    EXODUS_ASSIGN_OR_RETURN(Value v, Eval(expr, env));
    out->push_back(std::move(v));
    return Status::OK();
  });
}

Status Executor::ApplyStepFilters(const PlanStep& step,
                                  const std::vector<std::string>& names,
                                  RowBatch* batch, Env* env) {
  std::vector<Value> fvals;
  for (const ExprPtr& f : step.filters) {
    if (batch->rows == 0) return Status::OK();
    EXODUS_RETURN_IF_ERROR(EvalBatch(*f, names, *batch, env, &fvals));
    // In-place compaction; filter i+1 only ever sees rows filter i
    // passed (conjuncts short-circuit left to right).
    size_t w = 0;
    for (size_t r = 0; r < batch->rows; ++r) {
      EXODUS_ASSIGN_OR_RETURN(bool pass, Truthy(fvals[r]));
      if (!pass) continue;
      if (w != r) {
        for (auto& col : batch->cols) col[w] = std::move(col[r]);
      }
      ++w;
    }
    batch->rows = w;
    for (auto& col : batch->cols) col.resize(w);
  }
  return Status::OK();
}

Status Executor::HashJoinBuildRange(const PlanStep& step,
                                    const std::vector<Value>& elems,
                                    size_t lo, size_t hi, Env* env,
                                    JoinHashTable* out,
                                    std::vector<size_t>* hashes) {
  const size_t nkeys = step.build_keys.size();
  // Non-null elements form a one-column batch so key expressions run
  // through EvalBatch instead of one Eval per element (same
  // column-at-a-time semantics as the probe side).
  RowBatch eb;
  eb.cols.resize(1);
  eb.cols[0].reserve(hi - lo);
  for (size_t i = lo; i < hi; ++i) {
    if (!elems[i].is_null()) eb.cols[0].push_back(elems[i]);
  }
  eb.rows = eb.cols[0].size();
  const std::vector<std::string> bnames = {step.var_name};
  std::vector<std::vector<Value>> kscratch(nkeys);
  std::vector<const std::vector<Value>*> kcols(nkeys);
  for (size_t k = 0; k < nkeys; ++k) {
    EXODUS_ASSIGN_OR_RETURN(
        kcols[k],
        EvalBatchCol(*step.build_keys[k], bnames, eb, env, &kscratch[k]));
  }

  out->key_cols.assign(nkeys, {});
  for (auto& kc : out->key_cols) kc.reserve(eb.rows);
  out->elements.reserve(eb.rows);
  hashes->reserve(eb.rows);
  for (size_t r = 0; r < eb.rows; ++r) {
    EXODUS_ASSIGN_OR_RETURN(std::optional<size_t> h, JoinRowHash(kcols, r));
    if (!h) continue;
    for (size_t k = 0; k < nkeys; ++k) {
      out->key_cols[k].push_back((*kcols[k])[r]);
    }
    out->elements.push_back(eb.cols[0][r]);
    hashes->push_back(*h);
  }
  return Status::OK();
}

Status Executor::BuildJoinHashTable(const PlanStep& step,
                                        JoinHashTable* table, Env* env,
                                        int workers) {
  table->built = true;
  // Resolve the build side once, on the statement thread (range
  // expressions may evaluate arbitrary EXCESS; named collections read
  // the snapshot version, which the statement's pin keeps alive).
  std::vector<Value> owned;
  const std::vector<Value>* elems = &owned;
  if (!step.named_collection.empty()) {
    const extra::NamedObject* named =
        ctx_->catalog->FindNamed(step.named_collection);
    if (named == nullptr) {
      return Status::NotFound("named collection '" + step.named_collection +
                              "' disappeared during execution");
    }
    const Value& nv = NamedValue(named);
    if (nv.kind() == ValueKind::kSet) {
      elems = &nv.set().elems;
    } else if (nv.kind() == ValueKind::kArray) {
      elems = &nv.array().elems;
    }
  } else {
    EXODUS_ASSIGN_OR_RETURN(Value coll, Eval(*step.range, env));
    EXODUS_ASSIGN_OR_RETURN(owned, ElementsOf(coll));
  }

  const size_t n = elems->size();
  std::vector<size_t> hashes;  // [entry]
  if (workers <= 1 || n < 2 * batch_cap_) {
    // Too small to amortize a fan-out: the one-chunk build, in place.
    EXODUS_RETURN_IF_ERROR(
        HashJoinBuildRange(step, *elems, 0, n, env, table, &hashes));
  } else {
    const size_t nchunks = (n + batch_cap_ - 1) / batch_cap_;
    std::vector<JoinHashTable> chunks(nchunks);
    std::vector<std::vector<size_t>> chunk_hashes(nchunks);
    std::vector<Status> chunk_status(nchunks, Status::OK());
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    RunOnWorkers(std::min<int>(workers, static_cast<int>(nchunks)), [&](int) {
      ExecContext wctx = *ctx_;
      wctx.trace = nullptr;
      wctx.exec_pool = nullptr;
      Executor wexec(&wctx);
      wexec.batch_cap_ = batch_cap_;
      Env wenv;
      wenv.stack = env->stack;
      wenv.params = env->params;
      while (!failed.load(std::memory_order_relaxed)) {
        const size_t c = next.fetch_add(1, std::memory_order_relaxed);
        if (c >= nchunks) break;
        const size_t lo = c * batch_cap_;
        Status st = wexec.HashJoinBuildRange(
            step, *elems, lo, std::min(n, lo + batch_cap_), &wenv, &chunks[c],
            &chunk_hashes[c]);
        if (!st.ok()) {
          chunk_status[c] = std::move(st);
          failed.store(true, std::memory_order_relaxed);
          break;
        }
      }
    });
    for (const Status& st : chunk_status) EXODUS_RETURN_IF_ERROR(st);
    // Concatenate in chunk order: the merged entry order is element
    // order, exactly as the one-chunk build produces it.
    size_t total = 0;
    for (const JoinHashTable& c : chunks) total += c.elements.size();
    const size_t nkeys = step.build_keys.size();
    table->key_cols.assign(nkeys, {});
    for (auto& kc : table->key_cols) kc.reserve(total);
    table->elements.reserve(total);
    hashes.reserve(total);
    for (size_t c = 0; c < nchunks; ++c) {
      for (size_t k = 0; k < nkeys; ++k) {
        std::move(chunks[c].key_cols[k].begin(), chunks[c].key_cols[k].end(),
                  std::back_inserter(table->key_cols[k]));
      }
      std::move(chunks[c].elements.begin(), chunks[c].elements.end(),
                std::back_inserter(table->elements));
      hashes.insert(hashes.end(), chunk_hashes[c].begin(),
                    chunk_hashes[c].end());
    }
  }

  // One directory over the entries, chained in entry order, so every
  // chain enumerates in build order.
  table->dir.Reserve(hashes.size());
  for (size_t h : hashes) table->dir.Insert(h);
  return Status::OK();
}

Status Executor::RunStepBatched(const Plan& plan, size_t step_idx,
                                RowBatch& in, Env* env,
                                std::vector<JoinHashTable>* tables,
                                const BatchSink& sink) {
  if (in.rows == 0) return Status::OK();
  if (step_idx == plan.steps.size()) {
    run_stats_.rows_out += in.rows;
    if (ctx_->activity != nullptr) {
      // Live progress for \activity: rows/batches as the plan's output
      // produces them (morsel workers carry the same slot pointer).
      ctx_->activity->AddRows(in.rows);
      ctx_->activity->AddBatches(1);
    }
    return sink(in);
  }
  // A batch accounts for all of its rows at once: invocations counts
  // parent rows, batches records the window count.
  StepRuntime& srt = run_stats_.steps[step_idx];
  srt.invocations += in.rows;
  ++srt.batches;
  if (srt.ShouldTimeBatch()) {
    const uint64_t t0 = obs::MonotonicNowNs();
    Status st = ExpandStepBatch(plan, step_idx, in, env, tables, sink);
    StepRuntime& srt2 = run_stats_.steps[step_idx];
    srt2.sampled_ns += obs::MonotonicNowNs() - t0;
    srt2.timed_invocations += in.rows;
    return st;
  }
  return ExpandStepBatch(plan, step_idx, in, env, tables, sink);
}

Status Executor::ExpandStepBatch(const Plan& plan, size_t step_idx,
                                 RowBatch& in, Env* env,
                                 std::vector<JoinHashTable>* tables,
                                 const BatchSink& sink) {
  const PlanStep& step = plan.steps[step_idx];
  StepRuntime& srt = run_stats_.steps[step_idx];
  const size_t depth = in.cols.size();

  std::vector<std::string> names;
  names.reserve(step_idx + 1);
  for (size_t k = 0; k <= step_idx; ++k) {
    names.push_back(plan.steps[k].var_name);
  }

  RowBatch out;
  out.cols.resize(depth + 1);
  for (auto& c : out.cols) c.reserve(batch_cap_);

  auto flush = [&]() -> Status {
    if (out.rows == 0) return Status::OK();
    EXODUS_RETURN_IF_ERROR(ApplyStepFilters(step, names, &out, env));
    srt.rows_produced += out.rows;
    if (out.rows > 0) {
      EXODUS_RETURN_IF_ERROR(
          RunStepBatched(plan, step_idx + 1, out, env, tables, sink));
    }
    // The sink may retain columns by moving them out; re-establish the
    // column shape before refilling.
    out.cols.clear();
    out.cols.resize(depth + 1);
    for (auto& c : out.cols) c.reserve(batch_cap_);
    out.rows = 0;
    return Status::OK();
  };

  auto emit = [&](size_t parent, const Value& element) -> Status {
    for (size_t k = 0; k < depth; ++k) {
      out.cols[k].push_back(in.cols[k][parent]);
    }
    out.cols[depth].push_back(element);
    if (++out.rows >= batch_cap_) return flush();
    return Status::OK();
  };

  switch (step.kind) {
    case PlanStep::Kind::kScan: {
      const extra::NamedObject* named =
          ctx_->catalog->FindNamed(step.named_collection);
      if (named == nullptr) {
        return Status::NotFound("named collection '" + step.named_collection +
                                "' disappeared during execution");
      }
      const std::vector<Value>* elems = nullptr;
      bool skip_nulls = false;
      const Value& nv = NamedValue(named);
      if (nv.kind() == ValueKind::kSet) {
        elems = &nv.set().elems;
      } else if (nv.kind() == ValueKind::kArray) {
        elems = &nv.array().elems;
        skip_nulls = true;  // array holes
      }
      if (elems != nullptr && !skip_nulls) {
        // Bulk path (sets have no holes): copy batch-capacity slices of
        // the extent straight into the output column — a range insert
        // instead of one push_back per row.
        for (size_t r = 0; r < in.rows; ++r) {
          size_t pos = 0;
          while (pos < elems->size()) {
            const size_t take =
                std::min(batch_cap_ - out.rows, elems->size() - pos);
            for (size_t k = 0; k < depth; ++k) {
              out.cols[k].insert(out.cols[k].end(), take, in.cols[k][r]);
            }
            out.cols[depth].insert(out.cols[depth].end(),
                                   elems->begin() + pos,
                                   elems->begin() + pos + take);
            out.rows += take;
            srt.rows_examined += take;
            pos += take;
            if (out.rows >= batch_cap_) {
              EXODUS_RETURN_IF_ERROR(flush());
            }
          }
        }
      } else if (elems != nullptr) {
        for (size_t r = 0; r < in.rows; ++r) {
          for (const Value& e : *elems) {
            if (e.is_null()) continue;  // array holes
            ++srt.rows_examined;
            EXODUS_RETURN_IF_ERROR(emit(r, e));
          }
        }
      }
      return flush();
    }
    case PlanStep::Kind::kIndexScan: {
      index::IndexInfo* idx = ctx_->indexes->Find(step.index_name);
      if (idx == nullptr) {
        return Status::NotFound("index '" + step.index_name +
                                "' disappeared during execution");
      }
      std::vector<Value> keys;
      EXODUS_RETURN_IF_ERROR(EvalBatch(*step.key, names, in, env, &keys));
      std::vector<Oid> oids;
      for (size_t r = 0; r < in.rows; ++r) {
        const Value& key = keys[r];
        if (key.is_null()) continue;  // null never matches
        oids.clear();
        if (step.key_op == "=") {
          EXODUS_ASSIGN_OR_RETURN(oids, idx->Lookup(key));
        } else {
          if (idx->btree == nullptr) {
            return Status::Internal("range scan on a non-btree index");
          }
          std::optional<Value> lo, hi;
          bool lo_inc = true;
          bool hi_inc = true;
          if (step.key_op == "<") {
            hi = key;
            hi_inc = false;
          } else if (step.key_op == "<=") {
            hi = key;
          } else if (step.key_op == ">") {
            lo = key;
            lo_inc = false;
          } else if (step.key_op == ">=") {
            lo = key;
          }
          EXODUS_ASSIGN_OR_RETURN(oids, idx->Range(lo, lo_inc, hi, hi_inc));
        }
        for (Oid oid : oids) {
          ++srt.rows_examined;  // postings looked at, stale ones included
          const object::HeapObject* obj = ReadObject(oid);
          if (obj == nullptr) continue;  // stale entry / invisible version
          // Recheck the indexed attribute against the probe key: with
          // eager concurrent inserts and GC-deferred erases a posting
          // may not describe this snapshot's version, and the optimizer
          // consumed the matched conjunct, so no residual filter would
          // catch the mismatch.
          int ai = obj->type != nullptr
                       ? obj->type->AttributeIndex(idx->attr)
                       : -1;
          if (ai < 0 || static_cast<size_t>(ai) >= obj->fields.size()) {
            continue;
          }
          const Value& fv = obj->fields[static_cast<size_t>(ai)];
          if (fv.is_null()) continue;
          Result<int> cmp = Compare(fv, key);
          if (!cmp.ok()) continue;
          bool match = step.key_op == "=" ? *cmp == 0
                       : step.key_op == "<" ? *cmp < 0
                       : step.key_op == "<=" ? *cmp <= 0
                       : step.key_op == ">" ? *cmp > 0
                                            : *cmp >= 0;
          if (!match) continue;
          EXODUS_RETURN_IF_ERROR(emit(r, Value::Ref(oid)));
        }
      }
      return flush();
    }
    case PlanStep::Kind::kUnnest: {
      std::vector<Value> ranges;
      EXODUS_RETURN_IF_ERROR(EvalBatch(*step.range, names, in, env, &ranges));
      for (size_t r = 0; r < in.rows; ++r) {
        const Value& coll = ranges[r];
        if (coll.is_null()) continue;  // ElementsOf(null) -> empty
        const std::vector<Value>* elems = nullptr;
        if (coll.kind() == ValueKind::kSet) {
          elems = &coll.set().elems;
        } else if (coll.kind() == ValueKind::kArray) {
          elems = &coll.array().elems;
        } else {
          return Status::TypeError("expected a set or array, got " +
                                   coll.ToString());
        }
        for (const Value& e : *elems) {
          if (e.is_null()) continue;
          ++srt.rows_examined;
          EXODUS_RETURN_IF_ERROR(emit(r, e));
        }
      }
      return flush();
    }
    case PlanStep::Kind::kHashJoin: {
      JoinHashTable& table = (*tables)[step_idx];
      if (!table.built) {
        EXODUS_RETURN_IF_ERROR(
            BuildJoinHashTable(step, &table, env, /*workers=*/1));
        srt.build_rows = table.elements.size();
      }
      const size_t nkeys = step.probe_keys.size();
      // Probe scratch is per-Executor: morsel workers share `table`
      // read-only but each evaluates probe keys into its own columns.
      std::vector<std::vector<Value>>& pscratch = probe_scratch_[step_idx];
      pscratch.resize(nkeys);
      std::vector<const std::vector<Value>*> probe_cols(nkeys);
      for (size_t k = 0; k < nkeys; ++k) {
        EXODUS_ASSIGN_OR_RETURN(probe_cols[k],
                                EvalBatchCol(*step.probe_keys[k], names, in,
                                             env, &pscratch[k]));
      }
      for (size_t r = 0; r < in.rows; ++r) {
        EXODUS_ASSIGN_OR_RETURN(std::optional<size_t> h,
                                JoinRowHash(probe_cols, r));
        if (!h) continue;
        for (int32_t e = table.dir.First(*h); e >= 0;
             e = table.dir.Next(e)) {
          // Bucket collisions with a different full hash are skipped
          // without counting: only full-hash candidates are examined.
          if (table.dir.Hash(e) != *h) continue;
          ++srt.rows_examined;  // bucket candidates probed
          bool match = true;
          for (size_t k = 0; k < nkeys; ++k) {
            EXODUS_ASSIGN_OR_RETURN(
                bool eq,
                JoinKeyEquals(table.key_cols[k][e], (*probe_cols[k])[r]));
            if (!eq) {
              match = false;
              break;
            }
          }
          if (match) {
            ++srt.probe_hits;
            EXODUS_RETURN_IF_ERROR(emit(r, table.elements[e]));
          }
        }
      }
      return flush();
    }
  }
  return Status::Internal("unknown plan step kind");
}

Status Executor::RunPlanBatched(const Plan& plan, const BoundQuery& query,
                                Env* env, const RowEmit& emit, RowBatch* out) {
  run_stats_.Reset(plan.steps.size());
  const uint64_t t0 = obs::MonotonicNowNs();
  Status st = [&]() -> Status {
    EXODUS_RETURN_IF_ERROR(ctx_->options.Validate());
    const int bs = ctx_->options.batch_size;
    batch_cap_ = static_cast<size_t>(std::min(bs, SessionOptions::kMaxBatchSize));
    if (bs > SessionOptions::kMaxBatchSize) NoteBatchClamp(bs);
    probe_scratch_.resize(plan.steps.size());
    for (const ExprPtr& f : plan.constant_filters) {
      EXODUS_ASSIGN_OR_RETURN(Value v, Eval(*f, env));
      EXODUS_ASSIGN_OR_RETURN(bool ok, Truthy(v));
      if (!ok) return Status::OK();
    }
    EXODUS_ASSIGN_OR_RETURN(bool parallel,
                            TryRunPlanParallel(plan, query, env, emit, out));
    if (parallel) return Status::OK();
    // Columnar join scratch is per-execution (plans are shared between
    // sessions and must stay immutable); built lazily on first probe.
    std::vector<JoinHashTable> tables(plan.steps.size());
    // One empty parent row drives the outermost step, so step 0 records
    // exactly one invocation.
    RowBatch seed;
    seed.rows = 1;
    return RunStepBatched(plan, 0, seed, env, &tables,
                          [&](RowBatch& b) { return emit(this, env, b, out); });
  }();
  run_stats_.total_ns = obs::MonotonicNowNs() - t0;
  FlushOperatorMetrics(plan);
  return st;
}

Result<RowBatch> Executor::MaterializeRows(const Plan& plan,
                                          const BoundQuery& query, Env* env) {
  RowBatch bindings;
  bindings.cols.resize(query.vars.size());
  const std::vector<int>& var_step = plan.var_step;
  EXODUS_RETURN_IF_ERROR(RunPlanBatched(
      plan, query, env,
      [&var_step](Executor*, Env*, RowBatch& b, RowBatch* out) -> Status {
        // Each step binds one variable, so its column moves out whole;
        // the pipeline re-establishes its columns after every sink call.
        for (size_t vi = 0; vi < var_step.size(); ++vi) {
          std::vector<Value>& dst = out->cols[vi];
          const int s = var_step[vi];
          if (s < 0) {
            dst.insert(dst.end(), b.rows, Value::Null());
            continue;
          }
          std::vector<Value>& src = b.cols[static_cast<size_t>(s)];
          if (dst.empty()) {
            dst = std::move(src);
          } else {
            dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                       std::make_move_iterator(src.end()));
          }
        }
        out->rows += b.rows;
        return Status::OK();
      },
      &bindings));
  return bindings;
}

Status Executor::ProjectBatch(const Stmt& stmt,
                              const std::vector<std::string>& names,
                              const RowBatch& batch, Env* env, RowBatch* out) {
  const size_t np = stmt.projections.size();
  std::vector<std::vector<Value>>& pscratch = proj_scratch_;
  pscratch.resize(np);
  for (size_t p = 0; p < np; ++p) {
    EXODUS_ASSIGN_OR_RETURN(const std::vector<Value>* col,
                            EvalBatchCol(*stmt.projections[p].expr, names,
                                         batch, env, &pscratch[p]));
    // DeepCopy is a shallow copy for every non-composite kind, so owned
    // scratch values can be moved out without a refcount touch;
    // composites must still detach from shared payloads, and borrowed
    // batch columns must not be moved from.
    const bool owned = col == &pscratch[p];
    std::vector<Value>& dst = out->cols[p];
    // Geometric growth: an exact per-batch reserve would reallocate the
    // column on every batch.
    if (dst.capacity() < dst.size() + batch.rows) {
      dst.reserve(std::max(dst.size() + batch.rows, dst.capacity() * 2));
    }
    for (size_t r = 0; r < batch.rows; ++r) {
      Value& v = const_cast<Value&>((*col)[r]);
      switch (v.kind()) {
        case ValueKind::kTuple:
        case ValueKind::kSet:
        case ValueKind::kArray:
          dst.push_back(v.DeepCopy());
          break;
        default:
          dst.push_back(owned ? std::move(v) : Value(v));
          break;
      }
    }
  }
  out->rows += batch.rows;
  return Status::OK();
}

Status Executor::MergeAccum(AggAccum* into, const AggAccum& from) const {
  into->count += from.count;
  into->sum += from.sum;
  into->any_float = into->any_float || from.any_float;
  if (from.has_min) {
    if (!into->has_min) {
      into->min_v = from.min_v;
      into->max_v = from.max_v;
      into->has_min = true;
    } else {
      EXODUS_ASSIGN_OR_RETURN(int cmin, Compare(from.min_v, into->min_v));
      if (cmin < 0) into->min_v = from.min_v;
      EXODUS_ASSIGN_OR_RETURN(int cmax, Compare(from.max_v, into->max_v));
      if (cmax > 0) into->max_v = from.max_v;
    }
  }
  // Partials cover contiguous row ranges merged in range order, so the
  // concatenation preserves row order for median / custom set fns.
  into->values.insert(into->values.end(), from.values.begin(),
                      from.values.end());
  return Status::OK();
}

Status Executor::AccumulateAggRange(
    const Expr& node, const std::vector<std::vector<Value>>& over_cols,
    const std::vector<Value>* args, const std::vector<size_t>& rhash,
    size_t row_begin, size_t row_end, AggPartial* out) const {
  const size_t nover = node.over.size();
  const bool uniq = node.unique;
  // Group keys live in flat per-key columns behind the directory — no
  // per-group nodes.
  out->gkey_cols.assign(nover, {});
  out->row_group.reserve(row_end - row_begin);
  const Value one = Value::Int(1);  // count() with no argument counts rows

  for (size_t r = row_begin; r < row_end; ++r) {
    const auto [g, fresh] = out->groups.FindOrInsert(rhash[r], [&](int32_t e) {
      for (size_t o = 0; o < nover; ++o) {
        if (!object::ValueEquals(out->gkey_cols[o][static_cast<size_t>(e)],
                                 over_cols[o][r])) {
          return false;
        }
      }
      return true;
    });
    if (fresh) {
      out->accums.emplace_back();
      if (uniq) out->uniq_order.emplace_back();
      for (size_t o = 0; o < nover; ++o) {
        out->gkey_cols[o].push_back(over_cols[o][r]);
      }
    }
    out->row_group.push_back(static_cast<uint32_t>(g));
    AggAccum& acc = out->accums[static_cast<size_t>(g)];
    const Value& v = args == nullptr ? one : (*args)[r];
    // Record first-seen unique values in row order *before* Accumulate
    // inserts them into `seen`: merging re-accumulates them in exactly
    // the sequence the serial path would have used.
    if (uniq && !v.is_null() && acc.seen.find(v) == acc.seen.end()) {
      out->uniq_order[static_cast<size_t>(g)].push_back(v);
    }
    EXODUS_RETURN_IF_ERROR(Accumulate(node, &acc, v));
  }
  return Status::OK();
}

Result<std::vector<std::vector<Value>>> Executor::AccumulateAggregatesBatched(
    const std::vector<const Expr*>& qlevel,
    const std::vector<std::string>& names, const RowBatch& b, bool one_row,
    Env* env) {
  std::vector<std::vector<Value>> result(qlevel.size());

  // Partial aggregation fans out over contiguous row ranges when the
  // statement resolves to more than one worker and has enough rows to
  // amortize the merge.
  constexpr size_t kMinParallelAggRows = 256;
  const int workers = ResolveExecThreads();
  const bool can_parallel = workers > 1 && ctx_->exec_pool != nullptr &&
                            ctx_->call_depth == 0;

  for (size_t t = 0; t < qlevel.size(); ++t) {
    const Expr* node = qlevel[t];
    const size_t nover = node->over.size();
    std::vector<std::vector<Value>> over_cols(nover);
    for (size_t o = 0; o < nover; ++o) {
      EXODUS_RETURN_IF_ERROR(
          EvalBatch(*node->over[o], names, b, env, &over_cols[o]));
    }
    std::vector<Value> args;
    if (!node->args.empty()) {
      EXODUS_RETURN_IF_ERROR(EvalBatch(*node->args[0], names, b, env, &args));
    }
    const std::vector<Value>* argp = node->args.empty() ? nullptr : &args;

    // Columnar group-key hashing: combine per-key ValueHash
    // column-at-a-time, so the grouping loop walks the directory with
    // precomputed hashes instead of hashing every key of every row in
    // place.
    std::vector<size_t> rhash(b.rows, HashDirectory::kBasis);
    for (size_t o = 0; o < nover; ++o) {
      const std::vector<Value>& col = over_cols[o];
      for (size_t r = 0; r < b.rows; ++r) {
        rhash[r] = HashDirectory::Combine(rhash[r], object::ValueHash(col[r]));
      }
    }

    size_t nranges = 1;
    if (can_parallel && b.rows >= kMinParallelAggRows) {
      nranges = std::min(static_cast<size_t>(workers),
                         b.rows / (kMinParallelAggRows / 2));
      if (nranges < 1) nranges = 1;
    }

    std::vector<AggPartial> partials(nranges);
    if (nranges == 1) {
      EXODUS_RETURN_IF_ERROR(AccumulateAggRange(*node, over_cols, argp, rhash,
                                                0, b.rows, &partials[0]));
    } else {
      const size_t per = (b.rows + nranges - 1) / nranges;
      std::vector<Status> sts(nranges, Status::OK());
      RunOnWorkers(static_cast<int>(nranges), [&](int w) {
        const size_t lo = static_cast<size_t>(w) * per;
        const size_t hi = std::min(b.rows, lo + per);
        if (lo >= hi) return;
        sts[static_cast<size_t>(w)] = AccumulateAggRange(
            *node, over_cols, argp, rhash, lo, hi,
            &partials[static_cast<size_t>(w)]);
      });
      for (const Status& s : sts) EXODUS_RETURN_IF_ERROR(s);
    }

    std::vector<uint32_t> rg;
    std::vector<AggAccum> accums;
    if (nranges == 1) {
      // Single range: the partial IS the full aggregation, moved out
      // without a merge pass.
      accums = std::move(partials[0].accums);
      rg = std::move(partials[0].row_group);
    } else {
      // Single-threaded merge. Partials are visited in row-range order
      // and each partial's groups in local first-occurrence order, so
      // global group ids come out in first-occurrence order over all
      // rows — exactly the serial path's group numbering.
      std::vector<std::vector<Value>> gkey_cols(nover);
      HashDirectory groups;
      rg.reserve(b.rows);
      for (AggPartial& p : partials) {
        std::vector<uint32_t> l2g(p.accums.size());
        for (size_t lg = 0; lg < p.accums.size(); ++lg) {
          const int32_t lge = static_cast<int32_t>(lg);
          const auto [g, fresh] =
              groups.FindOrInsert(p.groups.Hash(lge), [&](int32_t e) {
                for (size_t o = 0; o < nover; ++o) {
                  if (!object::ValueEquals(
                          gkey_cols[o][static_cast<size_t>(e)],
                          p.gkey_cols[o][lg])) {
                    return false;
                  }
                }
                return true;
              });
          if (fresh) {
            accums.emplace_back();
            for (size_t o = 0; o < nover; ++o) {
              gkey_cols[o].push_back(std::move(p.gkey_cols[o][lg]));
            }
          }
          l2g[lg] = static_cast<uint32_t>(g);
          AggAccum& ga = accums[static_cast<size_t>(g)];
          if (node->unique) {
            // Re-accumulate the partial's first-seen values in row
            // order; ga.seen collapses duplicates across ranges.
            for (const Value& v : p.uniq_order[lg]) {
              EXODUS_RETURN_IF_ERROR(Accumulate(*node, &ga, v));
            }
          } else {
            EXODUS_RETURN_IF_ERROR(MergeAccum(&ga, p.accums[lg]));
          }
        }
        for (uint32_t lg : p.row_group) rg.push_back(l2g[lg]);
      }
    }

    std::vector<Value> finished;
    finished.reserve(accums.size());
    for (const AggAccum& acc : accums) {
      EXODUS_ASSIGN_OR_RETURN(Value v, FinishAggregate(*node, acc));
      finished.push_back(std::move(v));
    }
    std::vector<Value>& col = result[t];
    if (one_row) {
      // All bindings form one group; without bindings it is empty.
      if (finished.empty()) {
        EXODUS_ASSIGN_OR_RETURN(Value ev, FinishAggregate(*node, AggAccum{}));
        finished.push_back(std::move(ev));
      }
      col.push_back(std::move(finished[0]));
    } else {
      col.reserve(b.rows);
      for (uint32_t g : rg) col.push_back(finished[g]);
    }
  }
  return result;
}

}  // namespace exodus::excess
