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

namespace {

// FNV-1a-style combine for multi-column keys (join keys, group keys).
constexpr size_t kHashBasis = 0x811c9dc5ULL;
constexpr size_t kHashPrime = 1099511628211ULL;

// Smallest power of two >= 2*n (min 16): the chained-bucket directory
// stays at load factor <= 0.5.
size_t BucketCountFor(size_t n) {
  size_t buckets = 16;
  while (buckets < 2 * n) buckets <<= 1;
  return buckets;
}

}  // namespace

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

Status Executor::EvalBatchRowwise(const Expr& expr,
                                  const std::vector<std::string>& names,
                                  const RowBatch& b, Env* env,
                                  std::vector<Value>* out) {
  const size_t depth = b.cols.size();
  const size_t base = env->stack.size();
  for (size_t k = 0; k < depth; ++k) {
    env->stack.emplace_back(names[k], Value::Null());
  }
  Status st = Status::OK();
  for (size_t r = 0; r < b.rows; ++r) {
    for (size_t k = 0; k < depth; ++k) {
      env->stack[base + k].second = b.cols[k][r];
    }
    auto v = Eval(expr, env);
    if (!v.ok()) {
      st = v.status();
      break;
    }
    out->push_back(std::move(*v));
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
  // evaluate per row with the batch variables bound in the environment.
  return EvalBatchRowwise(expr, names, b, env, out);
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
                                    JoinHashTable* out) {
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
  out->hashes.reserve(eb.rows);
  for (size_t r = 0; r < eb.rows; ++r) {
    size_t h = kHashBasis;
    bool usable = true;
    for (size_t k = 0; k < nkeys; ++k) {
      const Value& kv = (*kcols[k])[r];
      if (kv.is_null()) {
        usable = false;  // NULL keys never join
        break;
      }
      if (kv.kind() == ValueKind::kRef) {
        return Status::TypeError(
            "references cannot be compared with '='; use 'is' / 'isnot' "
            "(object identity)");
      }
      h = h * kHashPrime + JoinKeyHash(kv);
    }
    if (!usable) continue;
    for (size_t k = 0; k < nkeys; ++k) {
      out->key_cols[k].push_back((*kcols[k])[r]);
    }
    out->elements.push_back(eb.cols[0][r]);
    out->hashes.push_back(h);
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
  if (workers <= 1 || n < 2 * batch_cap_) {
    // Too small to amortize a fan-out: the one-chunk build, in place.
    EXODUS_RETURN_IF_ERROR(HashJoinBuildRange(step, *elems, 0, n, env, table));
  } else {
    const size_t nchunks = (n + batch_cap_ - 1) / batch_cap_;
    std::vector<JoinHashTable> chunks(nchunks);
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
            step, *elems, lo, std::min(n, lo + batch_cap_), &wenv, &chunks[c]);
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
    table->hashes.reserve(total);
    for (JoinHashTable& c : chunks) {
      for (size_t k = 0; k < nkeys; ++k) {
        std::move(c.key_cols[k].begin(), c.key_cols[k].end(),
                  std::back_inserter(table->key_cols[k]));
      }
      std::move(c.elements.begin(), c.elements.end(),
                std::back_inserter(table->elements));
      table->hashes.insert(table->hashes.end(), c.hashes.begin(),
                           c.hashes.end());
    }
  }

  // Chained bucket directory over the flat hash array. Entries are
  // inserted back-to-front so every chain enumerates in build order.
  const size_t rows = table->elements.size();
  const size_t buckets = BucketCountFor(rows);
  table->bucket_mask = buckets - 1;
  table->heads.assign(buckets, -1);
  table->next.assign(rows, -1);
  for (size_t i = rows; i-- > 0;) {
    const size_t bidx = table->hashes[i] & table->bucket_mask;
    table->next[i] = table->heads[bidx];
    table->heads[bidx] = static_cast<int32_t>(i);
  }
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
        size_t h = kHashBasis;
        bool usable = true;
        for (size_t k = 0; k < nkeys; ++k) {
          const Value& kv = (*probe_cols[k])[r];
          if (kv.is_null()) {
            usable = false;  // NULL keys never join
            break;
          }
          if (kv.kind() == ValueKind::kRef) {
            return Status::TypeError(
                "references cannot be compared with '='; use 'is' / 'isnot' "
                "(object identity)");
          }
          h = h * kHashPrime + JoinKeyHash(kv);
        }
        if (!usable || table.elements.empty()) continue;
        for (int32_t e = table.heads[h & table.bucket_mask]; e >= 0;
             e = table.next[e]) {
          // Bucket collisions with a different full hash are skipped
          // without counting: only full-hash candidates are examined.
          if (table.hashes[e] != h) continue;
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
                                Env* env, const RowEmit& emit,
                                std::vector<std::vector<Value>>* out) {
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

Result<std::vector<std::vector<Value>>> Executor::MaterializeRows(
    const Plan& plan, const BoundQuery& query, Env* env) {
  const size_t nvars = query.vars.size();
  // Optimizer-built plans carry var_step; hand-built plans (tests) fall
  // back to a name scan.
  std::vector<int> var_step = plan.var_step;
  if (var_step.size() != nvars) {
    var_step.assign(nvars, -1);
    for (size_t vi = 0; vi < nvars; ++vi) {
      for (size_t s = 0; s < plan.steps.size(); ++s) {
        if (plan.steps[s].var_name == query.vars[vi].name) {
          var_step[vi] = static_cast<int>(s);
          break;
        }
      }
    }
  }
  std::vector<std::vector<Value>> rows;
  Status st = RunPlanBatched(
      plan, query, env,
      [&var_step, nvars](Executor*, Env*, RowBatch& b,
                         std::vector<std::vector<Value>>* out) -> Status {
        for (size_t r = 0; r < b.rows; ++r) {
          std::vector<Value> row;
          row.reserve(nvars);
          for (size_t vi = 0; vi < nvars; ++vi) {
            const int s = var_step[vi];
            row.push_back(s >= 0 ? b.cols[static_cast<size_t>(s)][r]
                                 : Value::Null());
          }
          out->push_back(std::move(row));
        }
        return Status::OK();
      },
      &rows);
  EXODUS_RETURN_IF_ERROR(st);
  return rows;
}

Status Executor::ProjectBatch(const Stmt& stmt,
                              const std::vector<std::string>& names,
                              const RowBatch& batch, Env* env,
                              std::vector<std::vector<Value>>* out) {
  const size_t np = stmt.projections.size();
  std::vector<std::vector<Value>>& pscratch = proj_scratch_;
  pscratch.resize(np);
  std::vector<const std::vector<Value>*> pcols(np);
  for (size_t p = 0; p < np; ++p) {
    EXODUS_ASSIGN_OR_RETURN(pcols[p],
                            EvalBatchCol(*stmt.projections[p].expr, names,
                                         batch, env, &pscratch[p]));
  }
  // Geometric growth: an exact per-batch reserve would reallocate the
  // (large) row vector on every batch.
  if (out->capacity() < out->size() + batch.rows) {
    out->reserve(std::max(out->size() + batch.rows, out->capacity() * 2));
  }
  for (size_t r = 0; r < batch.rows; ++r) {
    std::vector<Value> row;
    row.reserve(np);
    for (size_t p = 0; p < np; ++p) {
      Value& v = pcols[p] == &pscratch[p]
                     ? pscratch[p][r]
                     : const_cast<Value&>((*pcols[p])[r]);
      // DeepCopy is a shallow copy for every non-composite kind, so
      // owned scratch values can be moved out without a refcount touch;
      // composites must still detach from shared payloads, and borrowed
      // batch columns must not be moved from.
      switch (v.kind()) {
        case ValueKind::kTuple:
        case ValueKind::kSet:
        case ValueKind::kArray:
          row.push_back(v.DeepCopy());
          break;
        default:
          row.push_back(pcols[p] == &pscratch[p] ? std::move(v)
                                                 : Value(v));
          break;
      }
    }
    out->push_back(std::move(row));
  }
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
  // Group directory: flat per-key columns plus a chained power-of-two
  // bucket array over the combined ValueHash — no per-group nodes.
  out->gkey_cols.assign(nover, {});
  size_t buckets = 64;
  size_t mask = buckets - 1;
  std::vector<int32_t> heads(buckets, -1);
  std::vector<int32_t> gnext;
  out->row_group.reserve(row_end - row_begin);
  const Value one = Value::Int(1);  // count() with no argument counts rows

  for (size_t r = row_begin; r < row_end; ++r) {
    const size_t h = rhash[r];
    int32_t g = -1;
    for (int32_t e = heads[h & mask]; e >= 0; e = gnext[e]) {
      if (out->ghash[e] != h) continue;
      bool eq = true;
      for (size_t o = 0; o < nover; ++o) {
        if (!object::ValueEquals(out->gkey_cols[o][e], over_cols[o][r])) {
          eq = false;
          break;
        }
      }
      if (eq) {
        g = e;
        break;
      }
    }
    if (g < 0) {
      g = static_cast<int32_t>(out->accums.size());
      out->accums.emplace_back();
      if (uniq) out->uniq_order.emplace_back();
      out->ghash.push_back(h);
      gnext.push_back(-1);
      for (size_t o = 0; o < nover; ++o) {
        out->gkey_cols[o].push_back(over_cols[o][r]);
      }
      if (out->accums.size() * 2 > buckets) {
        // Regrow the directory at load factor 0.5 and re-chain.
        buckets <<= 1;
        mask = buckets - 1;
        heads.assign(buckets, -1);
        for (size_t e2 = out->ghash.size(); e2-- > 0;) {
          const size_t bidx = out->ghash[e2] & mask;
          gnext[e2] = heads[bidx];
          heads[bidx] = static_cast<int32_t>(e2);
        }
      } else {
        const size_t bidx = h & mask;
        gnext[g] = heads[bidx];
        heads[bidx] = g;
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

Result<Executor::BatchAggResult> Executor::AccumulateAggregatesBatched(
    const std::vector<const Expr*>& qlevel, const BoundQuery& query,
    const std::vector<std::vector<Value>>& bindings, Env* env) {
  BatchAggResult res;
  const size_t ntab = qlevel.size();
  res.finished.resize(ntab);
  res.row_group.resize(ntab);
  res.empty_finished.resize(ntab);

  // Transpose the materialized binding rows into one columnar batch
  // over the query variables; partition keys and aggregate arguments
  // then evaluate column-at-a-time.
  const size_t nvars = query.vars.size();
  std::vector<std::string> names;
  names.reserve(nvars);
  for (const BoundVar& v : query.vars) names.push_back(v.name);
  RowBatch b;
  b.rows = bindings.size();
  b.cols.resize(nvars);
  for (size_t k = 0; k < nvars; ++k) {
    b.cols[k].reserve(bindings.size());
    for (const auto& row : bindings) b.cols[k].push_back(row[k]);
  }

  // Partial aggregation fans out over contiguous row ranges when the
  // statement resolves to more than one worker and has enough rows to
  // amortize the merge.
  constexpr size_t kMinParallelAggRows = 256;
  const int workers = ResolveExecThreads();
  const bool can_parallel = workers > 1 && ctx_->exec_pool != nullptr &&
                            ctx_->call_depth == 0;

  for (size_t t = 0; t < ntab; ++t) {
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

    // Columnar group-key hashing (the single-core lever B16 left on the
    // table): combine per-key ValueHash column-at-a-time, so the
    // grouping loop walks the directory with precomputed hashes instead
    // of hashing every key of every row in place.
    std::vector<size_t> rhash(b.rows, kHashBasis);
    for (size_t o = 0; o < nover; ++o) {
      const std::vector<Value>& col = over_cols[o];
      for (size_t r = 0; r < b.rows; ++r) {
        rhash[r] = rhash[r] * kHashPrime + object::ValueHash(col[r]);
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

    std::vector<uint32_t>& rg = res.row_group[t];
    std::vector<AggAccum> accums;
    if (nranges == 1) {
      // Single range: the partial IS the full aggregation (today's
      // serial result, moved out without a merge pass).
      accums = std::move(partials[0].accums);
      rg = std::move(partials[0].row_group);
    } else {
      // Single-threaded merge. Partials are visited in row-range order
      // and each partial's groups in local first-occurrence order, so
      // global group ids come out in first-occurrence order over all
      // rows — exactly the serial path's group numbering.
      std::vector<std::vector<Value>> gkey_cols(nover);
      std::vector<size_t> ghash;
      std::vector<int32_t> gnext;
      size_t buckets = 64;
      size_t mask = buckets - 1;
      std::vector<int32_t> heads(buckets, -1);
      rg.reserve(b.rows);
      for (AggPartial& p : partials) {
        std::vector<uint32_t> l2g(p.accums.size());
        for (size_t lg = 0; lg < p.accums.size(); ++lg) {
          const size_t h = p.ghash[lg];
          int32_t g = -1;
          for (int32_t e = heads[h & mask]; e >= 0; e = gnext[e]) {
            if (ghash[e] != h) continue;
            bool eq = true;
            for (size_t o = 0; o < nover; ++o) {
              if (!object::ValueEquals(gkey_cols[o][e], p.gkey_cols[o][lg])) {
                eq = false;
                break;
              }
            }
            if (eq) {
              g = e;
              break;
            }
          }
          if (g < 0) {
            g = static_cast<int32_t>(accums.size());
            accums.emplace_back();
            ghash.push_back(h);
            gnext.push_back(-1);
            for (size_t o = 0; o < nover; ++o) {
              gkey_cols[o].push_back(std::move(p.gkey_cols[o][lg]));
            }
            if (accums.size() * 2 > buckets) {
              buckets <<= 1;
              mask = buckets - 1;
              heads.assign(buckets, -1);
              for (size_t e2 = ghash.size(); e2-- > 0;) {
                const size_t bidx = ghash[e2] & mask;
                gnext[e2] = heads[bidx];
                heads[bidx] = static_cast<int32_t>(e2);
              }
            } else {
              const size_t bidx = h & mask;
              gnext[g] = heads[bidx];
              heads[bidx] = g;
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

    res.finished[t].reserve(accums.size());
    for (const AggAccum& acc : accums) {
      EXODUS_ASSIGN_OR_RETURN(Value v, FinishAggregate(*node, acc));
      res.finished[t].push_back(std::move(v));
    }
    AggAccum empty;
    EXODUS_ASSIGN_OR_RETURN(Value ev, FinishAggregate(*node, empty));
    res.empty_finished[t] = std::move(ev);
  }
  return res;
}

}  // namespace exodus::excess
