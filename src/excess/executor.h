#ifndef EXODUS_EXCESS_EXECUTOR_H_
#define EXODUS_EXCESS_EXECUTOR_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "adt/registry.h"
#include "auth/auth.h"
#include "excess/ast.h"
#include "excess/binder.h"
#include "excess/functions.h"
#include "excess/optimizer.h"
#include "excess/plan.h"
#include "extra/catalog.h"
#include "index/index_manager.h"
#include "object/heap.h"
#include "object/value.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/result.h"
#include "util/status.h"

namespace exodus::util {
class ThreadPool;  // util/thread_pool.h
}

namespace exodus::excess {

struct StatementTxn;  // excess/concurrency.h

/// Cumulative per-operator registry series, one label set per
/// PlanStep::Kind (`exodus_operator_rows_total{op="hash_join"}` etc.).
/// The executor flushes each plan execution's actuals into these after
/// the run, so the hot loop touches only plain (non-atomic) counters.
struct OperatorMetrics {
  struct PerKind {
    obs::Counter* invocations = nullptr;
    obs::Counter* rows = nullptr;
    obs::Counter* time_ns = nullptr;
    /// RowBatch windows expanded by the batch pipeline; rows/batches
    /// gives the realized batch size.
    obs::Counter* batches = nullptr;
  };
  /// Indexed by static_cast<size_t>(PlanStep::Kind).
  static constexpr size_t kNumKinds = 4;
  PerKind kinds[kNumKinds];

  // --- executor-level series (morsel parallelism, PR 8) ---
  /// Morsels scheduled by the parallel pipeline.
  obs::Counter* morsels_total = nullptr;
  /// Wall time spent inside parallel plan executions.
  obs::Counter* parallel_ns = nullptr;
  /// Plan executions that took the morsel-parallel path.
  obs::Counter* parallel_queries = nullptr;
  /// Executions whose requested batch_size was clamped to kMaxBatchSize.
  obs::Counter* batch_clamped = nullptr;

  /// The `op` label value of a step kind ("scan", "index_scan", ...).
  static const char* KindLabel(PlanStep::Kind kind);
  /// Registers all series into `registry` (idempotent).
  void Register(obs::MetricsRegistry* registry);
};

/// A flat chained hash directory over entries numbered 0..size()-1 in
/// insertion order. It keeps each entry's full hash and chain link;
/// callers keep keys and payloads in their own arrays indexed by entry.
/// Every chain enumerates in insertion order, and the bucket array
/// doubles to stay at load factor <= 0.5. One type serves the hash-join
/// build, aggregate grouping and partial merging, and `unique`.
class HashDirectory {
 public:
  /// FNV-style combine for multi-column keys: start from kBasis and fold
  /// in each column's hash with Combine.
  static constexpr size_t kBasis = 0x811c9dc5ULL;
  static constexpr size_t kPrime = 1099511628211ULL;
  static size_t Combine(size_t h, size_t v) { return h * kPrime + v; }

  size_t size() const { return hashes_.size(); }
  size_t Hash(int32_t e) const { return hashes_[static_cast<size_t>(e)]; }
  /// First entry of h's bucket (-1 if none); walk on with Next. A bucket
  /// may hold other full hashes, so callers compare Hash(e) with h.
  int32_t First(size_t h) const {
    return heads_.empty() ? -1 : heads_[h & mask_];
  }
  int32_t Next(int32_t e) const { return next_[static_cast<size_t>(e)]; }

  /// Sizes the directory for `n` entries, so inserting up to n regrows
  /// nothing.
  void Reserve(size_t n);
  /// Appends an entry with hash `h` (duplicates allowed); returns it.
  int32_t Insert(size_t h);
  /// The first entry with hash `h` for which same(entry) holds, else a
  /// new entry: returns {entry, inserted}.
  template <typename Same>
  std::pair<int32_t, bool> FindOrInsert(size_t h, const Same& same) {
    for (int32_t e = First(h); e >= 0; e = Next(e)) {
      if (Hash(e) == h && same(e)) return {e, false};
    }
    return {Insert(h), true};
  }

 private:
  /// Appends entry `e` to the tail of its bucket's chain.
  void Link(int32_t e);

  std::vector<size_t> hashes_;  // [entry]
  std::vector<int32_t> next_;   // [entry] -> next in chain or -1
  std::vector<int32_t> heads_;  // [bucket] -> first entry or -1
  std::vector<int32_t> tails_;  // [bucket] -> last entry or -1
  size_t mask_ = 0;
};

/// The result of executing one statement: a table of values for
/// retrieves, a message plus affected-count for updates and DDL.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<object::Value>> rows;
  std::string message;
  size_t affected = 0;

  /// Plain-text rendering (column header + one line per row). Reference
  /// values print as "ref(#oid)"; use Database::Format for resolved
  /// printing.
  std::string ToString() const;
};

/// Shared mutable state of one database, threaded through binder,
/// optimizer and executor.
struct ExecContext {
  extra::Catalog* catalog = nullptr;
  object::ObjectHeap* heap = nullptr;
  adt::Registry* adts = nullptr;
  FunctionManager* functions = nullptr;
  auth::AuthManager* auth = nullptr;
  index::IndexManager* indexes = nullptr;
  std::string current_user = auth::AuthManager::kDba;
  const std::map<std::string, ExprPtr>* session_ranges = nullptr;
  /// Function/procedure recursion depth (guards runaway recursion).
  int call_depth = 0;
  /// All session execution knobs: optimizer rule switches, batch size,
  /// worker threads, isolation mode.
  SessionOptions options;
  /// Snapshot epoch of the current statement. Every heap / named-cell
  /// read resolves versions visible at this epoch. kMaxEpoch ("newest
  /// committed") is the exclusive-context default, under which legacy
  /// in-place execution behaves exactly as before versioning.
  uint64_t snapshot_epoch = object::kMaxEpoch;
  /// The snapshot write transaction of the current statement, or null
  /// when reading or executing under the exclusive lock. Mutations
  /// stage copy-on-write versions into it instead of mutating in place.
  StatementTxn* txn = nullptr;
  /// Cumulative per-operator registry series (may be null: standalone
  /// executors in tests run without a registry).
  const OperatorMetrics* op_metrics = nullptr;
  /// Per-statement phase trace; set by the session around a statement
  /// execution, consumed by the top-level (call_depth == 0) executor.
  obs::StmtTrace* trace = nullptr;
  /// Shared worker pool for morsel-driven intra-query parallelism (null
  /// = serial execution only; worker contexts null it out so nested
  /// executions never re-enter the scheduler).
  util::ThreadPool* exec_pool = nullptr;
  /// The owning session's live-activity slot (null for standalone
  /// executors). The top-level executor publishes phase transitions,
  /// row/batch progress and morsel progress into it; worker contexts
  /// keep the pointer so parallel scans report progress too.
  obs::ActivitySlot* activity = nullptr;
};

/// Executes bound EXCESS statements (retrieve and all updates) against
/// the object heap, with batch-at-a-time nested iteration over plan steps,
/// two-phase evaluation of partitioned aggregates, EXCESS function /
/// procedure invocation with definer rights, ADT dispatch, index
/// maintenance and authorization checks.
class Executor {
 public:
  /// Prebound parameter values/types (function & procedure bodies).
  struct ParamEnv {
    std::map<std::string, object::Value> values;
    std::map<std::string, const extra::Type*> types;
  };

  explicit Executor(ExecContext* ctx);

  /// Executes a retrieve / append / delete / replace / assign / execute
  /// statement. DDL is handled by Database.
  util::Result<QueryResult> Execute(const Stmt& stmt);
  util::Result<QueryResult> Execute(const Stmt& stmt, const ParamEnv& params);

  /// Binds and optimizes `stmt` without executing it. `prebound` names
  /// (statement parameters `$n`, function/procedure parameters) are left
  /// to be resolved from the runtime environment. The (query, plan) pair
  /// may be cached and re-executed any number of times via
  /// ExecutePrepared as long as the schema does not change.
  util::Status PlanStatement(const Stmt& stmt,
                             const std::set<std::string>& prebound,
                             BoundQuery* query, Plan* plan);

  /// Executes a statement through a previously computed (query, plan)
  /// pair — the prepared-statement fast path, skipping lexing, parsing,
  /// binding and optimization. Authorization is (re-)checked on every
  /// call, so grants/revokes between executions are honored.
  util::Result<QueryResult> ExecutePrepared(const Stmt& stmt,
                                            const BoundQuery& query,
                                            const Plan& plan,
                                            const ParamEnv& params);

  /// Evaluates an expression that may reference named objects and
  /// parameters but no range variables (create-initializers etc.).
  util::Result<object::Value> EvalStandalone(const Expr& expr,
                                             const ParamEnv& params = {});

  /// Builds a value of declared type `type` from an expression outside
  /// any query (create-initializers; handles tuple/set/array literals
  /// and own-ref construction).
  util::Result<object::Value> BuildStandalone(const Expr& expr,
                                              const extra::Type* type);

  /// The plan chosen for the most recent Execute (for EXPLAIN-style
  /// inspection by tests and benchmarks).
  const std::string& last_plan() const { return last_plan_; }

  /// Per-step actuals of the most recent plan execution (EXPLAIN
  /// ANALYZE; pass to Plan::Explain for the annotated rendering).
  const PlanRuntime& last_run_stats() const { return run_stats_; }

  /// The default (unassigned) value of a declared type: empty set, a
  /// null-filled fixed array, an empty variable array, or NULL.
  static object::Value DefaultValue(const extra::Type* type);

  /// Coerces `v` to declared type `type` (int/float widening, string →
  /// enum, char-length checks, subtype checks for tuples/refs). Public
  /// so PreparedStatement::Bind can validate parameter values early.
  util::Result<object::Value> CoerceValue(object::Value v,
                                          const extra::Type* type) const;

 private:
  // Environment: a binding stack (statement vars, aggregate/quantifier
  // locals, parameters are seeded at the bottom).
  struct Env {
    std::vector<std::pair<std::string, object::Value>> stack;
    const ParamEnv* params = nullptr;

    const object::Value* Find(const std::string& name) const {
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->first == name) return &it->second;
      }
      if (params != nullptr) {
        auto pit = params->values.find(name);
        if (pit != params->values.end()) return &pit->second;
      }
      return nullptr;
    }
  };

  /// A resolved assignable location: a pointer to a stored Value plus
  /// the statically declared type at that position (may be null), the
  /// named extent it belongs to (for index maintenance; empty if none)
  /// and the heap object owning the location (kInvalidOid when owned by
  /// a named entity).
  struct LValue {
    object::Value* slot = nullptr;
    const extra::Type* declared_type = nullptr;
    std::string extent;
    object::Oid owner = object::kInvalidOid;
  };

  // --- statement execution (all take an already bound + planned query) ---
  util::Result<QueryResult> ExecRetrieve(const Stmt& stmt,
                                         const BoundQuery& query,
                                         const Plan& plan, Env* env);
  util::Result<QueryResult> ExecAppend(const Stmt& stmt,
                                       const BoundQuery& query,
                                       const Plan& plan, Env* env);
  util::Result<QueryResult> ExecDelete(const Stmt& stmt,
                                       const BoundQuery& query,
                                       const Plan& plan, Env* env);
  util::Result<QueryResult> ExecReplace(const Stmt& stmt,
                                        const BoundQuery& query,
                                        const Plan& plan, Env* env);
  util::Result<QueryResult> ExecAssign(const Stmt& stmt,
                                       const BoundQuery& query,
                                       const Plan& plan, Env* env);
  util::Result<QueryResult> ExecProcedureCall(const Stmt& stmt,
                                              const BoundQuery& query,
                                              const Plan& plan, Env* env);
  /// Routes a bound statement to the matching Exec* method.
  util::Result<QueryResult> DispatchBound(const Stmt& stmt,
                                          const BoundQuery& query,
                                          const Plan& plan, Env* env);
  /// DispatchBound plus phase timing / annotated-plan capture into
  /// ctx_->trace (top-level statements only; nested function/procedure
  /// executions leave the trace to their caller).
  util::Result<QueryResult> TimedDispatch(const Stmt& stmt,
                                          const BoundQuery& query,
                                          const Plan& plan, Env* env);

  // --- plan execution ---
  /// PlanStatement + privilege checks + last_plan_ (the one-shot path).
  util::Result<BoundQuery> BindAndPlan(const Stmt& stmt, const Env& env,
                                       Plan* plan);
  /// Authorization: retrieving bindings reads every root extent.
  util::Status CheckPlanPrivileges(const Plan& plan) const;
  /// '='-semantics equality for two non-NULL, non-reference hash-join
  /// keys (JoinRowHash screens out both): int/float compare numerically,
  /// enum<->string compare by label (mirrors EvalBinary's "=").
  util::Result<bool> JoinKeyEquals(const object::Value& a,
                                   const object::Value& b) const;
  /// Combined hash of row `r` of the join key columns `keys`, consistent
  /// with JoinKeyEquals (enums hash as their label so enum-vs-string
  /// probes land in the same bucket). Null when a key is NULL (NULL never
  /// joins); a reference key is a TypeError.
  static util::Result<std::optional<size_t>> JoinRowHash(
      const std::vector<const std::vector<object::Value>*>& keys, size_t r);

  /// Per-execution columnar state of one kHashJoin step: build-side key
  /// values and elements as flat parallel arrays, chained by a
  /// HashDirectory over their full combined-key hashes, so key
  /// hashing/comparison never touches node-based containers. Lives
  /// outside the (shared, immutable) Plan so cached plans stay safe to
  /// execute concurrently. Once built the table is immutable, so the
  /// morsel pipeline can share one instance read-only across workers;
  /// probe-side scratch (mutated per batch) lives in the per-worker
  /// Executor instead (probe_scratch_).
  struct JoinHashTable {
    bool built = false;
    std::vector<std::vector<object::Value>> key_cols;  // [key][entry]
    std::vector<object::Value> elements;               // [entry]
    HashDirectory dir;  // entry hashes, chains in build order
  };
  using BatchSink = std::function<util::Status(RowBatch&)>;
  /// Appends the columns of one surviving RowBatch to `out`, using the
  /// given executor/environment (the statement's own on the serial path,
  /// worker-local ones under the morsel scheduler). The two
  /// implementations are binding materialization (BoundQuery::vars
  /// order) and streaming projection.
  using RowEmit = std::function<util::Status(Executor* ex, Env* env,
                                             RowBatch& batch, RowBatch* out)>;
  /// Runs the plan pipeline: operators exchange RowBatch windows of
  /// SessionOptions::batch_size rows, and `emit` appends every surviving
  /// batch (columns in plan-step order) to the columns of `out`.
  /// Validates the session options, evaluates the plan's constant
  /// filters, then runs morsel-parallel when TryRunPlanParallel accepts
  /// the statement and serially otherwise (same rows, same order). Wall
  /// time is sampled per batch (StepRuntime::ShouldTimeBatch).
  util::Status RunPlanBatched(const Plan& plan, const BoundQuery& query,
                              Env* env, const RowEmit& emit, RowBatch* out);
  /// Per-batch accounting wrapper around ExpandStepBatch (and the
  /// end-of-pipeline case).
  util::Status RunStepBatched(const Plan& plan, size_t step_idx, RowBatch& in,
                              Env* env, std::vector<JoinHashTable>* tables,
                              const BatchSink& sink);
  util::Status ExpandStepBatch(const Plan& plan, size_t step_idx, RowBatch& in,
                               Env* env,
                               std::vector<JoinHashTable>* tables,
                               const BatchSink& sink);
  /// Builds the hash table of a kHashJoin step. The build side is
  /// resolved once; its elements are hashed in batch_cap_-sized chunks
  /// on up to `workers` threads (one chunk, on this thread, when the
  /// input is small or workers <= 1), concatenated in chunk order — so
  /// chains enumerate in element order whatever the worker count — and
  /// then chained into the bucket directory single-threaded.
  util::Status BuildJoinHashTable(const PlanStep& step,
                                      JoinHashTable* table, Env* env,
                                      int workers);
  /// Hashes the non-null elements [lo, hi) of a hash-join build side
  /// into the flat arrays of `out` (key columns, elements) and their
  /// key hashes into `hashes`, leaving out->dir alone. Elements whose
  /// key is NULL never join and are skipped.
  util::Status HashJoinBuildRange(const PlanStep& step,
                                  const std::vector<object::Value>& elems,
                                  size_t lo, size_t hi, Env* env,
                                  JoinHashTable* out,
                                  std::vector<size_t>* hashes);
  /// Records a batch_size > kMaxBatchSize clamp: remembers the
  /// requested value in run_stats_ (surfaced as a `\explain analyze`
  /// note), bumps exodus_exec_batch_size_clamped_total and logs a
  /// once-per-process stderr notice.
  void NoteBatchClamp(int requested);
  /// Applies a step's filters to `batch` in place (sequential
  /// short-circuit: filter i+1 only sees rows filter i passed).
  util::Status ApplyStepFilters(const PlanStep& step,
                                const std::vector<std::string>& names,
                                RowBatch* batch, Env* env);
  /// Column-at-a-time expression evaluation: `out` receives one value
  /// per batch row. Row-invariant expressions evaluate once and
  /// broadcast; attribute access and non-short-circuit operators run as
  /// tight per-batch loops; everything else (and/or, calls, aggregates,
  /// quantifiers) falls back to per-row Eval with the batch variables
  /// bound in `env` — same semantics, no per-column loop.
  util::Status EvalBatch(const Expr& expr,
                         const std::vector<std::string>& names,
                         const RowBatch& batch, Env* env,
                         std::vector<object::Value>* out);
  /// The one binding loop: pushes `names` onto env->stack once, then
  /// overwrites their values with each row of `batch` and calls body(r),
  /// stopping at the first error.
  util::Status ForEachRow(const std::vector<std::string>& names,
                          const RowBatch& batch, Env* env,
                          const std::function<util::Status(size_t)>& body);
  /// Zero-copy variant of EvalBatch: when `expr` is a direct reference
  /// to a batch variable, returns a pointer to the existing column;
  /// otherwise evaluates into `scratch` and returns &scratch. The
  /// result is invalidated by any mutation of `batch` or `scratch`.
  util::Result<const std::vector<object::Value>*> EvalBatchCol(
      const Expr& expr, const std::vector<std::string>& names,
      const RowBatch& batch, Env* env, std::vector<object::Value>* scratch);
  /// True if `expr` may reference any of the first `depth` batch
  /// variables (name scan; over-approximates under shadowing, which
  /// only costs the broadcast optimization, never correctness).
  static bool ReferencesBatchVar(const Expr& expr,
                                 const std::vector<std::string>& names,
                                 size_t depth);
  /// Materializes all bindings as one column per BoundQuery::vars entry,
  /// in that order (used by updates — mutate after enumeration — and by
  /// aggregate/sort/unique retrieves).
  util::Result<RowBatch> MaterializeRows(const Plan& plan,
                                         const BoundQuery& query, Env* env);
  /// Runs `body` once per binding row with the query's variables bound
  /// in `env`: the names are pushed once and their values overwritten
  /// per row. A query without variables has one empty binding (none
  /// when a constant filter fails). Makes `query` current throughout.
  util::Status ForEachBinding(
      const Plan& plan, const BoundQuery& query, Env* env,
      const std::function<util::Status(const RowBatch&, size_t)>& body);
  /// Evaluates every projection over `batch` and appends the values to
  /// `out`, which holds one column per projection, deep-copying
  /// composites.
  /// Evaluation columns live in proj_scratch_ so their capacity
  /// survives across batches.
  util::Status ProjectBatch(const Stmt& stmt,
                            const std::vector<std::string>& names,
                            const RowBatch& batch, Env* env, RowBatch* out);
  /// Columnar two-phase aggregation over the binding columns `b`
  /// (variables `names`): group keys live in flat per-key columns behind
  /// a HashDirectory and finished values are computed once per group.
  /// Returns one value column per query-level aggregate: one value per
  /// binding row (its group's value), or with `one_row` a single value
  /// (no aggregate has `over`, so all rows form one group; no rows
  /// finish an empty group).
  util::Result<std::vector<std::vector<object::Value>>>
  AccumulateAggregatesBatched(const std::vector<const Expr*>& qlevel,
                              const std::vector<std::string>& names,
                              const RowBatch& b, bool one_row, Env* env);

  // --- morsel-driven parallel execution — executor_parallel.cc ---
  /// Worker count the current statement resolves to: exec_threads, or
  /// hardware concurrency when 0 (the auto default).
  int ResolveExecThreads() const;
  /// Morsel scheduler, called by RunPlanBatched after its prologue:
  /// partitions the driving extent scan into batch_cap_-aligned
  /// morsels, runs the RunStepBatched pipeline on ResolveExecThreads()
  /// workers (pool tasks plus the calling thread, all claiming morsels
  /// from one atomic counter) against shared eagerly-built join tables,
  /// and concatenates per-morsel output columns in morsel order so row
  /// order matches the serial path. Returns false — without touching
  /// `out` — when the statement is not eligible (one worker, no
  /// pool, nested execution, non-scan driving step, or fewer than two
  /// morsels); the caller then runs the serial pipeline. Per-worker
  /// PlanRuntime counters are folded into run_stats_ at the end, so
  /// `\explain analyze` actuals stay exact under concurrency.
  util::Result<bool> TryRunPlanParallel(const Plan& plan,
                                        const BoundQuery& query, Env* env,
                                        const RowEmit& emit, RowBatch* out);
  /// Runs fn(0..total-1): total-1 pool tasks plus the calling thread as
  /// worker 0, returning after every invocation finished. Falls back to
  /// inline execution if the pool refuses a task (shutdown).
  void RunOnWorkers(int total, const std::function<void(int)>& fn);

  // --- expression evaluation ---
  util::Result<object::Value> Eval(const Expr& expr, Env* env);
  util::Result<object::Value> EvalBinary(const Expr& expr, Env* env);
  /// EvalBinary's operator application once both operands are evaluated
  /// (every operator except short-circuiting and/or). Shared between
  /// Eval and the batch loops so '=' / arithmetic / ADT semantics
  /// cannot diverge.
  util::Result<object::Value> ApplyBinary(const std::string& op,
                                          const object::Value& lhs,
                                          const object::Value& rhs);
  /// Prefix-operator application after operand evaluation (not / - /
  /// ADT prefix operators); shared like ApplyBinary.
  util::Result<object::Value> ApplyUnary(const std::string& op,
                                         const object::Value& v);
  util::Result<object::Value> EvalCall(const Expr& expr, Env* env);
  util::Result<object::Value> EvalAggregate(const Expr& expr, Env* env);
  util::Result<object::Value> EvalQuantified(const Expr& expr, Env* env);
  util::Result<object::Value> AttrAccess(const object::Value& base,
                                         const std::string& attr, Env* env);
  util::Result<bool> Truthy(const object::Value& v) const;

  /// Comparison with int/float and enum<->string coercions.
  util::Result<int> Compare(const object::Value& a,
                            const object::Value& b) const;

  /// Elements of a collection value (set or array; NULL -> empty).
  util::Result<std::vector<object::Value>> ElementsOf(
      const object::Value& v) const;

  /// Evaluates a local-binding range expression: a bare name that
  /// denotes a named collection yields the collection itself (even when
  /// an identically named range variable is in scope).
  util::Result<object::Value> EvalRange(const Expr& expr, Env* env);

  /// Calls an EXCESS function with evaluated arguments (definer rights,
  /// recursion guard). `args[0]` is the receiver for method-style calls.
  util::Result<object::Value> CallExcessFunction(
      const FunctionDef& def, std::vector<object::Value> args);

  /// Resolves late/early binding for function `name` with the given
  /// receiver expression and evaluated receiver value.
  util::Result<const FunctionDef*> ResolveFunction(
      const std::string& name, const Expr* receiver_expr,
      const object::Value* receiver_value, Env* env);

  /// Runtime tuple type of a value (deref'ing refs); nullptr if unknown.
  const extra::Type* RuntimeTupleType(const object::Value& v) const;

  // --- value construction / coercion ---
  util::Result<object::Value> BuildValue(const Expr& expr,
                                         const extra::Type* type, Env* env);
  /// Builds the field vector of a new object/tuple of type `type` from an
  /// assignment list; unassigned attributes get defaults.
  util::Result<std::vector<object::Value>> BuildFields(
      const extra::Type* type, const std::vector<Assignment>& assigns,
      Env* env);
  /// Marks every own-ref component reachable in (type, value) as owned by
  /// `owner` (one level of ownership transfer; nested literals were
  /// already owned during construction).
  util::Status OwnChildren(const extra::Type* type,
                           const object::Value& value, object::Oid owner);

  /// Resolves a path expression to an assignable location.
  util::Result<LValue> ResolveLValue(const Expr& expr, Env* env);

  // --- MVCC access helpers (all execution paths go through these) ---
  /// The heap object visible at the context's snapshot epoch (pending
  /// versions of the context's own txn included), or nullptr.
  const object::HeapObject* ReadObject(object::Oid oid) const;
  /// A named object's container value as the statement sees it: the
  /// staged cell under a snapshot txn, else the version at the snapshot
  /// epoch.
  const object::Value& NamedValue(const extra::NamedObject* named) const;
  /// Mutable container value of a named object: the clone-on-first-
  /// touch staged cell under a snapshot txn, the in-place newest value
  /// otherwise (exclusive contexts).
  object::Value* MutableNamedValue(extra::NamedObject* named);
  /// Index maintenance with statement-txn logging: inserts apply
  /// eagerly and are undone on rollback; erases are deferred to the GC
  /// sweep under a txn (concurrent snapshot readers may still resolve
  /// old versions through them) and immediate otherwise. An insert that
  /// exactly cancels a pending erase (replace keeping the key) drops
  /// the erase instead of double-entering.
  void IndexInsert(const std::string& set_name, const std::string& attr,
                   const object::Value& key, object::Oid oid);
  void IndexErase(const std::string& set_name, const std::string& attr,
                  const object::Value& key, object::Oid oid);

  // --- authorization ---
  util::Status CheckNamedPrivilege(const std::string& object,
                                   auth::Privilege priv) const;

  // --- key constraints ---
  /// Enforces the extent's declared key: no live member other than
  /// `exclude` may share `key_values` (positionally matching the
  /// extent's key_attrs). Members or candidates with any NULL key part
  /// are exempt. No-op for extents without keys.
  util::Status CheckKeyUnique(const std::string& extent,
                              const std::vector<object::Value>& key_values,
                              object::Oid exclude) const;
  /// Extracts `extent`'s key values from an object's (type, fields).
  /// Returns an empty vector when the extent has no key.
  std::vector<object::Value> KeyValuesOf(
      const std::string& extent, const extra::Type* type,
      const std::vector<object::Value>& fields) const;

  // --- aggregate machinery ---
  struct AggAccum {
    int64_t count = 0;
    double sum = 0;
    bool any_float = false;
    bool has_min = false;
    object::Value min_v;
    object::Value max_v;
    std::vector<object::Value> values;  // for median / custom set fns
    /// Values already accumulated, for `unique`-qualified aggregates
    /// (hashed: duplicate detection is O(1) per value, not a scan).
    std::unordered_set<object::Value, object::ValueHashFn, object::ValueEqFn>
        seen;
  };
  util::Status Accumulate(const Expr& agg, AggAccum* acc,
                          const object::Value& v) const;
  util::Result<object::Value> FinishAggregate(const Expr& agg,
                                              const AggAccum& acc) const;

  /// Partial aggregation state over one contiguous binding-row range:
  /// a flat group directory (first-occurrence order within the range)
  /// with per-group accumulators. `uniq_order` additionally records
  /// first-seen values in row order for `unique`-qualified aggregates,
  /// so merging re-accumulates them in exactly the order the serial
  /// path would have.
  struct AggPartial {
    std::vector<std::vector<object::Value>> gkey_cols;  // [over][group]
    HashDirectory groups;                               // [group]
    std::vector<AggAccum> accums;                       // [group]
    std::vector<std::vector<object::Value>> uniq_order;  // [group]
    std::vector<uint32_t> row_group;  // [row within the range]
  };
  /// Accumulates rows [row_begin, row_end) of one aggregate table into
  /// `out`, using precomputed columnar group-key hashes. Thread-safe
  /// for concurrent calls on disjoint ranges (touches no executor
  /// state). The single-range call is today's serial aggregation
  /// verbatim; the parallel path runs one range per worker and merges.
  util::Status AccumulateAggRange(
      const Expr& node,
      const std::vector<std::vector<object::Value>>& over_cols,
      const std::vector<object::Value>* args,
      const std::vector<size_t>& rhash, size_t row_begin, size_t row_end,
      AggPartial* out) const;
  /// Folds a partial accumulator into `into` (count/sum/min/max/values;
  /// unique aggregates merge through uniq_order re-accumulation
  /// instead, which this helper does not handle).
  util::Status MergeAccum(AggAccum* into, const AggAccum& from) const;

  /// True if the aggregate node is computed over the statement's binding
  /// rows (no local `from`, argument not a collection).
  bool IsQueryLevelAggregate(const Expr& agg) const;
  static void CollectAggregates(const Expr& expr,
                                std::vector<const Expr*>* out);
  /// True if the expression references range variables only inside the
  /// given aggregate nodes (the "all-aggregate projection" test).
  static bool VarsOnlyInsideAggs(const Expr& expr,
                                 const std::vector<const Expr*>& aggs);

  /// Folds one plan execution's actuals (run_stats_) into the
  /// cumulative per-operator registry series.
  void FlushOperatorMetrics(const Plan& plan) const;

  ExecContext* ctx_;
  Binder binder_;
  // Per-statement state.
  const BoundQuery* current_query_ = nullptr;
  std::map<std::string, const extra::Type*> param_types_;
  /// Query-level aggregate values of the running aggregate retrieve:
  /// EvalBatchCol resolves nodes[i] to cols[i]; a per-row Eval resolves
  /// it to cols[i][row], with `row` set by EvalBatch's per-row fallback.
  struct AggColumns {
    const std::vector<const Expr*>* nodes = nullptr;
    std::vector<std::vector<object::Value>> cols;
    size_t row = 0;
    /// The column of aggregate `node`, or null when it is not one.
    const std::vector<object::Value>* Find(const Expr* node) const;
  };
  AggColumns* agg_cols_ = nullptr;
  std::string last_plan_;
  /// Actuals of the most recent RunPlanBatched (reset at its start). One
  /// instance per Executor, so concurrent sessions executing one cached
  /// plan never share runtime state.
  PlanRuntime run_stats_;
  /// Validated rows-per-batch capacity of the current RunPlanBatched.
  size_t batch_cap_ = 1;
  /// Probe-side key scratch per kHashJoin step, reused across batches.
  /// Per-Executor (not per-JoinHashTable) so the morsel pipeline's
  /// workers can probe one shared table without racing on scratch.
  std::vector<std::vector<std::vector<object::Value>>> probe_scratch_;
  /// ProjectBatch's evaluation columns, one per projection (capacity
  /// survives across batches; each morsel worker has its own).
  std::vector<std::vector<object::Value>> proj_scratch_;
};

}  // namespace exodus::excess

#endif  // EXODUS_EXCESS_EXECUTOR_H_
