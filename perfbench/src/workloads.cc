#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "excess/database.h"
#include "excess/session.h"
#include "object/value.h"
#include "server/client.h"
#include "server/server.h"
#include "wal/wal_format.h"
#include "wal/wal_reader.h"

namespace perfbench {
namespace {

using exodus::Database;
using exodus::server::Client;
using exodus::server::RowsPayload;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double MicrosBetween(int64_t t0_ns, int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e3;
}

/// Latency charged to an operation that failed or returned a wrong
/// answer: it misses every latency limit.
constexpr double kFailedLatencyUs = 1e9;

/// Setups per run; setup_s is their median.
constexpr int kSetups = 5;
/// WAL recoveries per run; ingest's recover_s is their median.
constexpr int kRecoveries = 5;
/// Image loads timed between two sub-windows (RunWindow).
constexpr int kLoadsPerGap = 2;
/// Sub-windows a measured window is run as (RunWindow).
constexpr int kSubWindows = 10;

// ---------------------------------------------------------------------------
// Failure log (shared by every client thread)
// ---------------------------------------------------------------------------

std::mutex g_fail_mu;
int g_fail_logged = 0;

void LogFailure(const std::string& what) {
  std::lock_guard<std::mutex> lock(g_fail_mu);
  if (g_fail_logged++ < 8) std::cerr << "perfbench: FAILED " << what << "\n";
}

// ---------------------------------------------------------------------------
// The deterministic generator
// ---------------------------------------------------------------------------

/// SplitMix64: the seed expands into the dataset's constants and each
/// connection's key stream.
struct Rng {
  uint64_t s;
  uint64_t Next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
};

constexpr int kEmployees = 20000;
constexpr int kDepartments = 2000;
/// Salary threshold of the join and age threshold of the traversal: they
/// select ~10% and ~7% of the employees (~2,000 and ~4,700 reply rows).
constexpr int kJoinSalaryBelow = 50;
constexpr int kTraverseAgeBelow = 23;

/// Departments own 1..6 Projects (a set-valued `own ref` attribute);
/// Employees reference a Department and carry its id for the value join.
/// Every attribute is an affine function of the row number whose
/// coefficients come from the seed, so the benchmark can precompute
/// every answer the engine must return.
struct Dataset {
  int a_dept, b_dept, a_sal, b_sal, a_age, b_age, a_floor, b_floor, a_proj,
      b_proj, b_budget;

  explicit Dataset(uint64_t seed) {
    Rng r{seed * 0x2545f4914f6cdd1dULL + 17};
    // A coefficient coprime with the modulus makes the row number a
    // permutation modulo it: every value occurs equally often, so the
    // seed moves values between rows but leaves every query's row count
    // (and so its work) unchanged.
    auto coef = [&](int modulus) {
      int a = 1 + r.Below(997);
      while (std::gcd(a, modulus) != 1) ++a;
      return a;
    };
    a_dept = coef(kDepartments);  // exactly ten employees per department
    b_dept = r.Below(kDepartments);
    a_sal = coef(500);
    b_sal = r.Below(500);
    a_age = coef(45);
    b_age = r.Below(45);
    a_floor = coef(7);
    b_floor = r.Below(7);
    a_proj = coef(6);
    b_proj = r.Below(6);
    b_budget = r.Below(1000);
  }

  int DeptOf(int e) const { return (e * a_dept + b_dept) % kDepartments; }
  int Salary(int e) const { return (e * a_sal + b_sal) % 500; }
  int Age(int e) const { return 20 + (e * a_age + b_age) % 45; }
  int Floor(int d) const { return (d * a_floor + b_floor) % 7; }
  int Projects(int d) const { return 1 + (d * a_proj + b_proj) % 6; }
  int Budget(int d, int k) const { return (d * 37 + k * 11 + b_budget) % 1000; }

  static std::string Name(int e) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "e%05d", e);
    return buf;
  }

  int ProjectCount() const {
    int n = 0;
    for (int d = 0; d < kDepartments; ++d) n += Projects(d);
    return n;
  }

  /// The set-up program. Rows are generated inside the engine by
  /// set-oriented appends over a ten-row Digits set, so the load takes
  /// a handful of statements at default (snapshot) isolation.
  std::vector<std::string> SetupStatements() const {
    auto s = [](int v) { return std::to_string(v); };
    std::vector<std::string> out = {R"(
      define type Digit (v: int4, s: char[1])
      define type Project (pid: int4, budget: int4)
      define type Department (did: int4, floor: int4, projects: {own ref Project})
      define type Employee (name: char[16], eid: int4, age: int4,
                            salary: float8, dept_id: int4, dept: ref Department)
      create Digits : {Digit}
      create Departments : {Department}
      create Employees : {Employee}
    )"};
    for (int d = 0; d < 10; ++d) {
      out.push_back("append to Digits (v = " + s(d) + ", s = \"" + s(d) + "\")");
    }
    const std::string d4 = "(B.v * 1000 + C.v * 100 + D.v * 10 + E.v)";
    const std::string d5 = "(A.v * 10000 + " + d4.substr(1);
    out.push_back("append to Departments (did = " + d4 + ", floor = (" + d4 +
                  " * " + s(a_floor) + " + " + s(b_floor) +
                  ") % 7) from B in Digits, C in Digits, D in Digits, "
                  "E in Digits where " + d4 + " < " + s(kDepartments));
    out.push_back("append to X.projects (pid = X.did * 8 + K.v, budget = "
                  "(X.did * 37 + K.v * 11 + " + s(b_budget) +
                  ") % 1000) from X in Departments, K in Digits where K.v < "
                  "1 + (X.did * " + s(a_proj) + " + " + s(b_proj) + ") % 6");
    out.push_back(
        "append to Employees (name = \"e\" + A.s + B.s + C.s + D.s + E.s, "
        "eid = " + d5 + ", age = 20 + (" + d5 + " * " + s(a_age) + " + " +
        s(b_age) + ") % 45, salary = 1.0 * ((" + d5 + " * " + s(a_sal) +
        " + " + s(b_sal) + ") % 500), dept_id = (" + d5 + " * " + s(a_dept) +
        " + " + s(b_dept) + ") % " + s(kDepartments) +
        ") from A in Digits, B in Digits, C in Digits, D in Digits, "
        "E in Digits where " + d5 + " < " + s(kEmployees));
    out.push_back(
        "replace E (dept = X) from E in Employees, X in Departments "
        "where X.did = E.dept_id");
    out.push_back("create index EmpName on Employees (name) using hash");
    out.push_back("create index DeptId on Departments (did) using hash");
    return out;
  }
};

// ---------------------------------------------------------------------------
// Statements and answer checks
// ---------------------------------------------------------------------------

std::string LookupText(int e) {
  return "retrieve (E.eid, E.salary, E.age, E.dept.floor) from E in "
         "Employees where E.name = \"" + Dataset::Name(e) + "\"";
}

/// Prepared lookups rotate over this many texts (distinct range-variable
/// names), all resident in the engine's 128-entry plan cache.
constexpr int kPreparedTexts = 64;

std::string PreparedText(int k) {
  const std::string v = "P" + std::to_string(k);
  return "retrieve (" + v + ".eid, " + v + ".salary, " + v + ".age, " + v +
         ".dept.floor) from " + v + " in Employees where " + v +
         ".name = $1";
}

const std::string kJoinText =
    "retrieve (E.name, D.floor) from E in Employees, D in Departments "
    "where D.did = E.dept_id and E.salary < " +
    std::to_string(kJoinSalaryBelow) + ".0";
const std::string kAggText =
    "retrieve unique (E.dept_id, s = sum(E.salary over E.dept_id), "
    "u = count(unique E.age over E.dept_id)) from E in Employees";
const std::string kTraverseText =
    "retrieve (E.name, P.pid, P.budget) from E in Employees, "
    "P in E.dept.projects where E.age < " + std::to_string(kTraverseAgeBelow);
const char* kChecksumText =
    "retrieve (c = count(E.eid), s = sum(E.eid), a = sum(E.age), "
    "f = sum(E.dept.floor)) from E in Employees";

double Cell(const RowsPayload& r, size_t row, size_t col) {
  if (row >= r.rows.size() || col >= r.rows[row].size()) return -1e300;
  const std::string& c = r.rows[row][col];
  char* end = nullptr;
  double v = std::strtod(c.c_str(), &end);
  return end == c.c_str() ? -1e300 : v;
}

double ColumnSum(const RowsPayload& r, size_t col) {
  double sum = 0;
  for (size_t i = 0; i < r.rows.size(); ++i) sum += Cell(r, i, col);
  return sum;
}

bool CheckLookup(const Dataset& ds, const RowsPayload& r, int e) {
  return r.rows.size() == 1 && Cell(r, 0, 0) == e &&
         Cell(r, 0, 1) == ds.Salary(e) && Cell(r, 0, 2) == ds.Age(e) &&
         Cell(r, 0, 3) == ds.Floor(ds.DeptOf(e));
}

/// Answers of the three analytic statements, precomputed from the
/// generator: row count plus one column checksum each (the aggregate
/// also checks its second aggregate column).
struct AnalyticExpect {
  double join_rows = 0, join_floor_sum = 0;
  double agg_groups = 0, agg_salary_sum = 0, agg_unique_ages = 0;
  double trav_rows = 0, trav_budget_sum = 0;
};

AnalyticExpect ExpectAnalytic(const Dataset& ds) {
  AnalyticExpect x;
  std::vector<std::set<int>> ages(kDepartments);
  for (int e = 0; e < kEmployees; ++e) {
    const int d = ds.DeptOf(e);
    ages[d].insert(ds.Age(e));
    x.agg_salary_sum += ds.Salary(e);
    if (ds.Salary(e) < kJoinSalaryBelow) {
      x.join_rows += 1;
      x.join_floor_sum += ds.Floor(d);
    }
    if (ds.Age(e) < kTraverseAgeBelow) {
      x.trav_rows += ds.Projects(d);
      for (int k = 0; k < ds.Projects(d); ++k) x.trav_budget_sum += ds.Budget(d, k);
    }
  }
  for (const auto& a : ages) {
    if (a.empty()) continue;
    x.agg_groups += 1;
    x.agg_unique_ages += static_cast<double>(a.size());
  }
  return x;
}

/// The checksum row expected of the Employees extent at its set-up size.
struct Checksum {
  double count = 0, eid_sum = 0, age_sum = 0, floor_sum = 0;
  bool operator==(const Checksum&) const = default;
  std::string ToString() const {
    return "count=" + FormatNumber(count) + " eid_sum=" + FormatNumber(eid_sum) +
           " age_sum=" + FormatNumber(age_sum) +
           " floor_sum=" + FormatNumber(floor_sum);
  }
};

Checksum ExpectChecksum(const Dataset& ds) {
  Checksum c;
  for (int e = 0; e < kEmployees; ++e) {
    c.count += 1;
    c.eid_sum += e;
    c.age_sum += ds.Age(e);
    c.floor_sum += ds.Floor(ds.DeptOf(e));
  }
  return c;
}

Checksum ParseChecksum(const RowsPayload& r) {
  return {Cell(r, 0, 0), Cell(r, 0, 1), Cell(r, 0, 2), Cell(r, 0, 3)};
}

/// The same checksum read through the embedding API (recovered
/// databases are checked without a server).
Checksum ChecksumOf(Database* db) {
  auto r = db->Execute(kChecksumText);
  if (!r.ok() || r->rows.size() != 1) return {};
  auto session = db->CreateSession();
  if (!session.ok()) return {};
  RowsPayload p;
  p.rows = (*session)->FormatRows(*r);
  return ParseChecksum(p);
}

// ---------------------------------------------------------------------------
// Measurement plumbing
// ---------------------------------------------------------------------------

/// Samples of one operation type in one window.
struct OpSamples {
  std::vector<double> lat_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double rows = 0;

  void Record(double us, bool ok, double rows_received) {
    ++attempted;
    if (!ok) ++failed;
    lat_us.push_back(ok ? us : kFailedLatencyUs);
    rows += rows_received;
  }
  void Merge(const OpSamples& o) {
    lat_us.insert(lat_us.end(), o.lat_us.begin(), o.lat_us.end());
    attempted += o.attempted;
    failed += o.failed;
    rows += o.rows;
  }
  double MeanUs() const {
    double sum = 0;
    for (double v : lat_us) sum += v;
    return Ratio(sum, static_cast<double>(lat_us.size()));
  }
};

constexpr int kOps = 3;

/// One measured window.
struct Window {
  OpSamples ops[kOps];
  double elapsed_s = 0;
  /// Operations counted by ops_per_s (see each workload).
  uint64_t completed = 0;
  /// Open-loop reads (ingest): latency from each read's due time, and
  /// the generator's lateness. op3 itself is timed from the send.
  std::vector<double> due_us;
  std::vector<double> late_us;
  std::vector<std::string> trace_lines;
  /// Client::Metrics() increments summed over this window's sub-windows.
  MetricSnapshot counters;
  double live_versions_peak = 0;
  double rss_peak_mb = 0;
  /// Times of the set-up image loads between sub-windows.
  std::vector<double> load_s;
  bool loads_ok = true;
  /// Per sub-window: the completion rate and each op's p50 and p90. The
  /// end-to-end metrics are their medians, so a neighbour that slows the
  /// machine for part of a run moves a few sub-windows, not the result.
  std::vector<double> sub_rate;
  std::vector<double> sub_p50[kOps], sub_p90[kOps];

  /// Folds one sub-window into this window.
  void Absorb(const Window& part) {
    for (int i = 0; i < kOps; ++i) {
      ops[i].Merge(part.ops[i]);
      const Summary s = Summarize(part.ops[i].lat_us);
      sub_p50[i].push_back(s.p50);
      sub_p90[i].push_back(s.p90);
    }
    sub_rate.push_back(Ratio(static_cast<double>(part.completed), part.elapsed_s));
    elapsed_s += part.elapsed_s;
    completed += part.completed;
    due_us.insert(due_us.end(), part.due_us.begin(), part.due_us.end());
    late_us.insert(late_us.end(), part.late_us.begin(), part.late_us.end());
  }
};

/// How long a window runs: point and analytic run for a time, ingest
/// for a fixed number of appends per writer (so the WAL it leaves behind
/// always has the same length).
struct WindowSpec {
  double seconds = 0;
  int appends_per_writer = 0;
};

/// A workload: its client connections and the load they generate.
class Workload {
 public:
  explicit Workload(const Dataset& ds, uint64_t seed) : ds_(ds), seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Names of the three operation types (op1..op3).
  virtual std::vector<std::string> OpNames() const = 0;
  virtual int Connections() const = 0;
  /// Whether the database journals (EnableJournal + a set-up checkpoint).
  virtual bool Journaled() const { return false; }
  /// Runs the load of one window.
  virtual void Run(const WindowSpec& spec, Window* w) = 0;
  /// The op type a trace line belongs to, or -1.
  virtual int Classify(const TraceLine& t) const = 0;
  /// Work after the last window (ingest deletes its outstanding rows);
  /// false when it failed.
  virtual bool Drain() { return true; }
  virtual std::string OpsPerSecondMeaning() const = 0;

  bool Connect(uint16_t port, std::string* err) {
    clients_.clear();
    for (int i = 0; i < Connections(); ++i) {
      auto c = Client::Connect("127.0.0.1", port);
      if (!c.ok()) {
        *err = c.status().ToString();
        return false;
      }
      clients_.push_back(std::move(*c));
    }
    return true;
  }
  void Disconnect() { clients_.clear(); }

 protected:
  Rng StreamFor(int connection) {
    return Rng{seed_ * 1000003 + static_cast<uint64_t>(connection) * 7919 +
               static_cast<uint64_t>(++streams_) * 104729};
  }

  const Dataset& ds_;
  uint64_t seed_;
  int streams_ = 0;
  std::vector<std::unique_ptr<Client>> clients_;
};

// --- point ------------------------------------------------------------------

/// Two closed-loop connections alternate a one-shot indexed lookup
/// (op1) with a server-prepared one: Prepare (op2, a plan-cache hit:
/// the texts rotate over 64 entries) then Execute (op3), then Close.
/// Every lookup dereferences E.dept once. ops_per_s counts lookups.
class PointWorkload : public Workload {
 public:
  using Workload::Workload;
  std::vector<std::string> OpNames() const override {
    return {"lookup", "prepare", "execute"};
  }
  int Connections() const override { return 2; }
  std::string OpsPerSecondMeaning() const override {
    return "indexed lookups (one-shot + prepared) per second";
  }

  void Run(const WindowSpec& spec, Window* w) override {
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(spec.seconds));
    std::vector<Window> local(clients_.size());
    std::vector<Rng> rngs;
    for (size_t c = 0; c < clients_.size(); ++c) rngs.push_back(StreamFor(static_cast<int>(c)));
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([this, c, deadline, &local, &rngs] {
        Client* client = clients_[c].get();
        Rng& rng = rngs[c];
        Window& out = local[c];
        int text = static_cast<int>(c);
        while (Clock::now() < deadline) {
          const int e1 = rng.Below(kEmployees);
          int64_t t = NowNs();
          auto r = client->Query(LookupText(e1));
          bool ok = r.ok() && CheckLookup(ds_, *r, e1);
          if (!ok) LogFailure("one-shot lookup " + Dataset::Name(e1));
          out.ops[0].Record(MicrosBetween(t, NowNs()), ok, r.ok() ? r->rows.size() : 0);

          const int e2 = rng.Below(kEmployees);
          t = NowNs();
          auto stmt = client->Prepare(PreparedText(text));
          const int64_t prepared = NowNs();
          out.ops[1].Record(MicrosBetween(t, prepared), stmt.ok(), 0);
          if (!stmt.ok()) LogFailure("prepare: " + stmt.status().ToString());
          bool exec_ok = false;
          size_t rows = 0;
          t = NowNs();
          if (stmt.ok()) {
            auto x = client->Execute(
                *stmt, {exodus::object::Value::String(Dataset::Name(e2))});
            exec_ok = x.ok() && CheckLookup(ds_, *x, e2);
            rows = x.ok() ? x->rows.size() : 0;
          }
          const int64_t executed = NowNs();
          if (stmt.ok() && !client->CloseStatement(*stmt).ok()) exec_ok = false;
          if (!exec_ok) LogFailure("prepared lookup " + Dataset::Name(e2));
          out.ops[2].Record(MicrosBetween(t, executed), exec_ok, static_cast<double>(rows));
          text = (text + 2) % kPreparedTexts;
          out.completed += 2;
        }
      });
    }
    for (auto& t : threads) t.join();
    w->elapsed_s = SecondsSince(t0);
    for (const Window& l : local) {
      for (int i = 0; i < kOps; ++i) w->ops[i].Merge(l.ops[i]);
      w->completed += l.completed;
    }
  }

  int Classify(const TraceLine& t) const override {
    if (t.statement.rfind("retrieve", 0) != 0) return -1;
    return t.cached_plan ? 2 : 0;
  }
};

// --- analytic ---------------------------------------------------------------

/// One closed-loop connection rotating through the complex-object query
/// mix: the filtered hash join (op1), the grouped `over` aggregate with
/// `unique` (op2) and the ref-path traversal unnesting each
/// Department's Projects (op3). ops_per_s counts statements.
class AnalyticWorkload : public Workload {
 public:
  AnalyticWorkload(const Dataset& ds, uint64_t seed)
      : Workload(ds, seed), expect_(ExpectAnalytic(ds)) {}
  std::vector<std::string> OpNames() const override {
    return {"join", "agg", "traverse"};
  }
  int Connections() const override { return 1; }
  std::string OpsPerSecondMeaning() const override {
    return "analytic statements per second";
  }

  bool CheckReply(int op, const RowsPayload& r) const {
    switch (op) {
      case 0:
        return r.rows.size() == expect_.join_rows &&
               ColumnSum(r, 1) == expect_.join_floor_sum;
      case 1:
        return r.rows.size() == expect_.agg_groups &&
               ColumnSum(r, 1) == expect_.agg_salary_sum &&
               ColumnSum(r, 2) == expect_.agg_unique_ages;
      default:
        return r.rows.size() == expect_.trav_rows &&
               ColumnSum(r, 2) == expect_.trav_budget_sum;
    }
  }

  void Run(const WindowSpec& spec, Window* w) override {
    const std::string* texts[kOps] = {&kJoinText, &kAggText, &kTraverseText};
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(spec.seconds));
    Client* client = clients_[0].get();
    while (Clock::now() < deadline) {
      const int i = next_;
      next_ = (next_ + 1) % kOps;
      const int64_t t = NowNs();
      auto r = client->Query(*texts[i]);
      const int64_t done = NowNs();
      const bool ok = r.ok() && CheckReply(i, *r);
      if (!ok) {
        LogFailure(std::string(OpNames()[i]) + ": " +
                   (r.ok() ? std::to_string(r->rows.size()) + " rows"
                           : r.status().ToString()));
      }
      w->ops[i].Record(MicrosBetween(t, done), ok, r.ok() ? r->rows.size() : 0);
      ++w->completed;
    }
    w->elapsed_s = SecondsSince(t0);
  }

  int Classify(const TraceLine& t) const override {
    if (t.statement.find("sum(") != std::string::npos) return 1;
    if (t.statement.find("projects") != std::string::npos) return 2;
    if (t.statement.find("Departments") != std::string::npos) return 0;
    return -1;
  }

 private:
  AnalyticExpect expect_;
  int next_ = 0;  // the rotation continues across windows
};

// --- ingest -----------------------------------------------------------------

/// Three closed-loop writers each append a single Employee (op1, with a
/// `ref Department` found through the DeptId index) and delete the row
/// they appended kLag appends earlier (op2), so the extent stays at its
/// set-up size. A fourth connection is an open-loop reader issuing
/// one-shot indexed lookups every kReadIntervalUs (op3, timed from the
/// send; the latency from each read's due time is kept beside it). The
/// database journals at the default `group` durability. ops_per_s
/// counts write statements.
class IngestWorkload : public Workload {
 public:
  static constexpr int kWriters = 3;
  static constexpr int kLag = 8;
  static constexpr int64_t kReadIntervalUs = 1000;

  using Workload::Workload;
  std::vector<std::string> OpNames() const override {
    return {"append", "delete", "read"};
  }
  int Connections() const override { return kWriters + 1; }
  bool Journaled() const override { return true; }
  std::string OpsPerSecondMeaning() const override {
    return "write statements (appends + deletes) per second";
  }

  static std::string RowName(int writer, int i) {
    return "w" + std::to_string(writer) + "_" + std::to_string(i);
  }
  static std::string AppendText(int writer, int i) {
    const std::string d = std::to_string((writer * 7919 + i * 13) % kDepartments);
    return "append to Employees (name = \"" + RowName(writer, i) +
           "\", eid = -1, age = 99, salary = 1.0, dept_id = " + d +
           ", dept = X) from X in Departments where X.did = " + d;
  }
  static std::string DeleteText(int writer, int i) {
    return "delete E from E in Employees where E.name = \"" +
           RowName(writer, i) + "\"";
  }

  void Run(const WindowSpec& spec, Window* w) override {
    std::vector<Window> local(kWriters + 1);
    std::atomic<int> writers_left{kWriters};
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (int wr = 0; wr < kWriters; ++wr) {
      threads.emplace_back([this, wr, &spec, &local, &writers_left] {
        Client* client = clients_[static_cast<size_t>(wr)].get();
        Window& out = local[static_cast<size_t>(wr)];
        for (int n = 0; n < spec.appends_per_writer; ++n) {
          const int i = next_[wr]++;
          int64_t t = NowNs();
          auto a = client->Query(AppendText(wr, i));
          bool ok = a.ok() && a->affected == 1;
          if (!ok) LogFailure("append " + RowName(wr, i));
          out.ops[0].Record(MicrosBetween(t, NowNs()), ok, 0);
          ++out.completed;
          if (i < kLag) continue;
          t = NowNs();
          auto d = client->Query(DeleteText(wr, i - kLag));
          ok = d.ok() && d->affected == 1;
          if (!ok) LogFailure("delete " + RowName(wr, i - kLag));
          out.ops[1].Record(MicrosBetween(t, NowNs()), ok, 0);
          ++out.completed;
        }
        writers_left.fetch_sub(1);
      });
    }
    threads.emplace_back([this, &local, &writers_left, rng = StreamFor(kWriters)]() mutable {
      Client* client = clients_[kWriters].get();
      Window& out = local[kWriters];
      std::vector<OpenLoopSample> samples;
      std::vector<bool> answered;
      const int64_t start = NowNs();
      for (int64_t i = 0; writers_left.load() > 0; ++i) {
        OpenLoopSample s;
        s.due_ns = DueNs(start, kReadIntervalUs * 1000, i);
        const int64_t now = NowNs();
        if (now < s.due_ns) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(s.due_ns - now));
        }
        const int e = rng.Below(kEmployees);
        s.sent_ns = NowNs();
        auto r = client->Query(LookupText(e));
        s.done_ns = NowNs();
        const bool ok = r.ok() && CheckLookup(ds_, *r, e);
        if (!ok) LogFailure("read " + Dataset::Name(e));
        samples.push_back(s);
        answered.push_back(ok);
      }
      OpenLoopTimes times = AccountOpenLoop(samples);
      for (size_t i = 0; i < samples.size(); ++i) {
        out.ops[2].Record(times.service_us[i], answered[i], 1);
      }
      out.due_us = std::move(times.latency_us);
      out.late_us = std::move(times.late_us);
    });
    for (auto& t : threads) t.join();
    w->elapsed_s = SecondsSince(t0);
    for (const Window& l : local) {
      for (int i = 0; i < kOps; ++i) w->ops[i].Merge(l.ops[i]);
      w->completed += l.completed;
      w->due_us.insert(w->due_us.end(), l.due_us.begin(), l.due_us.end());
      w->late_us.insert(w->late_us.end(), l.late_us.begin(), l.late_us.end());
    }
  }

  bool Drain() override {
    bool ok = true;
    for (int wr = 0; wr < kWriters; ++wr) {
      for (int i = std::max(0, next_[wr] - kLag); i < next_[wr]; ++i) {
        auto d = clients_[static_cast<size_t>(wr)]->Query(DeleteText(wr, i));
        if (!d.ok() || d->affected != 1) {
          LogFailure("drain delete " + RowName(wr, i));
          ok = false;
        }
      }
    }
    return ok;
  }

  /// WAL records the windows and the drain leave: one per append and
  /// one per delete.
  uint64_t ExpectedRecords() const {
    uint64_t n = 0;
    for (int wr = 0; wr < kWriters; ++wr) n += 2 * static_cast<uint64_t>(next_[wr]);
    return n;
  }

  int Classify(const TraceLine& t) const override {
    if (t.statement.rfind("append", 0) == 0) return 0;
    if (t.statement.rfind("delete", 0) == 0) return 1;
    if (t.statement.rfind("retrieve", 0) == 0) return 2;
    return -1;
  }

 private:
  int next_[kWriters] = {};
};

// ---------------------------------------------------------------------------
// Set-up, windows, restart
// ---------------------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Dataset& ds, uint64_t seed) {
  if (name == "point") return std::make_unique<PointWorkload>(ds, seed);
  if (name == "analytic") return std::make_unique<AnalyticWorkload>(ds, seed);
  if (name == "ingest") return std::make_unique<IngestWorkload>(ds, seed);
  return nullptr;
}

/// Everything one set-up builds. The server is declared after the
/// database so it is destroyed (stopped, connections closed) first.
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<exodus::server::Server> server;
  std::string wal_path;
  std::string checkpoint_path;
  double checkpoint_s = 0;
};

uint64_t WalBytes(const std::string& wal_path) {
  uint64_t bytes = 0;
  auto segments = exodus::wal::ListSegments(wal_path);
  if (!segments.ok()) return 0;
  std::error_code ec;
  for (const std::string& p : *segments) {
    auto n = std::filesystem::file_size(p, ec);
    if (!ec) bytes += n;
  }
  return bytes;
}

/// Builds the database, writes its image (ingest: journals it and takes
/// the set-up checkpoint; the others: Save), starts the server and
/// connects the workload's clients. Returns the set-up time, or a
/// negative value on failure.
double SetUp(const Dataset& ds, Workload* wl, const std::string& dir,
             Instance* inst, std::string* err) {
  const auto t0 = Clock::now();
  inst->db = std::make_unique<Database>();
  for (const std::string& stmt : ds.SetupStatements()) {
    auto r = inst->db->Execute(stmt);
    if (!r.ok()) {
      *err = "set-up statement failed: " + r.status().ToString();
      return -1;
    }
  }
  inst->checkpoint_path = dir + "/image.ckpt";
  exodus::util::Status st;
  if (wl->Journaled()) {
    inst->wal_path = dir + "/journal.wal";
    st = inst->db->EnableJournal(inst->wal_path);
  }
  if (st.ok()) {
    const auto c0 = Clock::now();
    st = wl->Journaled() ? inst->db->Checkpoint(inst->checkpoint_path)
                         : inst->db->Save(inst->checkpoint_path);
    inst->checkpoint_s = SecondsSince(c0);
  }
  if (!st.ok()) {
    *err = "journal/image: " + st.ToString();
    return -1;
  }
  inst->server = std::make_unique<exodus::server::Server>(
      inst->db.get(), exodus::server::ServerOptions{});
  st = inst->server->Start();
  if (!st.ok()) {
    *err = "server start: " + st.ToString();
    return -1;
  }
  if (!wl->Connect(inst->server->port(), err)) return -1;
  return SecondsSince(t0);
}

/// Peak resident set size since the last ResetPeakRss (or process
/// start), in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Restarts the kernel's peak-RSS count (clear_refs "5"), so a window's
/// peak excludes set-up. Where the kernel refuses, the peak stays the
/// process-wide one.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Runs one window as equal sub-windows and folds each into `plain`.
/// After each sub-window, with the clients idle, it times kLoadsPerGap
/// Database::Loads of the set-up image (into `plain`): spread over the
/// window, those loads see the same machine as the load does, where
/// back-to-back loads would see one moment of it. The first load is
/// also checked against `expected`.
///
/// With a `traced` window the run is twice as many sub-windows, and every
/// second one runs with the trace sink installed and folds into `traced`
/// instead, with the Client::Metrics() increments across it (taken
/// through `monitor`). Adjacent traced and untraced sub-windows see the
/// same machine, so their rates compare the tracing cost alone.
void RunWindow(Workload* wl, Instance* inst, Client* monitor,
               const WindowSpec& spec, const Checksum& expected, Window* plain,
               Window* traced) {
  std::mutex trace_mu;
  std::atomic<bool> sampling{true};
  std::atomic<uint64_t> peak{0};
  std::thread sampler([&] {
    while (sampling.load()) {
      peak.store(std::max(peak.load(), inst->db->heap()->version_count()));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  const int subs = traced != nullptr ? 2 * kSubWindows : kSubWindows;
  const WindowSpec sub{spec.seconds / subs, spec.appends_per_writer / subs};
  for (int k = 0; k < subs; ++k) {
    const bool trace = traced != nullptr && k % 2 == 1;
    Window* w = trace ? traced : plain;
    MetricSnapshot before;
    if (trace) {
      if (auto m = monitor->Metrics(); m.ok()) before = ParsePrometheus(*m);
      std::vector<std::string>* lines = &traced->trace_lines;
      inst->db->SetTraceSink([&trace_mu, lines](const std::string& line) {
        std::lock_guard<std::mutex> lock(trace_mu);
        lines->push_back(line);
      });
    }
    Window part;
    ResetPeakRss();
    wl->Run(sub, &part);
    w->rss_peak_mb = std::max(w->rss_peak_mb, PeakRssMb());
    if (trace) {
      inst->db->SetTraceSink(nullptr);
      if (auto m = monitor->Metrics(); m.ok()) {
        AccumulateDelta(before, ParsePrometheus(*m), &traced->counters);
      }
    }
    w->Absorb(part);
    for (int i = 0; i < kLoadsPerGap; ++i) {
      const auto t0 = Clock::now();
      auto loaded = Database::Load(inst->checkpoint_path);
      plain->load_s.push_back(SecondsSince(t0));
      if (!loaded.ok() ||
          (k == 0 && i == 0 && !(ChecksumOf(loaded->get()) == expected))) {
        plain->loads_ok = false;
      }
    }
  }
  sampling.store(false);
  sampler.join();
  plain->live_versions_peak = static_cast<double>(peak.load());
  if (traced != nullptr) traced->live_versions_peak = plain->live_versions_peak;
}

/// Per-layer numbers of the traced sub-windows.
std::vector<Metric> LayerMetrics(const Workload& wl, const Window& w) {
  struct PerOp {
    double n = 0, parse = 0, bind = 0, optimize = 0, execute = 0, server = 0,
           latch = 0, fsync = 0, group = 0;
  } per[kOps];
  double statements = 0, execute_us = 0;
  for (const std::string& line : w.trace_lines) {
    auto t = ParseTraceLine(line);
    if (!t) continue;
    statements += 1;
    execute_us += t->execute_us;
    const int op = wl.Classify(*t);
    if (op < 0) continue;
    PerOp& p = per[op];
    p.n += 1;
    p.parse += t->parse_us;
    p.bind += t->bind_us;
    p.optimize += t->optimize_us;
    p.execute += t->execute_us;
    p.latch += t->wait("mvcc_writer_latch");
    p.fsync += t->wait("wal_fsync");
    p.group += t->wait("wal_group_commit");
    // Server-side statement time: the phases plus the waits that fall
    // outside them (latch before, journal commit after execution).
    p.server += t->total_us + t->wait("mvcc_writer_latch") +
                t->wait("mvcc_exclusive_lock") + t->wait("wal_fsync") +
                t->wait("wal_group_commit");
  }
  std::vector<Metric> out;
  for (int i = 0; i < kOps; ++i) {
    const std::string op = ".op" + std::to_string(i + 1);
    const PerOp& p = per[i];
    const OpSamples& s = w.ops[i];
    const double rtt = s.MeanUs();
    out.push_back({"server.rtt_us" + op, rtt, "us"});
    out.push_back({"server.overhead_us" + op, rtt - Ratio(p.server, p.n), "us"});
    out.push_back({"server.rows_per_reply" + op,
                   Ratio(s.rows, static_cast<double>(s.attempted)), "count"});
    out.push_back({"parser.parse_us" + op, Ratio(p.parse, p.n), "us"});
    out.push_back({"binder.bind_us" + op, Ratio(p.bind, p.n), "us"});
    out.push_back({"optimizer.optimize_us" + op, Ratio(p.optimize, p.n), "us"});
    out.push_back({"executor.execute_us" + op, Ratio(p.execute, p.n), "us"});
    out.push_back({"concurrency.latch_wait_us" + op, Ratio(p.latch, p.n), "us"});
    out.push_back({"wal.fsync_wait_us" + op, Ratio(p.fsync, p.n), "us"});
    out.push_back({"wal.group_commit_wait_us" + op, Ratio(p.group, p.n), "us"});
  }
  auto d = [&](const std::string& name) { return Delta({}, w.counters, name); };
  const double hits = d("exodus_plan_cache_hits_total");
  const double lookups = hits + d("exodus_plan_cache_misses_total");
  double rows_returned = 0;
  for (const OpSamples& s : w.ops) rows_returned += s.rows;
  const double writes = d("exodus_wal_appends_total");
  out.push_back({"server.pool_queue_us",
                 Ratio(d("exodus_wait_time_us_sum{event=\"thread_pool_queue\"}"),
                       statements), "us"});
  out.push_back({"plan_cache.hit_ratio", Ratio(hits, lookups), "ratio"});
  out.push_back({"plan_cache.lookups", lookups, "count"});
  out.push_back({"executor.rows_examined_per_row",
                 Ratio(DeltaPrefix({}, w.counters, "exodus_operator_rows_total"),
                       rows_returned), "ratio"});
  out.push_back({"executor.morsels_per_stmt",
                 Ratio(d("exodus_exec_morsels_total"), statements), "count"});
  out.push_back({"executor.parallel_share",
                 Ratio(d("exodus_exec_parallel_ns") / 1e3, execute_us), "ratio"});
  out.push_back({"concurrency.escalations_per_write",
                 Ratio(d("exodus_mvcc_write_escalations_total"), writes), "ratio"});
  out.push_back({"concurrency.live_versions_peak", w.live_versions_peak, "count"});
  out.push_back({"wal.fsyncs_per_write", Ratio(d("exodus_wal_fsyncs_total"), writes),
                 "ratio"});
  out.push_back({"wal.records_per_batch",
                 Ratio(d("exodus_wal_batch_records_total"),
                       d("exodus_wal_flush_batches_total")), "count"});
  return out;
}

std::string SummaryJson(const std::string& name, const OpSamples& s) {
  const Summary sum = Summarize(s.lat_us);
  return JsonString(name) + ": {\"n\": " + std::to_string(sum.n) +
         ", \"failed\": " + std::to_string(s.failed) +
         ", \"p50_us\": " + FormatNumber(sum.p50) +
         ", \"p90_us\": " + FormatNumber(sum.p90) +
         ", \"tail_us\": " + FormatNumber(sum.tail) +
         ", \"tail_pct\": " + FormatNumber(sum.tail_pct) + "}";
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"point", "analytic", "ingest"};
  return kNames;
}

RunOutput RunWorkload(const RunConfig& cfg) {
  RunOutput out;
  const Dataset ds(cfg.seed);
  std::unique_ptr<Workload> wl = MakeWorkload(cfg.workload, ds, cfg.seed);
  std::vector<std::string> checks_failed;
  auto check = [&](bool ok, const std::string& what) {
    ++out.attempted;
    if (!ok) {
      ++out.failed;
      checks_failed.push_back(what);
      LogFailure(what);
    }
  };

  // --- set-up, several times; the last instance is the one measured ---
  std::vector<double> setups;
  auto inst = std::make_unique<Instance>();
  for (int i = 0; i < kSetups; ++i) {
    wl->Disconnect();
    inst.reset();
    const std::string dir = cfg.workdir + "/setup" + std::to_string(i);
    std::filesystem::create_directories(dir);
    inst = std::make_unique<Instance>();
    std::string err;
    const double s = SetUp(ds, wl.get(), dir, inst.get(), &err);
    if (s < 0) {
      std::cerr << "perfbench: " << err << "\n";
      wl->Disconnect();
      return out;
    }
    setups.push_back(s);
  }
  auto monitor = Client::Connect("127.0.0.1", inst->server->port());
  if (!monitor.ok()) {
    std::cerr << "perfbench: monitor connection: " << monitor.status().ToString() << "\n";
    wl->Disconnect();
    return out;
  }
  const uint64_t wal_bytes_setup = inst->wal_path.empty() ? 0 : WalBytes(inst->wal_path);

  // --- warm-up, then the measured window(s) ---
  // Ingest has no warm-up: every write after the set-up checkpoint is
  // replayed by the restart, and that replay must have the same length
  // on every run.
  const bool ingest = wl->Journaled();
  const int appends = 60 * cfg.seconds;
  if (!ingest) {
    Window warm;
    wl->Run({0.5, 0}, &warm);
  }
  const WindowSpec spec = ingest ? WindowSpec{0, appends}
                                 : WindowSpec{static_cast<double>(cfg.seconds), 0};
  const Checksum expected = ExpectChecksum(ds);
  Window plain, traced;
  RunWindow(wl.get(), inst.get(), monitor->get(), spec, expected, &plain,
            cfg.trace ? &traced : nullptr);
  const Window& measured = cfg.trace ? traced : plain;
  for (const Window* w : {&plain, &traced}) {
    for (const OpSamples& s : w->ops) {
      out.attempted += s.attempted;
      out.failed += s.failed;
    }
  }
  const std::vector<double>& loads = plain.load_s;
  check(plain.loads_ok, "loaded image matches the set-up");

  // --- end-of-run checks ---
  check(wl->Drain(), "drain");
  Checksum live;
  if (auto r = (*monitor)->Query(kChecksumText); r.ok()) live = ParseChecksum(*r);
  check(live == expected, "live extent " + live.ToString() + " != set-up " +
                              expected.ToString());
  const uint64_t wal_bytes_run =
      inst->wal_path.empty() ? 0 : WalBytes(inst->wal_path) - wal_bytes_setup;

  // --- restart: ingest recovers its checkpoint plus the run's WAL ---
  monitor->reset();
  wl->Disconnect();
  inst->server->Stop();
  const double checkpoint_s = inst->checkpoint_s;
  const double objects = 10 + kDepartments + ds.ProjectCount() + kEmployees;
  std::error_code ec;
  const double image_bytes =
      static_cast<double>(std::filesystem::file_size(inst->checkpoint_path, ec));
  const std::string wal_path = inst->wal_path;
  const std::string checkpoint_path = inst->checkpoint_path;
  inst.reset();  // closes the journal

  uint64_t replayed = 0;
  if (ingest) {
    auto scan = exodus::wal::WalReader::ReadAll(wal_path);
    auto image = Database::Load(checkpoint_path);
    if (scan.ok() && image.ok()) {
      for (const auto& rec : scan->records) {
        if (rec.lsn > (*image)->recovered_lsn()) ++replayed;
      }
    }
    check(replayed == static_cast<IngestWorkload*>(wl.get())->ExpectedRecords(),
          "WAL holds " + std::to_string(replayed) + " records after the checkpoint");
  }
  std::vector<double> recoveries;
  for (int i = 0; ingest && i < kRecoveries; ++i) {
    const auto t0 = Clock::now();
    auto recovered = Database::Recover(checkpoint_path, wal_path);
    recoveries.push_back(SecondsSince(t0));
    check(recovered.ok() && ChecksumOf(recovered->get()) == live,
          "recovered database matches the live one");
  }

  // --- metrics ---
  const double ops_per_s = Median(plain.sub_rate);
  const double load_s = Median(loads);
  const double recover_s = ingest ? Median(recoveries) : load_s;
  if (!cfg.trace) {
    out.metrics.push_back({"setup_s", Median(setups), "s"});
    out.metrics.push_back({"ops_per_s", ops_per_s, "1/s"});
    for (int i = 0; i < kOps; ++i) {
      const std::string op = "op" + std::to_string(i + 1);
      out.metrics.push_back({op + "_p50_us", Median(measured.sub_p50[i]), "us"});
      out.metrics.push_back({op + "_p90_us", Median(measured.sub_p90[i]), "us"});
    }
    out.metrics.push_back({"recover_s", recover_s, "s"});
    out.metrics.push_back({"rss_peak_mb", measured.rss_peak_mb, "MB"});
  } else {
    out.metrics = LayerMetrics(*wl, measured);
    out.metrics.push_back({"wal.bytes_per_write",
                           Ratio(static_cast<double>(wal_bytes_run),
                                 static_cast<double>(replayed)), "B"});
    out.metrics.push_back({"wal.replay_s", ingest ? recover_s - load_s : 0, "s"});
    out.metrics.push_back({"storage.checkpoint_s", checkpoint_s, "s"});
    out.metrics.push_back({"storage.image_bytes_per_object", image_bytes / objects, "B"});
    out.metrics.push_back({"storage.load_s", load_s, "s"});
    // Each traced sub-window against the untraced one just before it.
    std::vector<double> traced_over_plain;
    for (size_t i = 0; i < traced.sub_rate.size() && i < plain.sub_rate.size(); ++i) {
      traced_over_plain.push_back(Ratio(traced.sub_rate[i], plain.sub_rate[i]));
    }
    out.metrics.push_back({"obs.trace_overhead_frac", 1 - Median(traced_over_plain),
                           "ratio"});
    std::vector<double> late = measured.late_us;
    std::sort(late.begin(), late.end());
    out.metrics.push_back({"harness.late_p99_us", late.empty() ? 0 : NearestRank(late, 0.99),
                           "us"});
  }
  out.correct = out.failed == 0;

  // --- details ---
  const std::vector<std::string> names = wl->OpNames();
  std::string d = "{\"sizes\": {\"employees\": " + std::to_string(kEmployees) +
                  ", \"departments\": " + std::to_string(kDepartments) +
                  ", \"projects\": " + std::to_string(ds.ProjectCount()) + "}";
  d += ", \"ops\": {";
  for (int i = 0; i < kOps; ++i) {
    if (i > 0) d += ", ";
    d += SummaryJson("op" + std::to_string(i + 1) + "=" + names[i], measured.ops[i]);
  }
  if (!measured.due_us.empty()) {
    OpSamples from_due;
    from_due.lat_us = measured.due_us;
    d += ", " + SummaryJson("op3=read from due time", from_due);
  }
  d += "}, \"ops_per_s_counts\": " + JsonString(wl->OpsPerSecondMeaning());
  d += ", \"window_s\": " + FormatNumber(measured.elapsed_s);
  d += ", \"setups\": " + std::to_string(setups.size()) +
       ", \"loads\": " + std::to_string(loads.size());
  if (ingest) {
    d += ", \"recoveries\": " + std::to_string(recoveries.size()) +
         ", \"wal_records_replayed\": " + std::to_string(replayed);
  }
  d += ", \"checks_failed\": [";
  for (size_t i = 0; i < checks_failed.size(); ++i) {
    d += (i > 0 ? ", " : "") + JsonString(checks_failed[i]);
  }
  d += "]}";
  out.details_json = d;
  return out;
}

}  // namespace perfbench
