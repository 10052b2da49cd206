// oltp: writes beside reads, against a plan cache that fits.
//
// On the 100k database, 80% of operations are host-variable point
// SELECTs by SNO (one cached plan and an index lookup); 20% are writes
// through txn::DmlExecutor: UPDATE SUPPLIER by key, INSERT PARTS with a
// fresh key, DELETE of a previously inserted PARTS row, and a small
// share of duplicate-key INSERTs that must be rejected. Every committed
// write bumps Catalog::version(), so the next read misses the cache and
// re-prepares; writes load the txn, storage copy-on-write and index
// layers that neither other workload touches.

#include <algorithm>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "parser/parser.h"
#include "select_path.h"
#include "txn/dml.h"
#include "txn/dml_executor.h"
#include "uniqopt/optimizer.h"
#include "workloads.h"

namespace uniqbench {
namespace {

using uniqopt::Value;

constexpr size_t kSuppliers = 100000;
constexpr size_t kPartsPerSupplier = 2;
constexpr size_t kAgents = 50000;
/// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 3;
/// Reads run during each set-up, after one write of each kind.
constexpr int kWarmupReads = 200;
/// Operation mix per block of 100 operations: reads, then the write
/// kinds. Each block holds exactly these counts in a seed-shuffled
/// order, so every run sees the same mix and only keys and order vary.
constexpr int kReads = 80;
constexpr int kUpdates = 7;
constexpr int kInserts = 6;
constexpr int kDeletes = 5;
constexpr int kDuplicates = 2;
constexpr size_t kBlock =
    kReads + kUpdates + kInserts + kDeletes + kDuplicates;
/// Tail percentile of read latency: a 45-second run holds about 1600
/// reads, about 80 beyond p95 but only 16 beyond p99, which a slower
/// host would bring under ten, so p95 it is.
constexpr double kTail = 0.95;
/// Fresh PARTS keys start above every generated PNO / OEM_PNO.
constexpr int64_t kFreshPno = 1000;
constexpr int64_t kFreshOem = 10000000;

constexpr const char* kReadSql =
    "SELECT SNO, SNAME, SCITY, BUDGET, STATUS FROM SUPPLIER WHERE SNO = :K";
constexpr const char* kUpdateSql =
    "UPDATE SUPPLIER SET BUDGET = :B WHERE SNO = :K";
constexpr const char* kInsertSql =
    "INSERT INTO PARTS VALUES (:S, :P, :N, :O, :C)";
constexpr const char* kDeleteSql =
    "DELETE FROM PARTS WHERE SNO = :S AND PNO = :P";

enum class Kind { kRead, kUpdate, kInsert, kDelete, kDuplicate };

const char* TxnLayer(Kind kind) {
  switch (kind) {
    case Kind::kUpdate:
      return "txn.update";
    case Kind::kInsert:
      return "txn.insert";
    case Kind::kDelete:
      return "txn.delete";
    case Kind::kDuplicate:
      return "txn.reject";
    case Kind::kRead:
      break;
  }
  return "txn.read";
}

/// Positional DML parameters for `stmt` from named values.
std::vector<Value> Positional(const uniqopt::txn::BoundDml& stmt,
                              const Params& params) {
  std::vector<Value> out;
  for (const uniqopt::HostVariable& hv : stmt.host_vars) {
    for (const auto& [name, value] : params) {
      if (uniqopt::EqualsIgnoreCase(name, hv.name)) {
        out.push_back(value);
        break;
      }
    }
  }
  return out;
}

struct OpTiming {
  Kind kind = Kind::kRead;
  uint64_t total_ns = 0;
  uint64_t prepare_ns = 0;  ///< reads only
};

class Oltp {
 public:
  explicit Oltp(uint64_t seed)
      : db_(MakeSupplierDb(kSuppliers, kPartsPerSupplier, kAgents, seed)),
        optimizer_(db_.get()),
        executor_(db_.get()) {
    // The benchmark's own model of SUPPLIER, maintained by every write
    // it issues: reads are compared with it.
    auto supplier = db_->GetTable("SUPPLIER");
    shadow_.resize(kSuppliers + 1);
    for (const uniqopt::Row& row : (*supplier)->Snapshot()->rows) {
      shadow_[static_cast<size_t>(row[0].AsInteger())] = row;
    }
    parts_rows_ = PartsRows();
  }

  const uniqopt::Optimizer& optimizer() const { return optimizer_; }

  /// Draws the next operation of the mix from `rng`. A DELETE with no
  /// inserted row left to delete becomes an INSERT.
  Kind Draw(std::mt19937_64* rng) {
    if (deck_.empty()) {
      deck_.insert(deck_.end(), kReads, Kind::kRead);
      deck_.insert(deck_.end(), kUpdates, Kind::kUpdate);
      deck_.insert(deck_.end(), kInserts, Kind::kInsert);
      deck_.insert(deck_.end(), kDeletes, Kind::kDelete);
      deck_.insert(deck_.end(), kDuplicates, Kind::kDuplicate);
      std::shuffle(deck_.begin(), deck_.end(), *rng);
    }
    const Kind kind = deck_.back();
    deck_.pop_back();
    return kind == Kind::kDelete && inserted_.empty() ? Kind::kInsert : kind;
  }

  /// Runs one operation of `kind` with keys from `rng`, timed; with
  /// `trace` set it is recorded as a traced operation. The result checks
  /// run after the timed call and are reported to `clock` as untimed.
  bool Run(Kind kind, std::mt19937_64* rng, TraceContext* trace,
           LoopClock* clock, Tally* tally, OpTiming* timing) {
    timing->kind = kind;
    const int64_t sno = 1 + static_cast<int64_t>((*rng)() % kSuppliers);
    if (kind == Kind::kRead) {
      const Params params = {{"K", Value::Integer(sno)}};
      SelectResult r;
      const bool ok = trace != nullptr
                          ? TraceSelect(optimizer_, kReadSql, params, trace, &r)
                          : RunSelect(optimizer_, kReadSql, params, &r, tally);
      if (!ok) return false;
      timing->total_ns = r.total_ns;
      timing->prepare_ns = r.prepare_ns;
      LoopClock::Untimed untimed(clock);
      const uniqopt::Row& expected = shadow_[static_cast<size_t>(sno)];
      if (r.rows.size() != 1 || !r.rows[0].NullSafeEquals(expected)) {
        tally->Fail("point read of SNO " + std::to_string(sno) +
                    " disagrees with the shadow row " + expected.ToString());
      }
      return true;
    }

    const char* sql = nullptr;
    Params params;
    switch (kind) {
      case Kind::kUpdate: {
        const double budget = 1000.0 + static_cast<double>((*rng)() % 9000);
        sql = kUpdateSql;
        params = {{"B", Value::Double(budget)}, {"K", Value::Integer(sno)}};
        break;
      }
      case Kind::kInsert:
      case Kind::kDuplicate: {
        const int64_t fresh = next_fresh_++;
        const int64_t pno = kind == Kind::kInsert ? kFreshPno + fresh : 1;
        sql = kInsertSql;
        params = {{"S", Value::Integer(sno)},
                  {"P", Value::Integer(pno)},
                  {"N", Value::String("PART-" + std::to_string(pno))},
                  {"O", Value::Integer(kFreshOem + fresh)},
                  {"C", Value::String("RED")}};
        break;
      }
      case Kind::kDelete: {
        const auto [s, p] = inserted_.front();
        sql = kDeleteSql;
        params = {{"S", Value::Integer(s)}, {"P", Value::Integer(p)}};
        break;
      }
      case Kind::kRead:
        break;
    }
    auto result = trace != nullptr
                      ? TraceWrite(kind, sql, params, trace, timing)
                      : TimeWrite(sql, params, timing);

    LoopClock::Untimed untimed(clock);
    const size_t parts_now = PartsRows();
    if (kind == Kind::kDuplicate) {
      if (result.ok() ||
          result.status().code() != uniqopt::StatusCode::kConstraintViolation) {
        tally->Fail(std::string("duplicate-key INSERT was not rejected: ") +
                    (result.ok() ? "accepted" : result.status().ToString()));
      }
      if (parts_now != parts_rows_) {
        tally->Fail("rejected INSERT changed the PARTS row count");
      }
      parts_rows_ = parts_now;
      return true;  // a correct rejection is a completed operation
    }
    if (!result.ok()) {
      tally->Fail(std::string(sql) + " failed: " + result.status().ToString());
      parts_rows_ = parts_now;
      return false;
    }
    if (result->rows_affected != 1) {
      tally->Fail(std::string(sql) + " affected " +
                  std::to_string(result->rows_affected) + " rows, not 1");
    }
    switch (kind) {
      case Kind::kUpdate:
        shadow_[static_cast<size_t>(sno)][3] = params[0].second;
        break;
      case Kind::kInsert:
        inserted_.emplace_back(params[0].second.AsInteger(),
                               params[1].second.AsInteger());
        ++parts_rows_;
        break;
      case Kind::kDelete:
        inserted_.pop_front();
        --parts_rows_;
        break;
      default:
        break;
    }
    if (parts_now != parts_rows_) {
      tally->Fail("PARTS holds " + std::to_string(parts_now) +
                  " rows, expected " + std::to_string(parts_rows_));
      parts_rows_ = parts_now;
    }
    return true;
  }

 private:
  size_t PartsRows() const {
    auto parts = db_->GetTable("PARTS");
    return (*parts)->size();
  }

  uniqopt::Result<uniqopt::txn::DmlResult> TimeWrite(const char* sql,
                                                     const Params& params,
                                                     OpTiming* timing) {
    const uint64_t start = NowNs();
    auto result = executor_.ExecuteSql(sql, params);
    timing->total_ns = NowNs() - start;
    return result;
  }

  /// The traced form of a write: ParseStatement + BindDml, then
  /// DmlExecutor::Execute, each as a span of one operation.
  uniqopt::Result<uniqopt::txn::DmlResult> TraceWrite(Kind kind,
                                                      const char* sql,
                                                      const Params& params,
                                                      TraceContext* trace,
                                                      OpTiming* timing) {
    SpanLog* log = trace->spans;
    const uint64_t op = trace->NextOp();
    ScopedSpan root(log, "op", op, 0);
    uniqopt::Result<uniqopt::txn::DmlResult> result =
        uniqopt::Status::Internal("not executed");
    {
      ScopedSpan span(log, "txn.parse_bind", op, root.id());
      auto stmt = uniqopt::ParseStatement(sql);
      auto bound = stmt.ok() ? uniqopt::txn::BindDml(db_.get(), **stmt)
                             : uniqopt::Result<uniqopt::txn::BoundDml>(
                                   stmt.status());
      span.Close();
      if (bound.ok()) {
        const std::vector<Value> positional = Positional(*bound, params);
        ScopedSpan execute(log, TxnLayer(kind), op, root.id());
        result = executor_.Execute(*bound, positional);
      } else {
        result = bound.status();
      }
    }
    root.Close();
    std::map<std::string, int64_t> self = log->SelfTimes(op, {"op"});
    int64_t sum = 0;
    for (const auto& [name, ns] : self) sum += ns;
    timing->total_ns = static_cast<uint64_t>(sum);
    log->AddAttr(root.id(), "sql", sql);
    trace->layers->AddOp(self);
    trace->layers->AddValue("txn.rejected", result.ok() ? 0.0 : 1.0);
    trace->Retire(op);
    return result;
  }

  std::unique_ptr<uniqopt::Database> db_;
  uniqopt::Optimizer optimizer_;
  uniqopt::txn::DmlExecutor executor_;
  std::vector<uniqopt::Row> shadow_;  ///< SUPPLIER rows by SNO
  std::deque<std::pair<int64_t, int64_t>> inserted_;  ///< (SNO, PNO)
  std::vector<Kind> deck_;  ///< rest of the current block of the mix
  int64_t next_fresh_ = 0;
  size_t parts_rows_ = 0;
};

struct LoopStats {
  Samples read;
  Samples prepare;
  Samples write;
  LoopOutcome outcome;
};

void Loop(Oltp* state, std::mt19937_64* rng, double seconds,
          TraceContext* trace, Tally* tally, LoopStats* stats) {
  LoopClock clock;
  while (clock.Seconds() < seconds) {
    OpTiming t;
    tally->Attempt();
    if (!state->Run(state->Draw(rng), rng, trace, &clock, tally, &t)) continue;
    stats->outcome.Complete(clock);
    if (t.kind == Kind::kRead) {
      stats->read.Add(t.total_ns);
      stats->prepare.Add(t.prepare_ns);
    } else {
      stats->write.Add(t.total_ns);
    }
  }
  stats->outcome.Finish(clock);
}

void SetUp(uint64_t seed, std::unique_ptr<Oltp>* state, Tally* tally) {
  state->reset();
  *state = std::make_unique<Oltp>(seed);
  std::mt19937_64 rng(seed ^ 0x5bd1e995u);
  LoopClock clock;
  for (Kind kind : {Kind::kUpdate, Kind::kInsert, Kind::kDelete,
                    Kind::kDuplicate}) {
    OpTiming t;
    tally->Attempt();
    (*state)->Run(kind, &rng, nullptr, &clock, tally, &t);
  }
  for (int i = 0; i < kWarmupReads; ++i) {
    OpTiming t;
    tally->Attempt();
    (*state)->Run(Kind::kRead, &rng, nullptr, &clock, tally, &t);
  }
}

}  // namespace

void RunOltp(const RunConfig& config, Report* report, Tally* tally) {
  std::unique_ptr<Oltp> state;
  const double setup_s = MedianSetupSeconds(
      kSetups, [&] { SetUp(config.seed, &state, tally); });
  std::mt19937_64 rng(config.seed);
  report->Note("workload oltp: seed=" + std::to_string(config.seed) +
               " db=" + std::to_string(kSuppliers) + " suppliers x " +
               std::to_string(kPartsPerSupplier) + " parts, " +
               std::to_string(kAgents) +
               " agents; 80% point reads, 20% writes; tail percentile p95");

  LoopStats loop;
  if (!config.trace) {
    Loop(state.get(), &rng, config.seconds, nullptr, tally, &loop);
    // Throughput is the median over blocks of the mix.
    ReportEndToEnd(setup_s, loop.outcome, kBlock, loop.read, loop.prepare,
                   kTail, report);
    report->Info("write_p50_us", loop.write.MedianUs(), "us");
    report->Info("write_tail_us", loop.write.PercentileUs(kTail), "us");
    report->Info("writes", static_cast<double>(loop.write.size()), "count");
    report->Info("writes_beyond_tail",
                 static_cast<double>(loop.write.CountAbove(kTail)), "count");
    return;
  }
  LayerStats layers;
  RunTraced(
      config, state->optimizer(), /*cost_model=*/false,
      [&](TraceContext* trace, double seconds) {
        loop = LoopStats{};
        Loop(state.get(), &rng, seconds, trace, tally, &loop);
        return loop.outcome;
      },
      &layers, report, tally);
}

}  // namespace uniqbench
