// analytic: execution-bound, with the cost model and parallelism.
//
// Five fixed shapes, round-robin, over 100k SUPPLIER / 200k PARTS / 50k
// AGENTS. The Optimizer prepares with use_cost_model=true and a default
// dop of 4, so StandardAlternatives puts serial, sort, hash and parallel
// candidates in play and the cost layer decides whether dop > 1 pays.
// Parse and Algorithm 1 are noise next to 100k-row joins; the cost
// model bypasses the plan cache, so the cache does no work here.

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "exec/cost_model.h"
#include "select_path.h"
#include "uniqopt/optimizer.h"
#include "workloads.h"

namespace uniqbench {
namespace {

constexpr size_t kSuppliers = 100000;
constexpr size_t kPartsPerSupplier = 2;
constexpr size_t kAgents = 50000;
constexpr unsigned kDop = 4;
/// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 3;
/// Width of the range-scan shape's SNO range.
constexpr int64_t kRangeWidth = 50000;
/// Tail percentile: with five shapes round-robin, p90 falls inside the
/// slowest shape's samples. A 45-second run holds about 300 queries on
/// a 4-vCPU host: about 30 beyond p90, but beyond p95 only 15, which a
/// slower host would bring under ten.
constexpr double kTail = 0.90;
/// The cost-choice audit executes a candidate only when its estimate is
/// within this factor of the chosen one's: the nested-loop candidates
/// of the 100k joins would run for hours.
constexpr double kAuditEstimateFactor = 10.0;
/// The audit counts the choice as best when the chosen candidate ran
/// within this factor of the fastest (single timings are noisy).
constexpr double kAuditTolerance = 1.10;

struct Shape {
  std::string name;
  std::string sql;
};

std::vector<Shape> Shapes(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int64_t lo =
      1 + static_cast<int64_t>(rng() % (kSuppliers - kRangeWidth));
  return {
      // Theorem 1: S.SNO and P.PNO with S.SNO = P.SNO cover the PARTS key,
      // so the DISTINCT is redundant and removed.
      {"join_distinct_removed",
       "SELECT DISTINCT S.SNO, S.SNAME, P.PNO FROM SUPPLIER S, PARTS P "
       "WHERE S.SNO = P.SNO AND P.COLOR = 'RED'"},
      // No key survives the projection: the DISTINCT must stay.
      {"join_distinct_kept",
       "SELECT DISTINCT S.SNAME, P.COLOR FROM SUPPLIER S, PARTS P "
       "WHERE S.SNO = P.SNO AND S.SCITY = 'Toronto'"},
      {"range_scan_aggregate",
       "SELECT S.SCITY, COUNT(*), MIN(S.SNO), SUM(S.BUDGET) FROM SUPPLIER S "
       "WHERE S.SNO BETWEEN " + std::to_string(lo) + " AND " +
           std::to_string(lo + kRangeWidth) + " GROUP BY S.SCITY"},
      // Theorem 2: the inner key (SNO, PNO) is fully bound, so the EXISTS
      // becomes a join.
      {"exists_to_join",
       "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT * FROM "
       "PARTS P WHERE P.SNO = S.SNO AND P.PNO = 2)"},
      // ANO is AGENTS' key and S.SNO = A.SNO fixes the supplier.
      {"agents_supplier_distinct",
       "SELECT DISTINCT A.ANO, A.ANAME, S.SNAME, S.SCITY FROM AGENTS A, "
       "SUPPLIER S WHERE A.SNO = S.SNO"},
  };
}

struct Analytic {
  std::unique_ptr<uniqopt::Database> db;
  std::unique_ptr<uniqopt::Optimizer> optimizer;
};

void SetUp(uint64_t seed, const std::vector<Shape>& shapes, Analytic* state,
           Tally* tally) {
  state->optimizer.reset();
  state->db.reset();
  state->db = MakeSupplierDb(kSuppliers, kPartsPerSupplier, kAgents, seed);
  state->optimizer = std::make_unique<uniqopt::Optimizer>(
      state->db.get(), uniqopt::RewriteOptions{}, /*use_cost_model=*/true);
  uniqopt::PhysicalOptions physical;
  physical.dop = kDop;
  state->optimizer->set_default_physical(physical);
  for (const Shape& shape : shapes) {
    SelectResult r;
    tally->Attempt();
    RunSelect(*state->optimizer, shape.sql, {}, &r, tally);
  }
}

/// Untimed, once per shape: the chosen plan's rows equal the rows of the
/// unrewritten plan run serially. Returns the reference digests every
/// timed result is then checked against.
std::vector<RowDigest> CheckShapes(const Analytic& state,
                                   const std::vector<Shape>& shapes,
                                   Tally* tally) {
  std::vector<RowDigest> digests;
  for (const Shape& shape : shapes) {
    SelectResult r;
    tally->Attempt();
    if (!RunSelect(*state.optimizer, shape.sql, {}, &r, tally)) {
      digests.push_back({});
      continue;
    }
    const uniqopt::PreparedQuery& q = *r.prepared;
    auto reference = ExecuteBound(*state.db, q.original_plan, q.host_vars, {},
                                  uniqopt::PhysicalOptions{});
    if (!reference.ok()) {
      tally->Fail("unrewritten serial plan failed for " + shape.name + ": " +
                  reference.status().ToString());
      digests.push_back({});
      continue;
    }
    if (!SameMultiset(r.rows, *reference)) {
      tally->Fail("chosen plan (" + q.chosen_label +
                  ") differs from the unrewritten serial plan: " + shape.name);
    }
    digests.push_back(DigestRows(*reference));
  }
  return digests;
}

struct LoopStats {
  Samples select;
  Samples prepare;
  LoopOutcome outcome;
};

/// Closed loop over the shapes, round-robin, for at least `seconds` of
/// loop time and always whole rounds (every shape equally often).
void Loop(const Analytic& state, const std::vector<Shape>& shapes,
          const std::vector<RowDigest>& digests, double seconds,
          TraceContext* trace, Tally* tally, LoopStats* stats) {
  LoopClock clock;
  for (size_t i = 0; clock.Seconds() < seconds || i % shapes.size() != 0;
       ++i) {
    const size_t s = i % shapes.size();
    SelectResult r;
    tally->Attempt();
    const bool ok =
        trace != nullptr
            ? TraceSelect(*state.optimizer, shapes[s].sql, {}, trace, &r)
            : RunSelect(*state.optimizer, shapes[s].sql, {}, &r, tally);
    if (!ok) continue;
    stats->outcome.Complete(clock);
    stats->select.Add(r.total_ns);
    stats->prepare.Add(r.prepare_ns);
    LoopClock::Untimed untimed(&clock);
    if (!(DigestRows(r.rows) == digests[s])) {
      tally->Fail("result differs from the checked reference: " +
                  shapes[s].name);
    }
  }
  stats->outcome.Finish(clock);
}

/// Traced run only: executes every affordable StandardAlternatives
/// candidate of each shape once and compares the cost model's choice
/// with the fastest candidate.
void AuditCostChoice(const Analytic& state, const std::vector<Shape>& shapes,
                     const std::vector<RowDigest>& digests, LayerStats* layers,
                     Report* report, Tally* tally) {
  for (size_t s = 0; s < shapes.size(); ++s) {
    ReplayedPrepare replayed;
    tally->Attempt();
    if (!ReplayPrepare(*state.optimizer, /*cost_model=*/true, shapes[s].sql,
                       &replayed, tally)) {
      continue;
    }
    const uniqopt::PlanAlternative& chosen =
        replayed.alternatives[replayed.chosen];
    double chosen_ms = 0;
    double fastest_ms = 0;
    std::string fastest;
    size_t skipped = 0;
    std::string line = "audit " + shapes[s].name + ":";
    for (const uniqopt::PlanAlternative& alt : replayed.alternatives) {
      if (alt.estimate.cost > kAuditEstimateFactor * chosen.estimate.cost) {
        ++skipped;
        line += " " + alt.label + "=skipped";
        continue;
      }
      tally->Attempt();
      const uint64_t start = NowNs();
      auto rows = ExecuteBound(*state.db, alt.plan, {}, {}, alt.physical);
      const double ms = static_cast<double>(NowNs() - start) / 1e6;
      if (!rows.ok()) {
        tally->Fail("candidate " + alt.label + " failed for " +
                    shapes[s].name + ": " + rows.status().ToString());
        continue;
      }
      if (!(DigestRows(*rows) == digests[s])) {
        tally->Fail("candidate " + alt.label + " returned different rows: " +
                    shapes[s].name);
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "=%.1fms", ms);
      line += " " + alt.label + buf;
      if (&alt == &chosen) chosen_ms = ms;
      if (fastest.empty() || ms < fastest_ms) {
        fastest_ms = ms;
        fastest = alt.label;
      }
    }
    const bool best = chosen_ms <= kAuditTolerance * fastest_ms;
    layers->AddValue("cost.best_choice", best ? 1.0 : 0.0);
    layers->AddValue("cost.audit_skipped", static_cast<double>(skipped));
    report->Note(line);
    report->Note("audit " + shapes[s].name + ": chosen=" + chosen.label +
                 " fastest=" + fastest + (best ? " (best)" : " (NOT best)"));
  }
}

}  // namespace

void RunAnalytic(const RunConfig& config, Report* report, Tally* tally) {
  const std::vector<Shape> shapes = Shapes(config.seed);
  Analytic state;
  const double setup_s = MedianSetupSeconds(
      kSetups, [&] { SetUp(config.seed, shapes, &state, tally); });
  const std::vector<RowDigest> digests = CheckShapes(state, shapes, tally);
  report->Note("workload analytic: seed=" + std::to_string(config.seed) +
               " db=" + std::to_string(kSuppliers) + " suppliers x " +
               std::to_string(kPartsPerSupplier) + " parts, " +
               std::to_string(kAgents) + " agents; cost model on, dop " +
               std::to_string(kDop) + "; tail percentile p90");

  LoopStats loop;
  if (!config.trace) {
    Loop(state, shapes, digests, config.seconds, nullptr, tally, &loop);
    // Throughput is the median over whole rounds of the five shapes.
    ReportEndToEnd(setup_s, loop.outcome, shapes.size(), loop.select,
                   loop.prepare, kTail, report);
    return;
  }
  LayerStats layers;
  AuditCostChoice(state, shapes, digests, &layers, report, tally);
  RunTraced(
      config, *state.optimizer, /*cost_model=*/true,
      [&](TraceContext* trace, double seconds) {
        loop = LoopStats{};
        Loop(state, shapes, digests, seconds, trace, tally, &loop);
        return loop.outcome;
      },
      &layers, report, tally);
}

}  // namespace uniqbench
