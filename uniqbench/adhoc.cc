// adhoc: prepare-bound, and larger than the plan cache.
//
// A RandomQueryGenerator stream (SELECT / SELECT DISTINCT / EXISTS /
// GROUP BY) over the Figure 1 database at unit-test scale, prepared and
// executed one query at a time by an Optimizer with every default on:
// plan cache, verifier, equivalence prover and advisor. Distinct query
// texts far outnumber the 1024-entry plan cache, so most prepares run
// the full parse → bind → analyze → rewrite → verify → equiv pipeline;
// cross products and nested-loop EXISTS put the executor in the tail.

#include <memory>
#include <string>

#include "select_path.h"
#include "uniqopt/optimizer.h"
#include "workload/random_query.h"
#include "workload/supplier_schema.h"
#include "workloads.h"

namespace uniqbench {
namespace {

constexpr size_t kSuppliers = 100;
constexpr size_t kPartsPerSupplier = 10;
constexpr size_t kAgents = 50;
/// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 5;
/// Queries prepared during each set-up: enough distinct texts to fill
/// the 1024-entry plan cache, so the timed loop starts in the steady
/// state where every miss also evicts (prepare is markedly slower
/// there than while the cache still fills).
constexpr int kWarmupPrepares = 1500;
/// Of those, the first ones are also executed.
constexpr int kWarmupExecutes = 200;
/// Every kCheckEvery-th query's rows are compared, as a multiset, with
/// the rows of its original (unrewritten) plan.
constexpr uint64_t kCheckEvery = 50;
/// Tail percentile of select/prepare latency: a 45-second run holds
/// over twenty thousand queries, far more than the thousand that leave ten
/// samples beyond p99.
constexpr double kTail = 0.99;
/// Throughput is the median over groups of this many queries (about a
/// second of loop time each).
constexpr size_t kThroughputGroup = 500;
/// Seed of the warm-up stream. It is the same for every run, so the
/// set-up does the same work whatever the timed stream's seed: the
/// warm-up executes include a seed-dependent number of cross products
/// otherwise.
constexpr uint64_t kWarmupSeed = 0x9e3779b97f4a7c15ull;

/// Data seed of the database: the generator's default, the same in every
/// run. At 100 suppliers the data seed alone moves the share of queries
/// slower than 1 ms between about 6% and 11%, so a per-run data seed
/// would make the workload itself differ from seed to seed; the run's
/// seed drives the query stream.
const uint64_t kDataSeed = uniqopt::SupplierDataOptions{}.seed;

uniqopt::RandomQueryOptions StreamOptions(uint64_t seed) {
  uniqopt::RandomQueryOptions options;
  options.seed = seed;
  options.always_distinct = false;  // SELECT and SELECT DISTINCT
  options.group_by_probability = 0.15;
  return options;
}

struct Adhoc {
  std::unique_ptr<uniqopt::Database> db;
  std::unique_ptr<uniqopt::Optimizer> optimizer;
};

void SetUp(Adhoc* state, Tally* tally) {
  state->optimizer.reset();
  state->db.reset();
  state->db = MakeSupplierDb(kSuppliers, kPartsPerSupplier, kAgents, kDataSeed);
  state->optimizer = std::make_unique<uniqopt::Optimizer>(state->db.get());
  uniqopt::RandomQueryGenerator warmup(StreamOptions(kWarmupSeed));
  for (int i = 0; i < kWarmupPrepares; ++i) {
    const std::string sql = warmup.NextQuery();
    tally->Attempt();
    if (i < kWarmupExecutes) {
      SelectResult r;
      RunSelect(*state->optimizer, sql, {}, &r, tally);
      continue;
    }
    auto prepared = state->optimizer->PrepareShared(sql);
    if (!prepared.ok()) {
      tally->Fail("prepare failed: " + prepared.status().ToString() + ": " +
                  sql);
      continue;
    }
    CheckPrepared(**prepared, tally);
  }
}

/// Untimed: the optimized plan's rows equal the original plan's rows.
void CheckAgainstOriginal(const Adhoc& state, const SelectResult& r,
                          Tally* tally) {
  const uniqopt::PreparedQuery& q = *r.prepared;
  auto original = ExecuteBound(*state.db, q.original_plan, q.host_vars, {},
                               uniqopt::PhysicalOptions{});
  if (!original.ok()) {
    tally->Fail("original plan failed: " + original.status().ToString() +
                ": " + q.sql);
    return;
  }
  if (!SameMultiset(r.rows, *original)) {
    tally->Fail("optimized rows differ from original rows: " + q.sql);
  }
}

struct LoopStats {
  Samples select;
  Samples prepare;
  LoopOutcome outcome;
};

/// Closed single-client loop for `seconds` of loop time. With `trace`
/// set, every query runs through TraceSelect instead of RunSelect.
void Loop(const Adhoc& state, uniqopt::RandomQueryGenerator* stream,
          double seconds, TraceContext* trace, Tally* tally,
          LoopStats* stats) {
  LoopClock clock;
  while (clock.Seconds() < seconds) {
    const std::string sql = stream->NextQuery();
    SelectResult r;
    tally->Attempt();
    const bool ok =
        trace != nullptr
            ? TraceSelect(*state.optimizer, sql, {}, trace, &r)
            : RunSelect(*state.optimizer, sql, {}, &r, tally);
    if (!ok) continue;
    stats->outcome.Complete(clock);
    stats->select.Add(r.total_ns);
    stats->prepare.Add(r.prepare_ns);
    if (stats->outcome.completed() % kCheckEvery == 0) {
      LoopClock::Untimed untimed(&clock);
      CheckAgainstOriginal(state, r, tally);
    }
  }
  stats->outcome.Finish(clock);
}

}  // namespace

void RunAdhoc(const RunConfig& config, Report* report, Tally* tally) {
  Adhoc state;
  const double setup_s = MedianSetupSeconds(
      kSetups, [&] { SetUp(&state, tally); });
  uniqopt::RandomQueryGenerator stream(StreamOptions(config.seed));
  report->Note("workload adhoc: seed=" + std::to_string(config.seed) +
               " db=" + std::to_string(kSuppliers) + " suppliers x " +
               std::to_string(kPartsPerSupplier) + " parts, " +
               std::to_string(kAgents) + " agents; tail percentile p99");

  LoopStats loop;
  if (!config.trace) {
    const uniqopt::cache::LruStats before =
        state.optimizer->plan_cache()->Stats();
    Loop(state, &stream, config.seconds, nullptr, tally, &loop);
    const uniqopt::cache::LruStats after =
        state.optimizer->plan_cache()->Stats();
    ReportEndToEnd(setup_s, loop.outcome, kThroughputGroup, loop.select,
                   loop.prepare, kTail, report);
    const uint64_t hits = after.hits - before.hits;
    const uint64_t lookups = hits + (after.misses - before.misses);
    report->Info("cache_hit_ratio",
                 lookups > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(lookups)
                             : 0,
                 "ratio");
    return;
  }
  LayerStats layers;
  RunTraced(
      config, *state.optimizer, /*cost_model=*/false,
      [&](TraceContext* trace, double seconds) {
        loop = LoopStats{};
        Loop(state, &stream, seconds, trace, tally, &loop);
        return loop.outcome;
      },
      &layers, report, tally);
}

}  // namespace uniqbench
