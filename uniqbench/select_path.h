// One SELECT through the public uniqopt API, untraced and traced.
#ifndef UNIQBENCH_SELECT_PATH_H_
#define UNIQBENCH_SELECT_PATH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "uniqopt/optimizer.h"

namespace uniqbench {

using Params = std::vector<std::pair<std::string, uniqopt::Value>>;

/// What one untraced SELECT cost and returned.
struct SelectResult {
  uint64_t prepare_ns = 0;  ///< Optimizer::PrepareShared
  uint64_t total_ns = 0;    ///< PrepareShared + Optimizer::Execute
  bool cache_hit = false;
  std::shared_ptr<const uniqopt::PreparedQuery> prepared;
  std::vector<uniqopt::Row> rows;
};

/// Prepares (through the plan cache when the optimizer uses it) and
/// executes `sql`, timing both calls. Errors count as failures in
/// `tally`; the untimed post-checks of CheckPrepared run here too.
bool RunSelect(const uniqopt::Optimizer& optimizer, const std::string& sql,
               const Params& params, SelectResult* out, Tally* tally);

/// Untimed checks on a prepared query: the verifier ran and reported no
/// violation, and the equivalence prover refuted no rewrite.
void CheckPrepared(const uniqopt::PreparedQuery& prepared, Tally* tally);

/// Per-run state of a traced SELECT stream: span log, per-layer
/// aggregates and the correctness tally.
struct TraceContext {
  SpanLog* spans = nullptr;
  LayerStats* layers = nullptr;
  Tally* tally = nullptr;
  /// Whether the optimizer under test prepares with the cost model (the
  /// replay then includes the cost layer, as PrepareUncached does).
  bool cost_model = false;
  uint64_t next_op = 1;
  /// Operations whose spans are kept for the exported trace; later ones
  /// are aggregated and then dropped.
  uint64_t exported_ops = 2000;

  /// Allocates the next operation id.
  uint64_t NextOp() { return next_op++; }
  /// Drops `op`'s spans when it is past the exported window.
  void Retire(uint64_t op) {
    if (op > exported_ops) spans->DropOp(op);
  }
};

/// The traced form of RunSelect. One operation is recorded as spans:
///   op
///   ├─ uniqopt.prepare   Optimizer::PrepareShared (a miss), or
///   │  cache.hit         the same call when served from the cache
///   ├─ replay            (miss only; structure, no self time)
///   │  ├─ parser.parse   ParseQuery
///   │  ├─ plan.bind      Binder::Bind
///   │  ├─ analysis.analyze  AnalyzeDistinct
///   │  ├─ rewrite.rewrite   RewritePlan
///   │  ├─ cost.choose    CostEstimator + StandardAlternatives +
///   │  │                 ChooseBestAlternative (cost model only)
///   │  ├─ verify.verify  VerifyPlan with check_equiv=false
///   │  └─ equiv.certify  equiv::CertifyRewrite, one span per rewrite
///   └─ exec.execute      ExecutePlan with an ExecProfile
/// The operation's traced latency is the facade prepare plus the
/// execute. Its layer self times are the replayed spans, the facade
/// residual (`uniqopt.prepare` minus the replayed layers), the
/// executor's own time and each operator's profiled self time (or, for
/// a parallel execution, the whole gather) — they add up to the traced
/// latency exactly, which is checked per operation.
bool TraceSelect(const uniqopt::Optimizer& optimizer, const std::string& sql,
                 const Params& params, TraceContext* trace,
                 SelectResult* out);

/// The replayed preparation: Optimizer::PrepareUncached's pipeline as
/// separate public calls. `alternatives` is filled when the cost model
/// is on, with `chosen` its winner.
struct ReplayedPrepare {
  uniqopt::PlanPtr optimized;
  std::vector<uniqopt::PlanAlternative> alternatives;
  size_t chosen = 0;
  uniqopt::PhysicalOptions physical;
  /// Certificates issued, and how many of them proved the rewrite.
  size_t certified = 0;
  size_t proven = 0;
};

/// Replays the preparation of `sql`. With `spans` non-null, each layer
/// call is recorded as a span of operation `op` under `parent`. Errors,
/// verifier violations and refuted certificates count in `tally`.
bool ReplayPrepare(const uniqopt::Optimizer& optimizer, bool cost_model,
                   const std::string& sql, ReplayedPrepare* out,
                   Tally* tally, SpanLog* spans = nullptr, uint64_t op = 0,
                   uint64_t parent = 0);

/// Executes `plan` under `physical` with host-variable values bound by
/// name against `host_vars`.
uniqopt::Result<std::vector<uniqopt::Row>> ExecuteBound(
    const uniqopt::Database& db, const uniqopt::PlanPtr& plan,
    const std::vector<uniqopt::HostVariable>& host_vars, const Params& params,
    const uniqopt::PhysicalOptions& physical,
    uniqopt::ExecStats* stats = nullptr,
    uniqopt::ExecProfile* profile = nullptr);

}  // namespace uniqbench

#endif  // UNIQBENCH_SELECT_PATH_H_
