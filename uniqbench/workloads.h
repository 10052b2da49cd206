// The three benchmark workloads. Each sets up its database (timed, as
// `setup_s`), runs its closed single-client loop for the configured
// seconds, checks every result, and fills `report` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
#ifndef UNIQBENCH_WORKLOADS_H_
#define UNIQBENCH_WORKLOADS_H_

#include <functional>

#include "harness.h"
#include "select_path.h"
#include "uniqopt/optimizer.h"

namespace uniqbench {

/// Prepare-bound: a RandomQueryGenerator stream over the unit-test-scale
/// Figure 1 database, more distinct texts than the plan cache holds.
void RunAdhoc(const RunConfig& config, Report* report, Tally* tally);

/// Execution-bound: five fixed shapes over 100k suppliers with the cost
/// model and a default dop of 4.
void RunAnalytic(const RunConfig& config, Report* report, Tally* tally);

/// Point reads by key beside 20% writes on the 100k database.
void RunOltp(const RunConfig& config, Report* report, Tally* tally);

/// Reports the end-to-end metric set every workload shares: set-up
/// time, throughput (the median over groups of `group` consecutive
/// operations), select and prepare latency (median and the workload's
/// fixed tail percentile `tail`), and the memory the live state holds
/// after the loop.
void ReportEndToEnd(double setup_s, const LoopOutcome& loop, size_t group,
                    const Samples& select, const Samples& prepare,
                    double tail, Report* report);

/// A workload's closed loop: runs for `seconds` of loop time, traced
/// when `trace` is non-null, continuing the workload's input stream.
using LoopFn = std::function<LoopOutcome(TraceContext* trace, double seconds)>;

/// The traced run shared by every workload: an untraced half of the
/// configured seconds (the overhead baseline), then a traced half. The
/// registry's rewrite counters and the plan cache's invalidations over
/// the traced half are added to `layers`, with the traced throughput
/// and its overhead ratio; then the per-layer metrics are reported and
/// the spans exported. `cost_model` tells the replay whether the
/// optimizer prepares with the cost layer.
void RunTraced(const RunConfig& config, const uniqopt::Optimizer& optimizer,
               bool cost_model, const LoopFn& loop, LayerStats* layers,
               Report* report, Tally* tally);

}  // namespace uniqbench

#endif  // UNIQBENCH_WORKLOADS_H_
