#include "workloads.h"

#include <map>
#include <string>

#include "obs/metrics.h"

namespace uniqbench {
namespace {

/// Σ rewrite.rule.*.fired over Σ rewrite.rule.*.considered between two
/// registry snapshots (0 when nothing was considered).
double RewriteFiredRatio(const std::map<std::string, uint64_t>& before,
                         const std::map<std::string, uint64_t>& after) {
  auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  uint64_t fired = 0;
  uint64_t considered = 0;
  for (const auto& [name, value] : after) {
    if (name.rfind("rewrite.rule.", 0) != 0) continue;
    auto it = before.find(name);
    const uint64_t delta = value - (it == before.end() ? 0 : it->second);
    if (ends_with(name, ".fired")) fired += delta;
    if (ends_with(name, ".considered")) considered += delta;
  }
  return considered == 0 ? 0
                         : static_cast<double>(fired) /
                               static_cast<double>(considered);
}

}  // namespace

void ReportEndToEnd(double setup_s, const LoopOutcome& loop, size_t group,
                    const Samples& select, const Samples& prepare,
                    double tail, Report* report) {
  report->Metric("setup_s", setup_s, "s");
  report->Metric("throughput_ops_s", loop.MedianGroupThroughput(group),
                 "1/s");
  report->Metric("select_p50_us", select.MedianUs(), "us");
  report->Metric("select_tail_us", select.PercentileUs(tail), "us");
  report->Metric("prepare_p50_us", prepare.MedianUs(), "us");
  report->Metric("prepare_tail_us", prepare.PercentileUs(tail), "us");
  report->Metric("rss_mb", LiveRssMb(), "MiB");
  report->Info("peak_rss_mb", PeakRssMb(), "MiB");
  report->Info("whole_loop_throughput_ops_s", loop.Throughput(), "1/s");
  report->Info("selects", static_cast<double>(select.size()), "count");
  report->Info("selects_beyond_tail",
               static_cast<double>(select.CountAbove(tail)), "count");
}

void RunTraced(const RunConfig& config, const uniqopt::Optimizer& optimizer,
               bool cost_model, const LoopFn& loop, LayerStats* layers,
               Report* report, Tally* tally) {
  const LoopOutcome untraced = loop(nullptr, config.seconds / 2);

  SpanLog spans;
  TraceContext trace;
  trace.spans = &spans;
  trace.layers = layers;
  trace.tally = tally;
  trace.cost_model = cost_model;
  uniqopt::obs::MetricsRegistry& registry =
      uniqopt::obs::MetricsRegistry::Global();
  const uniqopt::cache::LruStats cache_before = optimizer.plan_cache()->Stats();
  const auto counters_before = registry.Counters();
  const LoopOutcome traced = loop(&trace, config.seconds / 2);
  const auto counters_after = registry.Counters();
  const uniqopt::cache::LruStats cache_after = optimizer.plan_cache()->Stats();

  const double traced_ops = static_cast<double>(traced.completed());
  const double traced_tput = traced.Throughput();
  const double untraced_tput = untraced.Throughput();
  layers->AddValue("rewrite.fired_ratio",
                   RewriteFiredRatio(counters_before, counters_after));
  layers->AddValue("cache.invalidations",
                   static_cast<double>(cache_after.invalidations -
                                       cache_before.invalidations) /
                       traced_ops);
  layers->AddValue("trace.throughput_ops_s", traced_tput);
  layers->AddValue("trace.overhead_ratio", untraced_tput / traced_tput);
  ReportLayerMetrics(*layers, report);
  report->Info("untraced_throughput_ops_s", untraced_tput, "1/s");
  report->Info("traced_ops", traced_ops, "count");

  if (config.trace_path.empty()) return;
  if (!spans.WriteChromeTrace(config.trace_path)) {
    tally->Fail("cannot write trace to " + config.trace_path);
    return;
  }
  report->Note("trace: " + config.trace_path + " (" +
               std::to_string(spans.size()) +
               " spans, Chrome trace-event JSON)");
}

}  // namespace uniqbench
