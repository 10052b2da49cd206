#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/export.h"
#include "workload/supplier_schema.h"

namespace uniqbench {

uint64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

namespace {

/// Nearest-rank index of the q-th percentile among n sorted samples.
size_t RankIndex(double q, size_t n) {
  const double rank = std::ceil(q * static_cast<double>(n));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

/// Full-precision rendering of a metric value: runs are compared with
/// each other, so nothing is rounded away.
std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double Samples::PercentileUs(double q) const {
  if (ns_.empty()) return 0;
  std::vector<uint64_t> sorted = ns_;
  const size_t index = RankIndex(q, sorted.size());
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(index),
                   sorted.end());
  return static_cast<double>(sorted[index]) / 1e3;
}

size_t Samples::CountAbove(double q) const {
  if (ns_.empty()) return 0;
  return ns_.size() - 1 - RankIndex(q, ns_.size());
}

double LoopOutcome::MedianGroupThroughput(size_t group) const {
  const size_t groups = done_at_.size() / group;
  if (groups < 2) return Throughput();
  std::vector<double> rates;
  for (size_t g = 0; g < groups; ++g) {
    const double start = g == 0 ? 0 : done_at_[g * group - 1];
    const double end = done_at_[(g + 1) * group - 1];
    rates.push_back(static_cast<double>(group) / (end - start));
  }
  return Median(rates);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void Tally::Fail(const std::string& why) {
  constexpr uint64_t kPrinted = 10;
  if (failed_ < kPrinted) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  ++failed_;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, value, unit, true});
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, value, unit, false});
}

void Report::Print(const Tally& tally) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const Entry& e : entries_) {
    std::printf("  %-40s %16.4f %s%s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.in_json ? "" : "  (info)");
  }
  const bool correct = tally.failed() == 0 && tally.attempted() > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted());
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.in_json) continue;
    if (!first) json += ", ";
    first = false;
    // JSON has no NaN/Inf; a non-finite metric is a harness bug.
    const double value = std::isfinite(e.value) ? e.value : 0.0;
    json += "\"" + uniqopt::obs::JsonEscape(e.name) + "\": {\"value\": " +
            FormatNumber(value) + ", \"unit\": \"" +
            uniqopt::obs::JsonEscape(e.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double LiveRssMb() {
  malloc_trim(0);
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

RowDigest DigestRows(const std::vector<uniqopt::Row>& rows) {
  RowDigest d;
  d.count = rows.size();
  for (const uniqopt::Row& r : rows) d.hash_sum += r.Hash();
  return d;
}

bool SameMultiset(std::vector<uniqopt::Row> a, std::vector<uniqopt::Row> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].NullSafeEquals(b[i])) return false;
  }
  return true;
}

std::unique_ptr<uniqopt::Database> MakeSupplierDb(size_t suppliers,
                                                  size_t parts_per_supplier,
                                                  size_t agents,
                                                  uint64_t data_seed) {
  auto db = std::make_unique<uniqopt::Database>();
  uniqopt::SupplierSchemaOptions schema;
  schema.max_sno = static_cast<int64_t>(std::max<size_t>(suppliers, 499));
  uniqopt::Status st = uniqopt::CreateSupplierSchema(db.get(), schema);
  uniqopt::SupplierDataOptions data;
  data.num_suppliers = suppliers;
  data.parts_per_supplier = parts_per_supplier;
  data.num_agents = agents;
  data.seed = data_seed;
  if (st.ok()) st = uniqopt::PopulateSupplierDatabase(db.get(), data);
  if (!st.ok()) {
    std::fprintf(stderr, "database set-up failed: %s\n", st.ToString().c_str());
    std::exit(2);
  }
  return db;
}

// ---------------------------------------------------------------------

uint64_t SpanLog::Begin(const std::string& name, uint64_t op,
                        uint64_t parent) {
  uniqopt::obs::TraceEvent e;
  e.name = name;
  e.id = next_id_++;
  e.parent_id = parent;
  e.tid = 1;
  e.attrs.emplace_back("op", std::to_string(op));
  events_.push_back(std::move(e));
  ops_.push_back(op);
  // Read the clock last, so the bookkeeping above is outside the span.
  events_.back().start_ns = NowNs();
  return events_.back().id;
}

uint64_t SpanLog::End(uint64_t id) {
  const uint64_t now = NowNs();
  uniqopt::obs::TraceEvent* e = Find(id);
  if (e == nullptr) return 0;
  e->duration_ns = now - e->start_ns;
  return e->duration_ns;
}

uniqopt::obs::TraceEvent* SpanLog::Find(uint64_t id) {
  // Callers touch spans of the operation in flight, at the end of the log.
  for (size_t i = events_.size(); i > 0; --i) {
    if (events_[i - 1].id == id) return &events_[i - 1];
  }
  return nullptr;
}

void SpanLog::AddAttr(uint64_t id, const std::string& key,
                      const std::string& value) {
  if (uniqopt::obs::TraceEvent* e = Find(id)) e->attrs.emplace_back(key, value);
}

void SpanLog::Rename(uint64_t id, const std::string& name) {
  if (uniqopt::obs::TraceEvent* e = Find(id)) e->name = name;
}

std::map<std::string, int64_t> SpanLog::SelfTimes(
    uint64_t op, const std::vector<std::string>& containers) const {
  auto is_container = [&](const std::string& name) {
    return std::find(containers.begin(), containers.end(), name) !=
           containers.end();
  };
  // Spans of one op are contiguous at the end of the log while the op is
  // being traced; scan back to its first span.
  size_t first = events_.size();
  while (first > 0 && ops_[first - 1] == op) --first;
  std::map<uint64_t, int64_t> child_ns;  // parent id → Σ child durations
  for (size_t i = first; i < events_.size(); ++i) {
    const uniqopt::obs::TraceEvent& e = events_[i];
    if (!is_container(e.name)) {
      child_ns[e.parent_id] += static_cast<int64_t>(e.duration_ns);
    }
  }
  std::map<std::string, int64_t> self;
  for (size_t i = first; i < events_.size(); ++i) {
    const uniqopt::obs::TraceEvent& e = events_[i];
    if (is_container(e.name)) continue;
    self[e.name] += static_cast<int64_t>(e.duration_ns) - child_ns[e.id];
  }
  return self;
}

void SpanLog::DropOp(uint64_t op) {
  while (!ops_.empty() && ops_.back() == op) {
    events_.pop_back();
    ops_.pop_back();
  }
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << uniqopt::obs::ToChromeTraceJson(events_);
  return static_cast<bool>(out);
}

const std::vector<std::string>& ReportedOperators() {
  static const std::vector<std::string> kOperators = {
      "TableScan",     "Filter",          "Project",
      "HashJoin",      "HashSemiJoin",    "NestedLoopProduct",
      "NestedLoopSemiJoin", "SortDistinct", "HashDistinct",
      "HashAggregate", "IndexLookup",     "UniqueIndexJoin",
      "Other"};
  return kOperators;
}

std::map<std::string, int64_t> OperatorSelfTimes(
    const uniqopt::ExecProfile& profile) {
  const std::vector<std::string>& reported = ReportedOperators();
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < profile.ops().size(); ++i) {
    std::string name = profile.ops()[i].name;
    name = name.substr(0, name.find('('));
    if (std::find(reported.begin(), reported.end(), name) == reported.end()) {
      name = "Other";
    }
    out[name] += static_cast<int64_t>(profile.SelfTimeNs(i));
  }
  return out;
}

void LayerStats::AddOp(const std::map<std::string, int64_t>& self_ns) {
  for (const auto& [layer, ns] : self_ns) {
    layer_us_[layer].push_back(static_cast<double>(ns) / 1e3);
  }
}

void LayerStats::AddValue(const std::string& name, double value) {
  values_[name].push_back(value);
}

double LayerStats::MedianUs(const std::string& layer) const {
  auto it = layer_us_.find(layer);
  return it == layer_us_.end() ? 0 : Median(it->second);
}

double LayerStats::MedianValue(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : Median(it->second);
}

double LayerStats::MeanValue(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return 0;
  double sum = 0;
  for (double v : it->second) sum += v;
  return sum / static_cast<double>(it->second.size());
}

namespace {

/// How a per-layer metric is read off LayerStats.
enum class From { kLayerUs, kMedian, kMean };

struct LayerMetric {
  std::string name;
  std::string unit;
  From from;
  std::string key;
};

std::vector<LayerMetric> LayerMetrics() {
  std::vector<LayerMetric> m = {
      {"parser.parse_us", "us", From::kLayerUs, "parser.parse"},
      {"plan.bind_us", "us", From::kLayerUs, "plan.bind"},
      {"analysis.analyze_us", "us", From::kLayerUs, "analysis.analyze"},
      {"analysis.algorithm1_runs_per_prepare", "count", From::kMean,
       "analysis.algorithm1_runs_per_prepare"},
      {"rewrite.rewrite_us", "us", From::kLayerUs, "rewrite.rewrite"},
      {"rewrite.fired_ratio", "ratio", From::kMean, "rewrite.fired_ratio"},
      {"cost.choose_us", "us", From::kLayerUs, "cost.choose"},
      {"cost.alternatives", "count", From::kMean, "cost.alternatives"},
      {"cost.parallel_chosen_ratio", "ratio", From::kMean,
       "cost.parallel_chosen"},
      {"cost.best_choice_ratio", "ratio", From::kMean, "cost.best_choice"},
      {"cost.audit_skipped", "count", From::kMean, "cost.audit_skipped"},
      {"verify.verify_us", "us", From::kLayerUs, "verify.verify"},
      {"verify.violations", "count", From::kMean, "verify.violations"},
      {"equiv.certify_us", "us", From::kLayerUs, "equiv.certify"},
      {"equiv.proven_ratio", "ratio", From::kMean, "equiv.proven_ratio"},
      {"cache.hit_ratio", "ratio", From::kMean, "cache.hit"},
      {"cache.hit_us", "us", From::kLayerUs, "cache.hit"},
      {"cache.invalidations", "count/op", From::kMean, "cache.invalidations"},
      {"uniqopt.prepare_residual_us", "us", From::kLayerUs,
       "uniqopt.prepare_residual"},
      {"exec.execute_us", "us", From::kMedian, "exec.execute_us"},
      {"exec.self_us", "us", From::kLayerUs, "exec.self"},
  };
  for (const std::string& op : ReportedOperators()) {
    m.push_back({"exec.op." + op + ".self_us", "us", From::kLayerUs,
                 "exec.op." + op});
  }
  const std::vector<LayerMetric> rest = {
      {"exec.rows_scanned", "count", From::kMedian, "exec.rows_scanned"},
      {"exec.hash_build_rows", "count", From::kMedian, "exec.hash_build_rows"},
      {"exec.hash_probes", "count", From::kMedian, "exec.hash_probes"},
      {"exec.sort_comparisons", "count", From::kMedian,
       "exec.sort_comparisons"},
      {"exec.inner_loop_rows", "count", From::kMedian, "exec.inner_loop_rows"},
      {"parallel.gather_us", "us", From::kLayerUs, "parallel.gather"},
      {"parallel.dop_used", "count", From::kMean, "parallel.dop_used"},
      {"parallel.morsels", "count", From::kMedian, "parallel.morsels"},
      {"parallel.worker_busy_ratio", "ratio", From::kMedian,
       "parallel.worker_busy_ratio"},
      {"index.probes_per_read", "count", From::kMean, "index.probes_per_read"},
      {"txn.parse_bind_us", "us", From::kLayerUs, "txn.parse_bind"},
      {"txn.update_us", "us", From::kLayerUs, "txn.update"},
      {"txn.insert_us", "us", From::kLayerUs, "txn.insert"},
      {"txn.delete_us", "us", From::kLayerUs, "txn.delete"},
      {"txn.reject_us", "us", From::kLayerUs, "txn.reject"},
      {"txn.rejected_ratio", "ratio", From::kMean, "txn.rejected"},
      {"trace.throughput_ops_s", "1/s", From::kMean, "trace.throughput_ops_s"},
      {"trace.overhead_ratio", "ratio", From::kMean, "trace.overhead_ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

}  // namespace

void ReportLayerMetrics(const LayerStats& layers, Report* report) {
  for (const LayerMetric& m : LayerMetrics()) {
    double value = 0;
    switch (m.from) {
      case From::kLayerUs:
        value = layers.MedianUs(m.key);
        break;
      case From::kMedian:
        value = layers.MedianValue(m.key);
        break;
      case From::kMean:
        value = layers.MeanValue(m.key);
        break;
    }
    report->Metric(m.name, value, m.unit);
  }
}

}  // namespace uniqbench
